(* Attribute values (Section 3.1).

   The model's type set T contains [string], [int] and the complex type
   [distinguishedName] whose domain is sequences of sets of
   (attribute, value) pairs.  The three domains are mutually recursive —
   a dn is built from values — so the representation types for all three
   live here; the [Rdn] and [Dn] modules provide the operations. *)

type t = Str of string | Int of int | Dn of dn

(* A distinguished name: sequence of rdn's, leftmost = most specific
   (LDAP convention).  The parent dn of [rdn :: rest] is [rest]. *)
and dn = rdn list

(* A relative distinguished name: a non-empty set of (attribute, value)
   pairs, kept sorted and duplicate-free so equality is structural. *)
and rdn = (string * t) list

type ty = T_string | T_int | T_dn

let ty_to_string = function
  | T_string -> "string"
  | T_int -> "int"
  | T_dn -> "distinguishedName"

let type_of = function Str _ -> T_string | Int _ -> T_int | Dn _ -> T_dn

let rec compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Int _, (Str _ | Dn _) -> -1
  | (Str _ | Dn _), Int _ -> 1
  | Str x, Str y -> String.compare x y
  | Str _, Dn _ -> -1
  | Dn _, Str _ -> 1
  | Dn x, Dn y -> compare_dn x y

and compare_dn a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | r1 :: rest1, r2 :: rest2 ->
      let c = compare_rdn r1 r2 in
      if c <> 0 then c else compare_dn rest1 rest2

and compare_rdn a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (a1, v1) :: rest1, (a2, v2) :: rest2 ->
      let c = String.compare a1 a2 in
      if c <> 0 then c
      else
        let c = compare v1 v2 in
        if c <> 0 then c else compare_rdn rest1 rest2

let equal a b = compare a b = 0

(* Characters that must be escaped inside dn value strings. *)
let needs_escape c = c = ',' || c = '+' || c = '=' || c = '\\'

let escape s =
  if String.exists needs_escape s then begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_char b '\\';
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let rec to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Dn dn -> dn_to_string dn

and dn_escaped_string = function
  | Str s -> escape s
  | Int i -> string_of_int i
  | Dn dn -> escape (dn_to_string dn)

and rdn_to_string rdn =
  String.concat "+"
    (List.map (fun (a, v) -> a ^ "=" ^ dn_escaped_string v) rdn)

and dn_to_string dn = String.concat ", " (List.map rdn_to_string dn)

let pp ppf v = Fmt.string ppf (to_string v)

(* [String.length (to_string v)], counted without building the string.
   Every [escape] of a printed piece doubles each of its separator
   characters and leaves the others alone, so a separator under [k]
   escapes prints as [w = 2^k] bytes: a dn nested inside an rdn value
   is printed at twice the weight of the rdn around it.  Ints print
   digits and a sign, which never need escaping. *)
let int_length i =
  (* counted on the non-positive side, where [min_int] has a negation *)
  let rec digits n d = if n > -10 then d else digits (n / 10) (d + 1) in
  digits (if i > 0 then -i else i) (if i < 0 then 2 else 1)

let escaped_length w s =
  if w = 1 then String.length s
  else begin
    let n = ref 0 in
    for i = 0 to String.length s - 1 do
      n := !n + if needs_escape (String.unsafe_get s i) then w else 1
    done;
    !n
  end

let rec length_at w = function
  | Str s -> escaped_length w s
  | Int i -> int_length i
  | Dn dn -> dn_length w dn

(* rdn's joined by ", ": a separator and a space *)
and dn_length w = function
  | [] -> 0
  | [ rdn ] -> rdn_length w rdn
  | rdn :: up -> rdn_length w rdn + w + 1 + dn_length w up

(* pairs [a=v] joined by "+", each value escaped once more *)
and rdn_length w = function
  | [] -> 0
  | [ (a, v) ] -> pair_length w a v
  | (a, v) :: rest -> pair_length w a v + w + rdn_length w rest

and pair_length w a v = escaped_length w a + w + length_at (2 * w) v

let length v = length_at 1 v

(* Untyped reading used by parsers when no schema is in scope: an all-digit
   token (with optional sign) reads as an int, anything else as a string.
   Schema-aware callers use [of_string_typed] for exactness. *)
let of_string_untyped s =
  match int_of_string_opt s with Some i -> Int i | None -> Str s

let of_string_typed ty s =
  match ty with
  | T_string -> Ok (Str s)
  | T_int -> (
      match int_of_string_opt s with
      | Some i -> Ok (Int i)
      | None -> Error (Printf.sprintf "%S is not an int" s))
  | T_dn -> Error "dn values must be parsed with Dn.of_string"

let as_int = function Int i -> Some i | Str _ | Dn _ -> None
let as_string = function Str s -> Some s | Int _ | Dn _ -> None
let as_dn = function Dn d -> Some d | Int _ | Str _ -> None
