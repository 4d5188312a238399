(* Atomic filters (Section 4.1).

   The filter forms follow the paper's representative set for the base
   types [string] and [int], in LDAP RFC-2254 style:

   - presence              a=*
   - integer comparison    a<5  a<=5  a=5  a>=5  a>5
   - exact string match    a=jagadish
   - wildcard string match a=*jag*  a=jag*ish  ...
   - dn equality           a=dn:<distinguished name>

   An entry satisfies a filter iff at least one of its (attribute, value)
   pairs does. *)

type cmp = Lt | Le | Eq | Ge | Gt

(* LDAP substring pattern: initial*any*...*any*final. *)
type substring = {
  initial : string option;
  middles : string list;
  final : string option;
}

type t =
  | Present of string
  | Str_eq of string * string
  | Substr of string * substring
  | Int_cmp of string * cmp * int
  | Dn_eq of string * Value.dn

let attr = function
  | Present a | Str_eq (a, _) | Substr (a, _) | Int_cmp (a, _, _) | Dn_eq (a, _)
    -> a

let cmp_int op (x : int) (y : int) =
  match op with
  | Lt -> x < y
  | Le -> x <= y
  | Eq -> x = y
  | Ge -> x >= y
  | Gt -> x > y

(* The substring test runs on every string value a scan tests, so it
   compares in place: no [String.sub], no closures, no allocation. *)

(* [p] occurs in [s] at [i]; the caller checks [s] is long enough. *)
let rec same_at s i p j m =
  j = m || (String.unsafe_get s (i + j) = String.unsafe_get p j && same_at s i p (j + 1) m)

(* The end of the first occurrence of [p] in [s] at or after [pos], or
   -1. *)
let rec find_from s p pos =
  let m = String.length p in
  if pos + m > String.length s then -1
  else if same_at s pos p 0 m then pos + m
  else find_from s p (pos + 1)

let rec find_middles s pos = function
  | [] -> pos
  | mid :: rest ->
      let pos = find_from s mid pos in
      if pos < 0 then -1 else find_middles s pos rest

(* Match an LDAP substring pattern against [s]: the components must occur
   in order without overlap, with initial anchored at the start and final
   at the end. *)
let substring_matches pat s =
  let n = String.length s in
  let pos =
    match pat.initial with
    | None -> 0
    | Some ini ->
        let m = String.length ini in
        if m <= n && same_at s 0 ini 0 m then m else -1
  in
  let pos = if pos < 0 then pos else find_middles s pos pat.middles in
  pos >= 0
  &&
  match pat.final with
  | None -> true
  | Some fin ->
      let m = String.length fin in
      pos + m <= n && same_at s (n - m) fin 0 m

let value_matches t v =
  match (t, v) with
  | Present _, _ -> true
  | Str_eq (_, s), Value.Str s' -> String.equal s s'
  | Substr (_, pat), Value.Str s -> substring_matches pat s
  | Int_cmp (_, op, k), Value.Int i -> cmp_int op i k
  | Dn_eq (_, dn), Value.Dn dn' -> Value.compare_dn dn dn' = 0
  | (Str_eq _ | Substr _ | Int_cmp _ | Dn_eq _), _ -> false

(* Some pair of attribute [a] satisfies [t]: the entry's own pair list,
   walked in place. *)
let rec exists_pair t a = function
  | [] -> false
  | (a', v) :: rest -> (String.equal a a' && value_matches t v) || exists_pair t a rest

(* r |= F — Section 4.1's satisfaction relation.  Every entry a scan
   visits is tested, so this allocates nothing. *)
let matches t entry = exists_pair t (attr t) (Entry.attrs entry)

(* --- Printing --------------------------------------------------------- *)

let cmp_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "="
  | Ge -> ">="
  | Gt -> ">"

let substring_to_string pat =
  String.concat "*"
    ([ Option.value ~default:"" pat.initial ]
    @ pat.middles
    @ [ Option.value ~default:"" pat.final ])

let to_string = function
  | Present a -> a ^ "=*"
  | Str_eq (a, s) -> a ^ "=" ^ s
  | Substr (a, pat) -> a ^ "=" ^ substring_to_string pat
  | Int_cmp (a, op, k) -> a ^ cmp_to_string op ^ string_of_int k
  | Dn_eq (a, dn) -> a ^ "=dn:" ^ Value.dn_to_string dn

let pp ppf t = Fmt.string ppf (to_string t)

(* --- Parsing ---------------------------------------------------------- *)

exception Parse_error of string

let split_on_string ~sep s =
  let seplen = String.length sep in
  let rec loop start acc =
    match
      let rec find i =
        if i + seplen > String.length s then None
        else if String.sub s i seplen = sep then Some i
        else find (i + 1)
      in
      find start
    with
    | Some i -> loop (i + seplen) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  loop 0 []

let parse_substring a rhs =
  match String.split_on_char '*' rhs with
  | [] | [ _ ] -> assert false  (* caller guarantees a '*' is present *)
  | parts ->
      let arr = Array.of_list parts in
      let n = Array.length arr in
      let opt s = if s = "" then None else Some s in
      let initial = opt arr.(0) and final = opt arr.(n - 1) in
      let middles =
        Array.to_list (Array.sub arr 1 (n - 2))
        |> List.filter (fun s -> s <> "")
      in
      if initial = None && middles = [] && final = None then Present a
      else Substr (a, { initial; middles; final })

(* Parse one atomic filter.  When a [schema] is supplied the attribute's
   declared type decides between int, string and dn readings of the
   right-hand side; otherwise an integer-looking operand after '=' is
   read as an int comparison. *)
let of_string ?schema s =
  let s = String.trim s in
  let try_op op_str op =
    match split_on_string ~sep:op_str s with
    | [ a; v ] when a <> "" && not (String.contains a '=') ->
        let a = String.trim a and v = String.trim v in
        (match int_of_string_opt v with
        | Some k -> Some (Int_cmp (a, op, k))
        | None ->
            raise
              (Parse_error
                 (Printf.sprintf "non-integer operand %S for %s" v op_str)))
    | _ -> None
  in
  (* Two-character operators first so "a<=5" is not read as "a<" "=5". *)
  let ordered =
    [ ("<=", Le); (">=", Ge); ("<", Lt); (">", Gt) ]
  in
  let rec try_all = function
    | [] -> None
    | (op_str, op) :: rest -> (
        match try_op op_str op with Some f -> Some f | None -> try_all rest)
  in
  match try_all ordered with
  | Some f -> f
  | None -> (
      match String.index_opt s '=' with
      | None -> raise (Parse_error (Printf.sprintf "cannot parse filter %S" s))
      | Some i -> (
          let a = String.trim (String.sub s 0 i) in
          let rhs = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
          if a = "" then raise (Parse_error "empty attribute in filter");
          let lookup =
            match schema with
            | Some sc -> Schema.attr_type sc
            | None -> fun _ -> None
          in
          if rhs = "*" then Present a
          else if String.length rhs > 3 && String.sub rhs 0 3 = "dn:" then
            Dn_eq
              (a, Dn.of_string_with ~lookup (String.sub rhs 3 (String.length rhs - 3)))
          else if String.contains rhs '*' then parse_substring a rhs
          else
            let declared =
              match schema with Some sc -> Schema.attr_type sc a | None -> None
            in
            match declared with
            | Some Value.T_int -> (
                match int_of_string_opt rhs with
                | Some k -> Int_cmp (a, Eq, k)
                | None ->
                    raise
                      (Parse_error
                         (Printf.sprintf "attribute %s is int-typed, got %S" a rhs)))
            | Some Value.T_dn -> Dn_eq (a, Dn.of_string_with ~lookup rhs)
            | Some Value.T_string -> Str_eq (a, rhs)
            | None -> (
                match int_of_string_opt rhs with
                | Some k -> Int_cmp (a, Eq, k)
                | None -> Str_eq (a, rhs))))
