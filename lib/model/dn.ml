(* Distinguished names and the hierarchy they induce (Definition 3.2).

   A dn is a sequence of rdn's, most specific first:
   [dn(r) = rdn(r) ; dn(parent r)].  All evaluation algorithms rely on the
   lexicographic ordering of the *reversed* rdn sequence (Section 4.2): in
   that order an ancestor's key is a proper prefix of every descendant's
   key, so each subtree occupies a contiguous range. *)

type t = Value.dn

let root : t = []
let compare = Value.compare_dn
let equal a b = compare a b = 0
let rdn (t : t) = match t with [] -> None | r :: _ -> Some r
let parent (t : t) = match t with [] -> None | _ :: rest -> Some rest
let child (t : t) rdn : t = rdn :: t
let depth (t : t) = List.length t

(* Proper ancestors, nearest first: the non-empty proper suffixes plus the
   forest root is *not* an entry, so we stop at the last non-empty suffix. *)
let rec ancestors (t : t) =
  match t with [] | [ _ ] -> [] | _ :: rest -> rest :: ancestors rest

let to_string = Value.dn_to_string
let pp ppf t = Fmt.string ppf (to_string t)

(* --- Hierarchy predicates ------------------------------------------- *)

let is_parent_of ~parent:p ~child:c =
  match c with [] -> false | _ :: rest -> equal p rest

let is_child_of ~child:c ~parent:p = is_parent_of ~parent:p ~child:c

(* [p] is a proper ancestor of [d] iff [p] is a proper suffix of [d]. *)
let is_ancestor_of ~ancestor:p ~descendant:d =
  let lp = List.length p and ld = List.length d in
  lp < ld
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  equal p (drop (ld - lp) d)

let is_descendant_of ~descendant:d ~ancestor:p = is_ancestor_of ~ancestor:p ~descendant:d

(* Reflexive variant used by the [sub] search scope. *)
let is_self_or_descendant_of ~descendant:d ~ancestor:p =
  equal p d || is_ancestor_of ~ancestor:p ~descendant:d

(* --- Reverse-lexicographic order ------------------------------------ *)

(* The canonical sort order of the whole system (Section 4.2) is the
   lexicographic order of [rev_key]: a byte string serializing the rdn
   sequence from the root down, each rdn terminated by '\x01'.  Because
   '\x01' sorts below every byte that can appear inside a serialized rdn,
   [rev_key ancestor] is a proper prefix of [rev_key descendant] and each
   subtree occupies a contiguous key range.  Values are serialized with a
   one-character type tag so that distinct dn's always get distinct keys
   (e.g. the int 2 vs the string "2").  An rdn is written as
   [a=v+a'=v'...] with each value backslash-escaped like a printed dn
   ({!Value.escape}); a '\x01' or '\x02' byte anywhere in it becomes
   '\x02' followed by the byte plus 0x10.  The bytes go straight into one
   buffer: keys are built on every lookup, so no per-rdn strings. *)
let add_key_char b c =
  if c = '\x01' || c = '\x02' then begin
    Buffer.add_char b '\x02';
    Buffer.add_char b (Char.chr (Char.code c + 0x10))
  end
  else Buffer.add_char b c

let add_key_string b s =
  for i = 0 to String.length s - 1 do
    add_key_char b s.[i]
  done

(* [Value.escape] returns its argument when nothing needs escaping. *)
let add_value_string b s = add_key_string b (Value.escape s)

let rec add_rdns b (t : t) =
  match t with
  | [] -> ()
  | rdn :: up ->
      add_rdns b up;
      add_pairs b true rdn;
      Buffer.add_char b '\x01'

and add_pairs b first = function
  | [] -> ()
  | (a, v) :: rest ->
      if not first then Buffer.add_char b '+';
      add_key_string b a;
      Buffer.add_char b '=';
      (match v with
      | Value.Str s ->
          Buffer.add_char b 's';
          add_value_string b s
      | Value.Int i ->
          Buffer.add_char b 'i';
          add_value_string b (string_of_int i)
      | Value.Dn d ->
          Buffer.add_char b 'd';
          add_value_string b (raw_key d));
      add_pairs b false rest

and raw_key (t : t) =
  let b = Buffer.create 64 in
  add_rdns b t;
  Buffer.contents b

let rev_key = raw_key

(* Derived from [rev_key] so that every component of the system agrees on
   a single total order with the ancestor-prefix property. *)
let compare_rev (a : t) (b : t) = String.compare (rev_key a) (rev_key b)

(* --- Parsing --------------------------------------------------------- *)

exception Parse_error of string

(* Split [s] on [sep] at top level, honouring backslash escapes. *)
let split_escaped sep s =
  let parts = ref [] in
  let b = Buffer.create 16 in
  let n = String.length s in
  let rec loop i =
    if i >= n then parts := Buffer.contents b :: !parts
    else if s.[i] = '\\' && i + 1 < n then begin
      Buffer.add_char b s.[i + 1];
      loop (i + 2)
    end
    else if s.[i] = sep then begin
      parts := Buffer.contents b :: !parts;
      Buffer.clear b;
      loop (i + 1)
    end
    else begin
      Buffer.add_char b s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  List.rev !parts

let parse_pair lookup s =
  match String.index_opt s '=' with
  | None -> raise (Parse_error (Printf.sprintf "rdn component %S lacks '='" s))
  | Some i ->
      let attr = String.trim (String.sub s 0 i) in
      let v = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if attr = "" then raise (Parse_error "empty attribute name in rdn");
      let value =
        match lookup attr with
        | Some Value.T_string -> Value.Str v
        | Some Value.T_int -> (
            match int_of_string_opt v with
            | Some i -> Value.Int i
            | None ->
                raise
                  (Parse_error
                     (Printf.sprintf "attribute %s is int-typed, got %S" attr v)))
        | Some Value.T_dn ->
            raise (Parse_error "dn-typed attributes cannot name entries")
        | None -> Value.of_string_untyped v
      in
      (attr, value)

(* Parse an LDAP-style dn string: rdn's separated by ',', multi-valued
   rdn components separated by '+'.  The empty string is the forest root.
   Note '=' signs inside values survive because only the first '=' of a
   component separates attribute from value — but split_escaped has
   already removed backslash escapes, so escaped separators are literal. *)
let of_string_with ~lookup s =
  let s = String.trim s in
  if s = "" then root
  else
    split_escaped ',' s
    |> List.map (fun rdn_str ->
           let rdn_str = String.trim rdn_str in
           if rdn_str = "" then raise (Parse_error "empty rdn in dn string");
           Rdn.normalize (List.map (parse_pair lookup) (split_escaped '+' rdn_str)))

let of_string s = of_string_with ~lookup:(fun _ -> None) s
let of_string_opt s = try Some (of_string s) with Parse_error _ -> None
