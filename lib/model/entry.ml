(* Directory entries (Definition 3.2).

   An entry is its distinguished name plus a multiset of (attribute,
   value) pairs — val(r) is formally a set, but several pairs may share
   an attribute name (footnote 2), so an attribute may be multi-valued.
   The classes of an entry are exactly the values of its [objectClass]
   attribute (Definition 3.2(c)2), so we derive them rather than store
   them.  Each entry caches its reverse-dn sort key; every algorithm in
   the system orders entries by that key.  It caches the keys of the
   dn's it references too, so neither the joins of Section 7 nor the
   attribute index re-serialize an embedded dn, and its byte size, so
   the result cache and distributed shipping add integers. *)

(* The reverse keys of the dn-valued pairs, in [attrs] order, each
   beside its attribute (the very string [attrs] holds): a flat list of
   4-word cells. *)
type refs = No_ref | Ref of string * string * refs

type t = {
  dn : Dn.t;
  attrs : (string * Value.t) list;
  key : string;  (* cached Dn.rev_key dn *)
  refs : refs;
  size : int;  (* cached byte_size *)
}

(* Approximate record size in bytes, for cache and shipping accounting:
   the key, 16 bytes of framing, and per pair the attribute name, the
   printed value and 2 bytes of separators. *)
let size_of key attrs =
  List.fold_left
    (fun acc (a, v) -> acc + String.length a + Value.length v + 2)
    (String.length key + 16)
    attrs

(* The key a reference to [d] is cached and indexed under. *)
let ref_key d = Dn.rev_key d

let make dn attrs =
  let attrs =
    List.sort_uniq
      (fun (a1, v1) (a2, v2) ->
        let c = String.compare a1 a2 in
        if c <> 0 then c else Value.compare v1 v2)
      attrs
  in
  let refs =
    List.fold_right
      (fun (a, v) refs -> match v with Value.Dn d -> Ref (a, ref_key d, refs) | _ -> refs)
      attrs No_ref
  in
  let key = Dn.rev_key dn in
  { dn; attrs; key; refs; size = size_of key attrs }

(* The same entry in fresh blocks, allocated in one run: the pairs with
   their value blocks and list cells, the reference cells and the
   record.  The dn (its tail is the parent's dn), the attribute names
   and the strings inside values stay shared. *)
let relocate t ~key ~ref_key =
  let value = function
    | Value.Str s -> Value.Str s
    | Value.Int i -> Value.Int i
    | Value.Dn d -> Value.Dn d
  in
  let attrs = List.map (fun (a, v) -> (a, value v)) t.attrs in
  let rec refs = function
    | No_ref -> No_ref
    | Ref (a, k, rest) -> Ref (a, ref_key k, refs rest)
  in
  { dn = t.dn; attrs; key; refs = refs t.refs; size = t.size }

let dn t = t.dn
let attrs t = t.attrs
let key t = t.key
let rdn t = Dn.rdn t.dn

(* All values of attribute [a] in the entry, in value order. *)
let values t a =
  List.filter_map
    (fun (a', v) -> if String.equal a a' then Some v else None)
    t.attrs

let value t a = match values t a with [] -> None | v :: _ -> Some v
let has_attr t a = List.exists (fun (a', _) -> String.equal a a') t.attrs
let has_pair t a v = List.exists (fun (a', v') -> String.equal a a' && Value.equal v v') t.attrs

let int_values t a = List.filter_map Value.as_int (values t a)
let string_values t a = List.filter_map Value.as_string (values t a)
let dn_values t a = List.filter_map Value.as_dn (values t a)

let rec iter_refs a f = function
  | No_ref -> ()
  | Ref (a', k, rest) ->
      if String.equal a a' then f k;
      iter_refs a f rest

let ref_keys t a f = iter_refs a f t.refs

let classes t = string_values t Schema.object_class
let has_class t c = List.mem c (classes t)

(* The canonical order: reverse-dn lexicographic (Section 4.2). *)
let compare_rev a b = String.compare a.key b.key
let equal_dn a b = String.equal a.key b.key

let is_parent_of ~parent ~child = Dn.is_parent_of ~parent:parent.dn ~child:child.dn

let is_ancestor_of ~ancestor ~descendant =
  Dn.is_ancestor_of ~ancestor:ancestor.dn ~descendant:descendant.dn

(* Prefix tests on cached keys: O(key length), used in the hot loops of
   the stack algorithms instead of structural dn walks.  The bytes are
   compared in place, eight at a time: keys run to hundreds of bytes in
   deep trees, where a byte loop is several times slower than copying
   the prefix out and comparing it in C, and a copy allocates. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let rec same_bytes p s i n =
  i = n || (String.unsafe_get p i = String.unsafe_get s i && same_bytes p s (i + 1) n)

(* [p] and [s] agree on [[i], [n]); the caller checks both are that long. *)
let rec same_from p s i n =
  if i + 8 <= n then Int64.equal (get64u p i) (get64u s i) && same_from p s (i + 8) n
  else same_bytes p s i n

let key_is_prefix ~prefix s =
  let lp = String.length prefix in
  lp <= String.length s && same_from prefix s 0 lp

let key_ancestor_of ~ancestor ~descendant =
  String.length ancestor.key < String.length descendant.key
  && key_is_prefix ~prefix:ancestor.key descendant.key

let key_parent_of ~parent ~child =
  key_ancestor_of ~ancestor:parent ~descendant:child
  && Dn.depth child.dn = Dn.depth parent.dn + 1

let byte_size t = t.size

let pp ppf t =
  Fmt.pf ppf "@[<v2>dn: %a@,%a@]" Dn.pp t.dn
    (Fmt.list ~sep:Fmt.cut (fun ppf (a, v) -> Fmt.pf ppf "%s: %a" a Value.pp v))
    t.attrs

let to_string t = Fmt.str "%a" pp t
