(* Directory instances — the directory information forest (Sections 3.2-3.3).

   An instance holds the entry set R in one persistent weight-balanced
   tree keyed by the reverse-dn string key, so in-order traversal yields
   the canonical sorted order and each subtree is a contiguous key range
   (the same layout a disk-resident directory would use).  Every node
   carries the size of its subtree, so an entry's rank in that order,
   and with it the size of any scope, costs O(log n): the dn-index is a
   page view over these ranks, not a second sorted copy.

   Queries map instances to sub-instances over the same schema (Section 4.1),
   so query results can themselves be wrapped back into instances —
   the closure property the paper emphasizes. *)

(* A node is 5 words: header, children, entry and subtree size. *)
type tree = Leaf | Node of { l : tree; e : Entry.t; r : tree; size : int }

type t = { schema : Schema.t; tree : tree }

type violation =
  | Duplicate_dn of Dn.t
  | Rdn_not_in_values of Dn.t  (* Def 3.2(d)(ii) *)
  | No_class of Dn.t  (* Def 3.2(b): class set must be non-empty *)
  | Unknown_class of Dn.t * string
  | Attr_not_allowed of Dn.t * string  (* Def 3.2(c)1 *)
  | Attr_wrong_type of Dn.t * string * Value.ty  (* Def 3.2(c)1 *)
  | Unknown_attr of Dn.t * string

let pp_violation ppf = function
  | Duplicate_dn dn -> Fmt.pf ppf "duplicate dn %a" Dn.pp dn
  | Rdn_not_in_values dn -> Fmt.pf ppf "rdn of %a not among its values" Dn.pp dn
  | No_class dn -> Fmt.pf ppf "%a belongs to no class" Dn.pp dn
  | Unknown_class (dn, c) -> Fmt.pf ppf "%a: unknown class %s" Dn.pp dn c
  | Attr_not_allowed (dn, a) ->
      Fmt.pf ppf "%a: attribute %s not allowed by any of its classes" Dn.pp dn a
  | Attr_wrong_type (dn, a, ty) ->
      Fmt.pf ppf "%a: attribute %s has a value that is not of type %s" Dn.pp dn
        a (Value.ty_to_string ty)
  | Unknown_attr (dn, a) -> Fmt.pf ppf "%a: undeclared attribute %s" Dn.pp dn a

exception Invalid of violation

(* --- The weight-balanced tree ------------------------------------------ *)

(* Adams's weight-balanced trees with Data.Map's parameters: at every
   node [size l <= delta * size r] and [size r <= delta * size l],
   unless the two hold at most one entry together; a rotation is double
   when the inner grandchild holds at least [ratio] times the outer
   one.  Straka proved (3, 2) keeps insertion and deletion balanced. *)
let delta = 3
let ratio = 2

let size_of = function Leaf -> 0 | Node n -> n.size
let node l e r = Node { l; e; r; size = size_of l + size_of r + 1 }

(* Restore the balance after one side grew or shrank by one entry, or
   after one step of [join]. *)
let balance l e r =
  let sl = size_of l and sr = size_of r in
  if sl + sr <= 1 then node l e r
  else if sr > delta * sl then
    match r with
    | Node { l = rl; e = re; r = rr; _ } when size_of rl < ratio * size_of rr ->
        node (node l e rl) re rr
    | Node { l = Node { l = rll; e = rle; r = rlr; _ }; e = re; r = rr; _ } ->
        node (node l e rll) rle (node rlr re rr)
    | _ -> assert false
  else if sl > delta * sr then
    match l with
    | Node { l = ll; e = le; r = lr; _ } when size_of lr < ratio * size_of ll ->
        node ll le (node lr e r)
    | Node { l = ll; e = le; r = Node { l = lrl; e = lre; r = lrr; _ }; _ } ->
        node (node ll le lrl) lre (node lrr e r)
    | _ -> assert false
  else node l e r

let rec find_key key = function
  | Leaf -> None
  | Node { l; e; r; _ } ->
      let c = String.compare key (Entry.key e) in
      if c = 0 then Some e else find_key key (if c < 0 then l else r)

(* Insert [x] or overwrite the entry with its key; the tree itself when
   [x] is already there. *)
let rec put_tree x = function
  | Leaf -> node Leaf x Leaf
  | Node { l; e; r; size } as t ->
      let c = String.compare (Entry.key x) (Entry.key e) in
      if c = 0 then if x == e then t else Node { l; e = x; r; size }
      else if c < 0 then balance (put_tree x l) e r
      else balance l e (put_tree x r)

(* [l], [e] and [r] in key order, of any sizes: descend the heavier side
   until the two balance. *)
let rec join l e r =
  match (l, r) with
  | Leaf, s | s, Leaf -> put_tree e s
  | Node { l = ll; e = le; r = lr; size = sl }, Node { l = rl; e = re; r = rr; size = sr } ->
      if delta * sl < sr then balance (join l e rl) re rr
      else if delta * sr < sl then balance ll le (join lr e r)
      else node l e r

(* [l] and [r] in key order, of any sizes. *)
let rec concat l = function Leaf -> l | Node { l = rl; e; r; _ } -> join (concat l rl) e r

(* The entries below [key], the one at it, and those above. *)
let rec split key = function
  | Leaf -> (Leaf, None, Leaf)
  | Node { l; e; r; _ } ->
      let c = String.compare key (Entry.key e) in
      if c = 0 then (l, Some e, r)
      else if c < 0 then
        let ll, at, lr = split key l in
        (ll, at, join lr e r)
      else
        let rl, at, rr = split key r in
        (join l e rl, at, rr)

(* How many entries sort before [key] or, when [past], also start with
   it: the two ends of [key]'s prefix range, which is contiguous. *)
let rec count_before ~past key acc = function
  | Leaf -> acc
  | Node { l; e; r; _ } ->
      let k = Entry.key e in
      if String.compare k key < 0 || (past && Entry.key_is_prefix ~prefix:key k) then
        count_before ~past key (acc + size_of l + 1) r
      else count_before ~past key acc l

let rec fold_tree f acc = function
  | Leaf -> acc
  | Node { l; e; r; _ } -> fold_tree f (f (fold_tree f acc l) e) r

let rec fold_tree_right f t acc =
  match t with Leaf -> acc | Node { l; e; r; _ } -> fold_tree_right f l (f e (fold_tree_right f r acc))

(* [f] over the entries of ranks [lo, hi) from the last to the first,
   so that consing builds them in order; [first] is the rank of the
   tree's first entry.  Only the range and the two paths bounding it
   are visited, and no key is compared.  A subtree wholly inside the
   range is folded without rank arithmetic, which would read each
   left child's size long before the child itself is visited. *)
let rec fold_ranks f lo hi first t acc =
  match t with
  | Leaf -> acc
  | Node { size; _ } when lo <= first && first + size <= hi -> fold_tree_right f t acc
  | Node { l; e; r; _ } ->
      let rank = first + size_of l in
      let acc = if rank + 1 < hi then fold_ranks f lo hi (rank + 1) r acc else acc in
      let acc = if lo <= rank && rank < hi then f e acc else acc in
      if lo < rank then fold_ranks f lo hi first l acc else acc

(* Split the new tree at each old key, so subtrees the two still share
   compare physically equal and are skipped. *)
let rec diff_tree old t ~removed ~added =
  if old != t then
    match old with
    | Leaf -> fold_tree (fun () e -> added e) () t
    | Node { l; e; r; _ } ->
        let tl, at, tr = split (Entry.key e) t in
        (match at with
        | Some x when x == e -> ()
        | Some x ->
            removed e;
            added x
        | None -> removed e);
        diff_tree l tl ~removed ~added;
        diff_tree r tr ~removed ~added

(* --- Instances ----------------------------------------------------------- *)

let empty schema = { schema; tree = Leaf }
let schema t = t.schema
let size t = size_of t.tree

let rec type_in a = function
  | [] -> None
  | (a', ty) :: l -> if String.equal a a' then Some ty else type_in a l

(* The type of [a] in the first of the classes' typed attribute lists
   that allows it. *)
let rec allowed_type a = function
  | [] -> None
  | l :: rest -> ( match type_in a l with Some _ as ty -> ty | None -> allowed_type a rest)

(* Check one entry against Definition 3.2 (given the rest of R is checked
   separately for key uniqueness by the tree). *)
let check_entry schema e =
  let dn = Entry.dn e in
  (match Entry.rdn e with
  | None -> raise (Invalid (Rdn_not_in_values dn))  (* root is not an entry *)
  | Some rdn ->
      if not (Rdn.subset_of_values rdn (Entry.attrs e)) then
        raise (Invalid (Rdn_not_in_values dn)));
  (* each class's typed attribute list, in the order of the entry's
     classes (its [objectClass] string values) *)
  let allowed =
    List.filter_map
      (fun (a, v) ->
        match v with
        | Value.Str c when String.equal a Schema.object_class -> (
            match Schema.allowed_typed schema c with
            | Some _ as l -> l
            | None -> raise (Invalid (Unknown_class (dn, c))))
        | Value.Str _ | Value.Int _ | Value.Dn _ -> None)
      (Entry.attrs e)
  in
  if allowed = [] then raise (Invalid (No_class dn));
  List.iter
    (fun (a, v) ->
      match allowed_type a allowed with
      | Some ty ->
          if Value.type_of v <> ty then raise (Invalid (Attr_wrong_type (dn, a, ty)))
      | None -> (
          (* allowed by none of the classes: the first complaint that applies *)
          match Schema.attr_type schema a with
          | None -> raise (Invalid (Unknown_attr (dn, a)))
          | Some ty ->
              if Value.type_of v <> ty then raise (Invalid (Attr_wrong_type (dn, a, ty)));
              raise (Invalid (Attr_not_allowed (dn, a)))))
    (Entry.attrs e)

let add ?(validate = true) t e =
  if validate then check_entry t.schema e;
  let tree = put_tree e t.tree in
  if size_of tree = size t then raise (Invalid (Duplicate_dn (Entry.dn e)));
  { t with tree }

let put t e = { t with tree = put_tree e t.tree }

let replace ?(validate = true) t e =
  if validate then check_entry t.schema e;
  put t e

let remove t dn =
  match split (Dn.rev_key dn) t.tree with
  | _, None, _ -> t
  | l, Some _, r -> { t with tree = concat l r }

let find t dn = find_key (Dn.rev_key dn) t.tree
let mem t dn = Option.is_some (find t dn)

(* The balanced tree over [a.(lo)] .. [a.(hi - 1)], sorted and
   distinct: the middle entry at the root, so sibling sizes differ by
   at most one. *)
let rec of_sorted a lo hi =
  if lo >= hi then Leaf
  else
    let mid = (lo + hi) / 2 in
    let l = of_sorted a lo mid in
    Node { l; e = a.(mid); r = of_sorted a (mid + 1) hi; size = hi - lo }

(* Keys by content.  Distinct keys of one batch mostly differ in their
   last rdn, so hashing their last eight bytes and length is enough,
   and far cheaper than hashing keys hundreds of bytes long. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let n = String.length s in
    if n < 8 then Hashtbl.hash s
    else Hashtbl.hash (Int64.to_int (String.get_int64_le s (n - 8)) lxor n)
end)

(* The bulk build: the fold of [add], clustered.  The batch is sorted
   once, and each entry is copied in key order, key strings first, then
   the rest, so that a range fold, a scan or a stack sweep reads memory
   in the order it visits entries (a promoted block never moves).  A
   reference to an entry of the batch stores that entry's key string.
   Each entry is validated as it is copied; on any violation, or a
   repeated dn, the fold itself runs instead, and raises its error: the
   first entry in list order that is invalid or repeats an earlier
   dn. *)
let of_entries ?(validate = true) schema es =
  let fold () = List.fold_left (add ~validate) (empty schema) es in
  let a = Array.of_list es in
  let n = Array.length a in
  let keys = Array.map Entry.key a in
  (* list positions in key order *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare keys.(i) keys.(j)) order;
  let fresh = Array.map (fun i -> String.sub keys.(i) 0 (String.length keys.(i))) order in
  let targets = Keys.create n in
  Array.iter (fun k -> Keys.replace targets k k) fresh;
  let ref_key k = match Keys.find targets k with k' -> k' | exception Not_found -> k in
  let copy r i =
    if validate then check_entry schema a.(i);
    Entry.relocate a.(i) ~key:fresh.(r) ~ref_key
  in
  if Keys.length targets < n then fold ()
  else
    match Array.mapi copy order with
    | sorted -> { schema; tree = of_sorted sorted 0 n }
    | exception Invalid _ -> fold ()

(* Wrap a result entry set back into an instance (closure property). *)
let of_result t es = List.fold_left put (empty t.schema) es

let fold f init t = fold_tree f init t.tree
let iter f t = fold (fun () e -> f e) () t
let fold_range f t (lo, hi) init = fold_ranks f lo hi 0 t.tree init
let to_list t = fold_range List.cons t (0, size t) []

(* --- Ranks and key ranges ------------------------------------------------ *)

let rank t key = count_before ~past:false key 0 t.tree

type range = { inst : t; base : Dn.t; key : string; lo : int; hi : int }

(* A subtree is the key range [rev_key base] starts: an ancestor's key
   is a prefix of each descendant's, and of no other key.  This is
   where a query's base is keyed, once. *)
let resolve t base =
  let key = Dn.rev_key base in
  { inst = t; base; key; lo = rank t key; hi = count_before ~past:true key 0 t.tree }

let subtree t base =
  let r = resolve t base in
  fold_range List.cons t (r.lo, r.hi) []

let subtree_size t base =
  let r = resolve t base in
  r.hi - r.lo

let diff old t ~removed ~added = diff_tree old.tree t.tree ~removed ~added

let valid t =
  let rec ok = function
    | Leaf -> true
    | Node { l; r; size; _ } ->
        let sl = size_of l and sr = size_of r in
        size = sl + sr + 1
        && (sl + sr <= 1 || (sl <= delta * sr && sr <= delta * sl))
        && ok l && ok r
  in
  ok t.tree

let roots t =
  fold
    (fun acc e ->
      match Dn.parent (Entry.dn e) with
      | Some p when p <> Dn.root && mem t p -> acc
      | _ -> e :: acc)
    [] t
  |> List.rev

(* Full well-formedness check of Definition 3.2; returns all violations. *)
let validate t =
  fold
    (fun acc e ->
      match check_entry t.schema e with
      | () -> acc
      | exception Invalid v -> v :: acc)
    [] t
  |> List.rev
