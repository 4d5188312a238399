(* An in-memory B+tree over int keys with multiset postings, charged
   through the external-memory cost model: every node touched on a search
   or insertion path counts as one page read (plus one write for each node
   modified or created).

   The paper assumes atomic queries over integer attributes are answered
   "with the help of B-tree indices" (Section 4.1); this is that index.
   Keys map to posting lists (duplicate keys accumulate), leaves are
   linked for range scans. *)

type 'a leaf = {
  mutable lkeys : int array;
  mutable lvals : 'a list array;  (* posting list per key, newest first *)
  mutable lcounts : int array;  (* length of each key's posting list *)
  mutable lcount : int;
  mutable ltotal : int;  (* postings held by this leaf *)
  mutable next : 'a leaf option;
}

type 'a node = Leaf of 'a leaf | Internal of 'a internal

and 'a internal = {
  mutable ikeys : int array;  (* icount separator keys *)
  mutable children : 'a node array;  (* icount + 1 children *)
  mutable icount : int;
  mutable itotal : int;  (* postings held by the whole subtree *)
}

type 'a t = {
  pager : Pager.t;
  order : int;  (* max keys per node = 2 * order *)
  mutable root : 'a node;
  mutable cardinal : int;  (* total postings *)
}

let max_keys t = 2 * t.order

let fresh_leaf order =
  {
    (* one slack slot: a node may temporarily hold max_keys + 1 entries
       between the insert and the split that follows *)
    lkeys = Array.make ((2 * order) + 1) 0;
    lvals = Array.make ((2 * order) + 1) [];
    lcounts = Array.make ((2 * order) + 1) 0;
    lcount = 0;
    ltotal = 0;
    next = None;
  }

let create ?(order = 16) pager =
  if order < 2 then invalid_arg "Btree.create: order < 2";
  { pager; order; root = Leaf (fresh_leaf order); cardinal = 0 }

let cardinal t = t.cardinal
let charge_read t = Io_stats.read_page (Pager.stats t.pager)
let charge_write t = Io_stats.write_page (Pager.stats t.pager)

(* Position of the first index in [keys.(0..count-1)] with keys.(i) >= k,
   or [count] if none. *)
let lower_bound keys count k =
  let lo = ref 0 and hi = ref count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index to follow for key [k]: first separator greater than [k]
   decides; equal keys go right so leaves own keys >= their separator. *)
let child_index ikeys icount k =
  let lo = ref 0 and hi = ref icount in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ikeys.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo

(* --- Insertion -------------------------------------------------------- *)

let leaf_insert leaf k v =
  let pos = lower_bound leaf.lkeys leaf.lcount k in
  if pos < leaf.lcount && leaf.lkeys.(pos) = k then begin
    leaf.lvals.(pos) <- v :: leaf.lvals.(pos);
    leaf.lcounts.(pos) <- leaf.lcounts.(pos) + 1
  end
  else begin
    Array.blit leaf.lkeys pos leaf.lkeys (pos + 1) (leaf.lcount - pos);
    Array.blit leaf.lvals pos leaf.lvals (pos + 1) (leaf.lcount - pos);
    Array.blit leaf.lcounts pos leaf.lcounts (pos + 1) (leaf.lcount - pos);
    leaf.lkeys.(pos) <- k;
    leaf.lvals.(pos) <- [ v ];
    leaf.lcounts.(pos) <- 1;
    leaf.lcount <- leaf.lcount + 1
  end

let node_total = function Leaf l -> l.ltotal | Internal i -> i.itotal

let leaf_total leaf =
  let n = ref 0 in
  for i = 0 to leaf.lcount - 1 do
    n := !n + leaf.lcounts.(i)
  done;
  !n

let children_total node =
  let n = ref 0 in
  for i = 0 to node.icount do
    n := !n + node_total node.children.(i)
  done;
  !n

let split_leaf t leaf =
  let half = leaf.lcount / 2 in
  let right = fresh_leaf t.order in
  let moved = leaf.lcount - half in
  Array.blit leaf.lkeys half right.lkeys 0 moved;
  Array.blit leaf.lvals half right.lvals 0 moved;
  Array.blit leaf.lcounts half right.lcounts 0 moved;
  (* Clear moved slots so posting lists do not leak into the left node. *)
  Array.fill leaf.lvals half moved [];
  right.lcount <- moved;
  leaf.lcount <- half;
  leaf.ltotal <- leaf_total leaf;
  right.ltotal <- leaf_total right;
  right.next <- leaf.next;
  leaf.next <- Some right;
  charge_write t;
  (right.lkeys.(0), Leaf right)

let split_internal t node =
  let half = node.icount / 2 in
  let sep = node.ikeys.(half) in
  let moved = node.icount - half - 1 in
  let right =
    {
      ikeys = Array.make ((2 * t.order) + 1) 0;
      children = Array.make ((2 * t.order) + 2) node.children.(0);
      icount = moved;
      itotal = 0;
    }
  in
  Array.blit node.ikeys (half + 1) right.ikeys 0 moved;
  Array.blit node.children (half + 1) right.children 0 (moved + 1);
  node.icount <- half;
  node.itotal <- children_total node;
  right.itotal <- children_total right;
  charge_write t;
  (sep, Internal right)

(* Insert into subtree; returns the split (separator, new right sibling)
   when the node overflowed. *)
let rec insert_node t node k v =
  charge_read t;
  match node with
  | Leaf leaf ->
      leaf_insert leaf k v;
      leaf.ltotal <- leaf.ltotal + 1;
      charge_write t;
      if leaf.lcount > max_keys t then Some (split_leaf t leaf) else None
  | Internal inode -> (
      inode.itotal <- inode.itotal + 1;
      let ci = child_index inode.ikeys inode.icount k in
      match insert_node t inode.children.(ci) k v with
      | None -> None
      | Some (sep, right) ->
          Array.blit inode.ikeys ci inode.ikeys (ci + 1) (inode.icount - ci);
          Array.blit inode.children (ci + 1) inode.children (ci + 2)
            (inode.icount - ci);
          inode.ikeys.(ci) <- sep;
          inode.children.(ci + 1) <- right;
          inode.icount <- inode.icount + 1;
          charge_write t;
          if inode.icount > max_keys t then Some (split_internal t inode)
          else None)

let insert t k v =
  t.cardinal <- t.cardinal + 1;
  match insert_node t t.root k v with
  | None -> ()
  | Some (sep, right) ->
      let ikeys = Array.make ((2 * t.order) + 1) 0 in
      let children = Array.make ((2 * t.order) + 2) t.root in
      ikeys.(0) <- sep;
      children.(0) <- t.root;
      children.(1) <- right;
      t.root <-
        Internal
          {
            ikeys;
            children;
            icount = 1;
            itotal = node_total t.root + node_total right;
          };
      charge_write t

(* --- Removal ---------------------------------------------------------- *)

(* [l] without its first element physically equal to [x], or None when
   there is none; the other elements keep their order. *)
let remove_first x l =
  let rec go acc = function
    | [] -> None
    | y :: tl -> if y == x then Some (List.rev_append acc tl) else go (y :: acc) tl
  in
  go [] l

(* Remove one posting, descending like an insertion.  Nodes are never
   merged or rebalanced: a leaf may shrink to no keys at all, which the
   invariants allow (there is no minimum fill) and the range walk steps
   over.  Subtree totals are decremented only along a path that actually
   lost a posting. *)
let rec remove_node t node k v =
  charge_read t;
  match node with
  | Leaf leaf -> (
      let pos = lower_bound leaf.lkeys leaf.lcount k in
      if pos >= leaf.lcount || leaf.lkeys.(pos) <> k then false
      else
        match remove_first v leaf.lvals.(pos) with
        | None -> false
        | Some rest ->
            (match rest with
            | [] ->
                (* the key's last posting: drop its slot *)
                let tail = leaf.lcount - pos - 1 in
                Array.blit leaf.lkeys (pos + 1) leaf.lkeys pos tail;
                Array.blit leaf.lvals (pos + 1) leaf.lvals pos tail;
                Array.blit leaf.lcounts (pos + 1) leaf.lcounts pos tail;
                leaf.lcount <- leaf.lcount - 1;
                leaf.lvals.(leaf.lcount) <- []
            | _ ->
                leaf.lvals.(pos) <- rest;
                leaf.lcounts.(pos) <- leaf.lcounts.(pos) - 1);
            leaf.ltotal <- leaf.ltotal - 1;
            charge_write t;
            true)
  | Internal inode ->
      let removed =
        remove_node t inode.children.(child_index inode.ikeys inode.icount k) k v
      in
      if removed then inode.itotal <- inode.itotal - 1;
      removed

let remove t k v = if remove_node t t.root k v then t.cardinal <- t.cardinal - 1

(* --- Lookup ----------------------------------------------------------- *)

let rec find_leaf t node k =
  charge_read t;
  match node with
  | Leaf leaf -> leaf
  | Internal inode ->
      find_leaf t inode.children.(child_index inode.ikeys inode.icount k) k

let find t k =
  let leaf = find_leaf t t.root k in
  let pos = lower_bound leaf.lkeys leaf.lcount k in
  if pos < leaf.lcount && leaf.lkeys.(pos) = k then List.rev leaf.lvals.(pos)
  else []

(* Inclusive range scan [lo, hi]; results in key order, each key's
   postings in insertion order.  Walks the linked leaves, one read per
   leaf page. *)
let range t ~lo ~hi =
  if lo > hi then []
  else begin
    let leaf = find_leaf t t.root lo in
    let acc = ref [] in
    let rec walk leaf =
      let start = lower_bound leaf.lkeys leaf.lcount lo in
      let stop = ref start in
      while !stop < leaf.lcount && leaf.lkeys.(!stop) <= hi do
        acc := (leaf.lkeys.(!stop), List.rev leaf.lvals.(!stop)) :: !acc;
        incr stop
      done;
      if !stop = leaf.lcount then
        match leaf.next with
        (* a leaf emptied by [remove] is stepped over, not a stop *)
        | Some nxt when nxt.lcount = 0 || nxt.lkeys.(0) <= hi ->
            charge_read t;
            walk nxt
        | Some _ | None -> ()
    in
    walk leaf;
    List.rev !acc
  end

(* Postings with key <= k, from the maintained subtree totals and
   per-key counts: one root-to-leaf descent, each visited node charged
   as a read, children left of the descent path contributing their
   totals wholesale. *)
let count_le t k =
  let rec go node =
    charge_read t;
    match node with
    | Leaf leaf ->
        let n = ref 0 in
        let i = ref 0 in
        while !i < leaf.lcount && leaf.lkeys.(!i) <= k do
          n := !n + leaf.lcounts.(!i);
          incr i
        done;
        !n
    | Internal inode ->
        let ci = child_index inode.ikeys inode.icount k in
        let n = ref 0 in
        for i = 0 to ci - 1 do
          n := !n + node_total inode.children.(i)
        done;
        !n + go inode.children.(ci)
  in
  go t.root

(* Cardinality of [range ~lo ~hi] without materializing the postings:
   O(log n) page reads (two boundary descents; none for the full-key
   range, which is the maintained cardinal). *)
let count_range t ~lo ~hi =
  if lo > hi then 0
  else if lo = min_int && hi = max_int then t.cardinal
  else if lo = min_int then count_le t hi
  else count_le t hi - count_le t (lo - 1)

let fold_all f init t =
  (* Descend to the leftmost leaf, then follow the chain. *)
  let rec leftmost = function
    | Leaf l -> l
    | Internal i -> leftmost i.children.(0)
  in
  let rec walk acc leaf =
    let acc = ref acc in
    for i = 0 to leaf.lcount - 1 do
      acc := f !acc leaf.lkeys.(i) (List.rev leaf.lvals.(i))
    done;
    match leaf.next with Some nxt -> walk !acc nxt | None -> !acc
  in
  walk init (leftmost t.root)

(* Structural invariants, exercised by the property tests. *)
let rec check_node node ~lo ~hi ~depth =
  match node with
  | Leaf leaf ->
      for i = 0 to leaf.lcount - 2 do
        assert (leaf.lkeys.(i) < leaf.lkeys.(i + 1))
      done;
      for i = 0 to leaf.lcount - 1 do
        (match lo with Some l -> assert (leaf.lkeys.(i) >= l) | None -> ());
        (match hi with Some h -> assert (leaf.lkeys.(i) < h) | None -> ());
        assert (leaf.lcounts.(i) = List.length leaf.lvals.(i))
      done;
      assert (leaf.ltotal = leaf_total leaf);
      depth
  | Internal inode ->
      assert (inode.icount >= 1);
      assert (inode.itotal = children_total inode);
      for i = 0 to inode.icount - 2 do
        assert (inode.ikeys.(i) < inode.ikeys.(i + 1))
      done;
      let depths =
        List.init (inode.icount + 1) (fun i ->
            let lo' = if i = 0 then lo else Some inode.ikeys.(i - 1) in
            let hi' = if i = inode.icount then hi else Some inode.ikeys.(i) in
            check_node inode.children.(i) ~lo:lo' ~hi:hi' ~depth:(depth + 1))
      in
      (match depths with
      | d :: rest -> List.iter (fun d' -> assert (d = d')) rest
      | [] -> ());
      List.hd depths

let check_invariants t = ignore (check_node t.root ~lo:None ~hi:None ~depth:0)
