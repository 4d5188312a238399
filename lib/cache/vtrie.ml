(* A version trie over the dn hierarchy, for footprint-precise cache
   invalidation.

   Nodes mirror the namespace: the path to the node for [dn] is the
   root-first list of [dn]'s rdn's (the same root-first order as
   [Dn.rev_key], so a subtree is exactly the set of paths extending its
   root's path).  Two counters live on each node:

   - [version] counts updates *at or below* the node.  A single-entry
     update at [d] bumps it on every node along root..d — those nodes
     are precisely the ones whose subtree contains [d].
   - [deep] counts subtree-wide updates *rooted at* the node (subtree
     deletion, subtree rename): every dn below is potentially touched,
     including dns whose trie nodes don't exist.

   The stamp of a base [b] is [version(b)] plus the sum of [deep] along
   root..b: it advances iff some update could have touched an entry in
   subtree(b).  Missing nodes contribute zero, so stamps are stable
   under trie growth.  [epoch] counts every update and stamps
   whole-instance footprints.

   Children are keyed by the rdn values themselves (normalized, so
   structural equality is rdn equality), never by printed rdn's: a
   stamp is read on every cache lookup and allocates nothing. *)

type node = {
  mutable version : int;  (* updates at or below this node *)
  mutable deep : int;  (* subtree-wide updates rooted here *)
  parent : node option;  (* [None] at the root *)
  depth : int;  (* rdn's on the path from the root *)
  children : (Rdn.t, node) Hashtbl.t;
}

type t = { root : node; mutable epoch : int }

let make_node parent depth =
  { version = 0; deep = 0; parent; depth; children = Hashtbl.create 4 }

let create () = { root = make_node None 0; epoch = 0 }
let epoch t = t.epoch

(* A Dn.t lists its rdn's most specific first, so the root-first walks
   recurse to the root before descending. *)
let rec node_of t = function
  | [] -> t.root
  | rdn :: up -> (
      let p = node_of t up in
      match Hashtbl.find p.children rdn with
      | n -> n
      | exception Not_found ->
          let n = make_node (Some p) (p.depth + 1) in
          Hashtbl.add p.children rdn n;
          n)

let rec bump_up n =
  n.version <- n.version + 1;
  match n.parent with Some p -> bump_up p | None -> ()

let bump ?(subtree = false) t dn =
  t.epoch <- t.epoch + 1;
  let n = node_of t dn in
  if subtree then n.deep <- n.deep + 1;
  bump_up n

(* Coarse fallback: invalidate every stamp (all paths cross the root). *)
let bump_all t =
  t.epoch <- t.epoch + 1;
  t.root.version <- t.root.version + 1;
  t.root.deep <- t.root.deep + 1

(* The node of [dn], [d] rdn's deep, or, when the trie has none, that of
   its deepest ancestor that has one. *)
let rec locate t d = function
  | [] -> t.root
  | rdn :: up -> (
      let p = locate t (d - 1) up in
      if p.depth < d - 1 then p
      else match Hashtbl.find p.children rdn with n -> n | exception Not_found -> p)

let rec deep_sum acc n =
  let acc = acc + n.deep in
  match n.parent with Some p -> deep_sum acc p | None -> acc

let stamp t dn =
  let d = Dn.depth dn in
  let n = locate t d dn in
  deep_sum (if n.depth = d then n.version else 0) n

let node_count t =
  let rec go node =
    Hashtbl.fold (fun _ child n -> n + go child) node.children 1
  in
  go t.root
