(* Character tries for string-attribute filters.

   Section 4.1 evaluates wildcard string filters "with the help of trie
   and suffix tree indices".  [Str_trie] is a plain payload-carrying trie
   supporting exact and prefix lookups; [Substr] (below) layers a suffix
   trie on top so that an arbitrary substring query [*mid*] becomes a
   prefix walk.  Node visits are charged as page reads. *)

type 'a node = {
  children : (char, 'a node) Hashtbl.t;
  mutable terminal : 'a list;  (* payloads of strings ending here *)
  mutable subtree_count : int;  (* payloads stored at or below this node *)
}

type 'a t = { pager : Pager.t; root : 'a node; mutable size : int }

let fresh_node () =
  { children = Hashtbl.create 4; terminal = []; subtree_count = 0 }
let create pager = { pager; root = fresh_node (); size = 0 }
let size t = t.size
let charge_read t = Io_stats.read_page (Pager.stats t.pager)
let charge_write t = Io_stats.write_page (Pager.stats t.pager)

let add t s payload =
  let rec walk node i =
    node.subtree_count <- node.subtree_count + 1;
    if i = String.length s then node.terminal <- payload :: node.terminal
    else
      let c = s.[i] in
      let child =
        match Hashtbl.find_opt node.children c with
        | Some n -> n
        | None ->
            let n = fresh_node () in
            Hashtbl.replace node.children c n;
            n
      in
      walk child (i + 1)
  in
  walk t.root 0;
  t.size <- t.size + 1;
  charge_write t

(* [l] without its first element physically equal to [x], or None. *)
let remove_first x l =
  let rec go acc = function
    | [] -> None
    | y :: tl -> if y == x then Some (List.rev_append acc tl) else go (y :: acc) tl
  in
  go [] l

(* Remove one payload of [s] (physical equality), if there is one.
   Counts drop along the walked path and a child whose count reaches 0
   is unlinked, so the node set — and with it every probe's reads and
   counts — is the one a fresh build of the survivors has. *)
let remove t s payload =
  let rec walk node i =
    let removed =
      if i = String.length s then
        match remove_first payload node.terminal with
        | Some rest ->
            node.terminal <- rest;
            true
        | None -> false
      else
        let c = s.[i] in
        match Hashtbl.find_opt node.children c with
        | None -> false
        | Some child ->
            let removed = walk child (i + 1) in
            if removed && child.subtree_count = 0 then Hashtbl.remove node.children c;
            removed
    in
    if removed then node.subtree_count <- node.subtree_count - 1;
    removed
  in
  if walk t.root 0 then begin
    t.size <- t.size - 1;
    charge_write t
  end

(* Locate the node reached by walking [s]; charges one read per step. *)
let descend t s =
  let rec walk node i =
    if i = String.length s then Some node
    else begin
      charge_read t;
      match Hashtbl.find_opt node.children s.[i] with
      | Some child -> walk child (i + 1)
      | None -> None
    end
  in
  walk t.root 0

let find_exact t s =
  match descend t s with Some n -> List.rev n.terminal | None -> []

(* Cardinality probes: the descent is charged like a lookup's, but the
   answer comes off the maintained subtree counters instead of a
   subtree collection — O(|s|) page reads however many strings match.
   A node's own payloads are its count less its children's, so the exact
   count never walks the terminal list. *)
let count_exact t s =
  match descend t s with
  | Some n -> Hashtbl.fold (fun _ c k -> k - c.subtree_count) n.children n.subtree_count
  | None -> 0

let count_prefix t s =
  match descend t s with Some n -> n.subtree_count | None -> 0

(* All payloads of strings with prefix [s] (the subtree below the walk). *)
let find_prefix t s =
  match descend t s with
  | None -> []
  | Some start ->
      let acc = ref [] in
      let rec collect node =
        charge_read t;
        List.iter (fun p -> acc := p :: !acc) node.terminal;
        Hashtbl.iter (fun _ child -> collect child) node.children
      in
      collect start;
      List.rev !acc

(* --- Substring (suffix-trie) index ------------------------------------ *)

module Substr = struct
  (* A suffix trie: every suffix of every indexed string is inserted, so
     the strings containing [sub] are exactly those with a suffix having
     prefix [sub].  Quadratic space in string length — acceptable for
     directory attribute values, which are short.  Payloads are deduped
     on query (the same string matches once however many suffixes hit). *)

  type nonrec 'a t = { trie : 'a t; mutable count : int }

  let create pager = { trie = create pager; count = 0 }

  (* Every suffix of [s], the empty one included so [*] style scans see
     the string. *)
  let iter_suffixes f s =
    for i = 0 to String.length s - 1 do
      f (String.sub s i (String.length s - i))
    done;
    f ""

  let add t s payload =
    iter_suffixes (fun suf -> add t.trie suf payload) s;
    t.count <- t.count + 1

  (* Indexed strings with [payload] that end in [s], with multiplicity:
     each one puts its suffix [s] into that node's terminal once. *)
  let ending_in t s payload =
    match descend t.trie s with
    | None -> 0
    | Some n -> List.fold_left (fun k p -> if p == payload then k + 1 else k) 0 n.terminal

  (* A suffix node cannot tell a whole string from the tail of a longer
     one, but each longer string ending in [s] ends in exactly one
     [c ^ s]: [s] was added whole with [payload] iff more such strings
     end in [s] than in all the [c ^ s] together. *)
  let added t s payload =
    let longer =
      Hashtbl.fold
        (fun c _ k -> k + ending_in t (String.make 1 c ^ s) payload)
        t.trie.root.children 0
    in
    ending_in t s payload > longer

  let remove t s payload =
    if added t s payload then begin
      iter_suffixes (fun suf -> remove t.trie suf payload) s;
      t.count <- t.count - 1
    end

  let find_substring t sub =
    let hits = find_prefix t.trie sub in
    (* Preserve first-hit order while deduping physical payloads. *)
    let seen = Hashtbl.create 16 in
    List.filter
      (fun p ->
        let k = Hashtbl.hash p in
        let dup =
          match Hashtbl.find_opt seen k with
          | Some ps -> List.memq p ps
          | None -> false
        in
        if dup then false
        else begin
          Hashtbl.replace seen k
            (p :: Option.value ~default:[] (Hashtbl.find_opt seen k));
          true
        end)
      hits

  let count t = t.count

  (* Suffix occurrences of [sub] across the indexed strings: an upper
     bound on [find_substring]'s cardinality (a string containing [sub]
     k times is counted k times; the lookup dedups).  O(|sub|) reads. *)
  let count_substring t sub = count_prefix t.trie sub
end
