(** The clustering index on reverse-dn keys.

    The entries of an instance sorted by [Dn.rev_key] on pages: because
    an ancestor's key is a prefix of each descendant's, the three LDAP
    scopes are key-range operations, and atomic queries come out in the
    canonical order the whole pipeline needs (Section 8.2).

    The index is a rank view of one instance, holding no copy of its
    entries: the entry of rank r ({!Instance.rank}) sits on page r / B.
    A range is found in O(log n) and its k entries read in
    O(log n + k). *)

type t

val build : ?pool:Buffer_pool.t -> Pager.t -> Instance.t -> t
(** Lay the instance out as a sorted entry file (charges the one-time
    construction write); the charge is all the work, O(1).  With a
    [pool], scans read entry pages through the cache — hits are free. *)

val length : t -> int

val find : t -> Dn.t -> Entry.t option
(** Point lookup; charges a B-tree-like descent. *)

val subtree_range : t -> Dn.t -> int * int
(** Rank range [(lo, hi)], [hi] exclusive, of the subtree rooted at the
    base. *)

val scan_subtree : ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.t
(** The [sub] scope: descent + sequential read of the subtree range,
    filtered through [keep], output written through a standard writer. *)

val scan_children : ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.t
(** The [one] scope (base entry plus its children). *)

val scan_base : ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.t
(** The [base] scope. *)

val scan_subtree_src :
  ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.Source.src
(** Streaming [sub] scope: same descent and range-read charges, but the
    kept entries flow out as a live source instead of being written —
    the leaf of a pipelined plan (Section 8.2). *)

val scan_children_src :
  ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.Source.src

val scan_base_src :
  ?keep:(Entry.t -> bool) -> t -> Dn.t -> Entry.t Ext_list.Source.src
