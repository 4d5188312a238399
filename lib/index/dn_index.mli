(** The clustering index on reverse-dn keys.

    The entries of an instance sorted by [Dn.rev_key] on pages: because
    an ancestor's key is a prefix of each descendant's, the three LDAP
    scopes are key-range operations, and atomic queries come out in the
    canonical order the whole pipeline needs (Section 8.2). *)

type t

val build : ?pool:Buffer_pool.t -> Pager.t -> Instance.t -> t
(** Lay the instance out as a sorted entry file (charges the one-time
    construction write).  With a [pool], scans read entry pages through
    the cache — hits are free. *)

val of_sorted_array : ?pool:Buffer_pool.t -> Pager.t -> Entry.t array -> t
val length : t -> int

val find : t -> Dn.t -> Entry.t option
(** Point lookup; charges a B-tree-like descent. *)

val subtree_range : t -> Dn.t -> int * int
(** Index range [lo, hi) of the subtree rooted at the base. *)

val sync :
  t ->
  Dn.t ->
  subtree:bool ->
  Entry.t list ->
  removed:(Entry.t -> unit) ->
  added:(Entry.t -> unit) ->
  t
(** [sync t dn ~subtree fresh ~removed ~added] brings the range of [dn]
    (its own slot, or its whole subtree when [subtree]) to [fresh], the
    range's current entries in canonical order.  A merge diff skips
    physically equal entries, reports each other old entry to [removed]
    and each other new one to [added] (a replaced entry to both), and
    returns [t] itself when nothing differed.  Otherwise the result is a
    new index with the range spliced in by pointer copy; [t] is left as
    it was. *)

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
