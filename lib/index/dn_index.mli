(** The clustering index on reverse-dn keys.

    The entries of an instance sorted by reverse-dn key on pages: because
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

val instance : t -> Instance.t
(** The instance the index is a view of: resolve bases in it
    ({!Instance.resolve}) to {!scan} them. *)

val scan :
  ?keep:(Entry.t -> bool) -> t -> Ast.scope -> Instance.range -> Entry.t Ext_list.Source.src
(** One scope of a resolved base, in canonical order, its entries kept
    by [keep] flowing out as a live source (the leaf of a pipelined
    plan, Section 8.2): [base] charges the descent, [one] and [sub] the
    descent plus a sequential read of the range's pages, which [one]
    filters to the base and its children.  No key is built or compared
    beyond the range.  [Ext_list.Source.materialize] writes it.
    @raise Invalid_argument on a range resolved in another instance. *)
