(** A version trie over the dn hierarchy, for footprint-precise cache
    invalidation.

    [stamp t b] advances iff, since it was last read, some update could
    have touched an entry in the subtree below [b]: single-entry
    updates bump a counter on every node along their root-first path,
    subtree-wide updates additionally bump a [deep] counter at their
    root that taxes every stamp below.  Missing nodes contribute zero,
    so stamps are stable as the trie grows lazily. *)

type t

val create : unit -> t

val epoch : t -> int
(** Total updates seen; the stamp of a whole-instance footprint. *)

val bump : ?subtree:bool -> t -> Dn.t -> unit
(** Record an update at [dn]; [subtree] when the whole subtree below it
    may have changed (subtree delete, rename). *)

val bump_all : t -> unit
(** Record an update of unknown locus: every stamp advances. *)

val stamp : t -> Dn.t -> int
(** The current version of the subtree rooted at [dn].  It prints no
    rdn and allocates nothing: the trie is keyed by rdn values. *)

val node_count : t -> int
(** Allocated trie nodes (stats only). *)
