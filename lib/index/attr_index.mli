(** Per-attribute secondary indexes over an instance: B+trees for int
    attributes, exact tries and suffix-trie substring indexes for string
    attributes, an exact trie over reverse keys for dn-valued attributes
    (Section 4.1's index assumption for atomic queries).

    Lookups return candidates in unspecified order; callers re-sort into
    the canonical order. *)

type t

val build : Pager.t -> Instance.t -> t

val add_entry : t -> Entry.t -> unit
(** Index every attribute value of one more entry, in place. *)

val remove_entry : t -> Entry.t -> unit
(** Undo {!add_entry} for an entry physically equal to the one added:
    its postings leave every index, in place, and an attribute index
    left empty is dropped.  Afterwards every lookup and count probe
    answers as a fresh {!build} over the remaining entries would (up to
    candidate order, which is unspecified anyway). *)

val lookup_int_range : t -> string -> lo:int -> hi:int -> Entry.t list option
(** Entries with an int value of the attribute in [lo, hi];
    [Some []] when the attribute has no int values anywhere. *)

val lookup_str_eq : t -> string -> string -> Entry.t list option
val lookup_str_prefix : t -> string -> string -> Entry.t list option
val lookup_substring : t -> string -> string -> Entry.t list option
val lookup_dn_eq : t -> string -> Value.dn -> Entry.t list option

(** {1 Cardinality probes}

    Candidate counts for the matching lookups, without materializing
    the postings: the descent is charged like a lookup's, the
    collection is not — O(log n) for the B-tree, O(|pattern|) for the
    tries.  These are what {!Plan} prices the index access path from.
    [0] when the attribute is not indexed anywhere. *)

val count_int_range : t -> string -> lo:int -> hi:int -> int
val count_str_eq : t -> string -> string -> int
val count_prefix : t -> string -> string -> int

val count_substring : t -> string -> string -> int
(** Upper bound: a value containing the pattern more than once counts
    once per occurrence ({!lookup_substring} dedups on collection). *)

val count_dn_eq : t -> string -> Value.dn -> int
