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

(** {1 Probes}

    What an indexed atomic filter asks of the index, built once from the
    filter and then counted (planning) and looked up (execution). *)

type probe =
  | Int_range of string * int * int  (** int values of the attribute in [\[lo, hi\]] *)
  | Exact of string * string  (** a string value *)
  | Prefix of string * string  (** string values with this prefix *)
  | Substring of string * string  (** string values containing this *)
  | Ref of string * string  (** references to the dn with this {!Entry.ref_key} *)

val probe : Afilter.t -> probe option
(** The probe that answers a filter: the closed int range of a
    comparison, the exact string, the longest component of a substring
    pattern (ties prefer the anchored initial one, whose exact-trie walk
    is cheaper), or the referenced dn's key, keyed here once.  [None]
    for a presence filter or a bare [*]. *)

val lookup : t -> probe -> Entry.t list
(** The candidates, in unspecified order (callers re-sort into the
    canonical one); [\[\]] when the attribute is not indexed. *)

val count : t -> probe -> int
(** [List.length (lookup t p)] without materializing the postings —
    except for [Substring], where it is an upper bound (a value holding
    the pattern twice counts twice; {!lookup} dedups).  The descent is
    charged like a lookup's, the collection is not: O(log n) for the
    B-tree, O(|pattern|) for the tries.  This is what {!Plan} prices the
    index access path from.  [0] when the attribute is not indexed. *)
