(** Directory instances — the directory information forest
    (Sections 3.2-3.3).

    Entries are keyed by distinguished name; traversal follows the
    canonical reverse-dn order, so subtrees are contiguous.  Queries map
    instances to sub-instances over the same schema, and results can be
    wrapped back into instances ({!of_result}) — the closure property.

    An instance is a persistent weight-balanced tree keyed by
    {!Entry.key}, each node annotated with its subtree's size.  Lookups,
    updates, an entry's {!rank} and the size of any scope cost
    O(log n), so [Dn_index] is a rank view of the instance, not a
    second sorted copy.  Updates share untouched subtrees, which
    {!diff} skips. *)

type t

(** Violations of Definition 3.2, reported by validation. *)
type violation =
  | Duplicate_dn of Dn.t
  | Rdn_not_in_values of Dn.t  (** Def 3.2(d)(ii) *)
  | No_class of Dn.t  (** Def 3.2(b) *)
  | Unknown_class of Dn.t * string
  | Attr_not_allowed of Dn.t * string  (** Def 3.2(c)1 *)
  | Attr_wrong_type of Dn.t * string * Value.ty  (** Def 3.2(c)1 *)
  | Unknown_attr of Dn.t * string

val pp_violation : Format.formatter -> violation -> unit

exception Invalid of violation

val empty : Schema.t -> t
val schema : t -> Schema.t
val size : t -> int
(** Number of entries, in O(1): the root's size. *)

val add : ?validate:bool -> t -> Entry.t -> t
(** Insert a new entry.  @raise Invalid on a Definition 3.2 violation
    or a duplicate dn (validation defaults to on). *)

val replace : ?validate:bool -> t -> Entry.t -> t
(** Insert or overwrite. *)

val remove : t -> Dn.t -> t
(** Remove [dn]'s entry; an absent [dn] returns the instance unchanged. *)

val find : t -> Dn.t -> Entry.t option
val mem : t -> Dn.t -> bool
val of_entries : ?validate:bool -> Schema.t -> Entry.t list -> t

val of_result : t -> Entry.t list -> t
(** Wrap a query result back into an instance over the same schema. *)

val iter : (Entry.t -> unit) -> t -> unit
(** In canonical order. *)

val fold : ('acc -> Entry.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Entry.t list

val rank : t -> string -> int
(** [rank t key]: how many entries sort before [key] in canonical order
    — for an entry's own key, its position in {!to_list}.  O(log n), no
    allocation. *)

(** A base dn resolved in one instance: its key and the ranks
    [\[lo, hi)] of the entries at or below it. *)
type range = private {
  inst : t;  (** the instance the ranks index *)
  base : Dn.t;
  key : string;  (** [Dn.rev_key base], a prefix of every key in range *)
  lo : int;
  hi : int;  (** exclusive *)
}

val resolve : t -> Dn.t -> range
(** Key [base] and find its subtree's rank range: one keying, two rank
    descents, O(log n).  Planning resolves each atomic's base once and
    every scan of its scope reads the result. *)

val fold_range : (Entry.t -> 'acc -> 'acc) -> t -> int * int -> 'acc -> 'acc
(** [fold_range f t (lo, hi) init] folds [f] over the entries of ranks
    [lo] to [hi - 1], such as a {!range}'s, from the last to the first
    (so consing lists them in canonical order): O(log n + k) for k
    entries, no key compared. *)

val subtree : t -> Dn.t -> Entry.t list
(** All entries at or below [base], in canonical order. *)

val subtree_size : t -> Dn.t -> int
(** [List.length (subtree t base)] in O(log n), without building the
    list: the width of the base's {!range}. *)

val diff : t -> t -> removed:(Entry.t -> unit) -> added:(Entry.t -> unit) -> unit
(** [diff old t ~removed ~added] reports each entry of [old] not
    physically in [t] to [removed] and each entry of [t] not physically
    in [old] to [added], both for a replaced entry ([removed] first).
    Shared subtrees are skipped: about O(d log n) after d updates. *)

val valid : t -> bool
(** The tree's invariants: every node's size is its children's plus
    one, and in nodes of three or more entries neither child outweighs
    the other by more than 3x. *)

val roots : t -> Entry.t list
(** Entries whose parent is absent (the forest roots). *)

val validate : t -> violation list
(** All Definition 3.2 violations (empty = well-formed). *)
