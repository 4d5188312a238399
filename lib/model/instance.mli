(** Directory instances — the directory information forest
    (Sections 3.2-3.3).

    Entries are keyed by distinguished name; traversal follows the
    canonical reverse-dn order, so subtrees are contiguous.  Queries map
    instances to sub-instances over the same schema, and results can be
    wrapped back into instances ({!of_result}) — the closure property. *)

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
(** Number of entries, in O(1): kept by every update. *)

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

val subtree : t -> Dn.t -> Entry.t list
(** All entries at or below [base], in canonical order: the key range
    {!subtree_size} counts, listed at two list cells (48 B) per entry. *)

val subtree_size : t -> Dn.t -> int
(** [List.length (subtree t base)] without building the list: O(1) at
    {!Dn.root}; otherwise two map splits cut the key range out, with
    O(log n) allocation (about 3 KB at 64k entries), and the k entries
    inside are counted in place at about 5 ns each (karily instances of
    1k-64k entries, 2-vCPU x86-64 VM). *)

val children : t -> Dn.t -> Entry.t list
(** [base] (if present) plus its children — the [one] scope. *)

val roots : t -> Entry.t list
(** Entries whose parent is absent (the forest roots). *)

val validate : t -> violation list
(** All Definition 3.2 violations (empty = well-formed). *)

val to_ext_list : Pager.t -> t -> Entry.t Ext_list.t
(** The instance as a disk-resident sorted list (no creation charge). *)

val subtree_ext_list : Pager.t -> t -> Dn.t -> Entry.t Ext_list.t
