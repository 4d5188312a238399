(** A mutable directory server state with LDAP-style update operations —
    the read/write side the query languages leave implicit (Section 1's
    "read/write interactive access").

    All mutations revalidate against Definition 3.2 and the structural
    rules (parent must exist, deletion is leaf-only unless subtree
    deletion is requested); a directory can never leave the model. *)

type t

type error =
  | Invalid of Instance.violation
  | No_such_entry of Dn.t
  | Parent_missing of Dn.t
  | Has_children of Dn.t
  | Rdn_would_change of Dn.t
      (** a modify may not remove the rdn's values (Def 3.2(d)(ii)) *)
  | Moved_below_itself of Dn.t
      (** a modify-dn's new superior is the entry or one of its
          descendants *)

val pp_error : Format.formatter -> error -> unit

val create : Instance.t -> t
val of_schema : Schema.t -> t
val instance : t -> Instance.t
val schema : t -> Schema.t
val size : t -> int

val generation : t -> int
(** Bumped on every successful mutation; a result cache uses it as a
    safety net behind its update hooks. *)

type update = { dn : Dn.t; subtree : bool }
(** The locus of a successful mutation: the entry at [dn] changed, and
    when [subtree] the whole subtree below it may have (subtree
    deletion, rename). *)

val on_update : t -> (update -> unit) -> unit
(** Register a hook called after every successful mutation, in
    registration order (result caches use this for footprint-precise
    invalidation).  [modify_dn] notifies both the old and the new
    subtree roots; a rolled-back {!batch} notifies for its successful
    prefix and then conservatively for the whole namespace. *)

val add : ?as_root:bool -> t -> Entry.t -> (unit, error) result
(** Insert a new entry; its parent must exist unless [as_root]. *)

val delete : ?subtree:bool -> t -> Dn.t -> (unit, error) result
(** Remove an entry; refuses on children unless [subtree]. *)

type modification =
  | Add_value of string * Value.t
  | Delete_value of string * Value.t
  | Delete_attr of string
  | Replace of string * Value.t list

val modify : t -> Dn.t -> modification list -> (unit, error) result
(** Apply attribute modifications in order, then revalidate. *)

val modify_dn :
  ?delete_old_rdn:bool ->
  ?new_superior:Dn.t ->
  t ->
  Dn.t ->
  new_rdn:Rdn.t ->
  (unit, error) result
(** Rename an entry (and implicitly its whole subtree), optionally
    moving it under a new superior; the new rdn's pairs are added to the
    entry's values, the old rdn's dropped when [delete_old_rdn]
    (default).  A new superior equal to or below the entry is refused
    with [Moved_below_itself]. *)

val find : t -> Dn.t -> Entry.t option
val mem : t -> Dn.t -> bool
val validate : t -> Instance.violation list

val batch : t -> (t -> (unit, error) result) list -> (unit, error) result
(** All-or-nothing application of a list of operations. *)
