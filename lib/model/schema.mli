(** Directory schemas (Definition 3.1).

    A schema is the 4-tuple [(C, A, tau, alpha)]: class names, typed
    attributes, and per-class allowed-attribute sets.  Attributes are
    typed independently of classes — the decoupling the paper contrasts
    with relational/OO models. *)

type t

val object_class : string
(** The distinguished ["objectClass"] attribute, present in every
    schema and allowed in every class, typed [string]. *)

val is_identifier : string -> bool
(** Attribute and class names: alphanumerics plus [_ - .]. *)

val empty : unit -> t
(** A schema containing only [objectClass]. *)

val declare_attr : t -> string -> Value.ty -> unit
(** Declare (or re-declare, idempotently) an attribute's type.
    @raise Invalid_argument on a bad name or a conflicting type. *)

val declare_class : t -> string -> string list -> unit
(** Declare a class with its allowed attributes (all previously
    declared); [objectClass] is added implicitly. *)

val attr_type : t -> string -> Value.ty option
val has_class : t -> string -> bool
val allowed_attrs : t -> string -> string list option

val allowed_typed : t -> string -> (string * Value.ty) list option
(** A class's allowed attributes, each with its type. *)

val classes : t -> string list
(** All class names, sorted. *)

val attrs : t -> (string * Value.ty) list
(** All attributes with their types, sorted. *)

val attr_allowed_by : t -> class_names:string list -> string -> bool
(** Definition 3.2(c)1: is the attribute allowed by at least one of the
    classes? *)

val pp : Format.formatter -> t -> unit
