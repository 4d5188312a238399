(** Attribute values (Section 3.1).

    The type set [T] contains [string], [int] and the complex type
    [distinguishedName], whose domain is sequences of sets of
    (attribute, value) pairs — mutually recursive with values, so the
    representation of all three lives here; {!Rdn} and {!Dn} provide
    the operations. *)

type t = Str of string | Int of int | Dn of dn

and dn = rdn list
(** A distinguished name: rdn's most-specific-first (LDAP convention);
    the parent of [rdn :: rest] is [rest]. *)

and rdn = (string * t) list
(** A relative distinguished name: a non-empty, sorted, duplicate-free
    set of (attribute, value) pairs. *)

type ty = T_string | T_int | T_dn
(** The three type names of the formal model. *)

val ty_to_string : ty -> string
val type_of : t -> ty

val compare : t -> t -> int
(** Structural total order: ints, then strings, then dn's. *)

val compare_dn : dn -> dn -> int
val compare_rdn : rdn -> rdn -> int
val equal : t -> t -> bool

val escape : string -> string
(** Backslash-escape the dn separator characters [, + = \ ]. *)

val to_string : t -> string
val rdn_to_string : rdn -> string
val dn_to_string : dn -> string
val pp : Format.formatter -> t -> unit

val length : t -> int
(** [String.length (to_string v)], computed without building the
    string: it allocates nothing. *)

val of_string_untyped : string -> t
(** Schema-less reading: all-digit tokens read as ints, anything else
    as strings. *)

val of_string_typed : ty -> string -> (t, string) result
(** Schema-directed reading for [string] and [int]; dn values must go
    through [Dn.of_string]. *)

val as_int : t -> int option
val as_string : t -> string option
val as_dn : t -> dn option
