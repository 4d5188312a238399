(** Atomic filters (Section 4.1).

    Presence, integer comparison, exact / wildcard string matching and
    dn equality, in RFC-2254-ish concrete syntax.  An entry satisfies a
    filter iff at least one of its (attribute, value) pairs does. *)

type cmp = Lt | Le | Eq | Ge | Gt

type substring = {
  initial : string option;  (** anchored at the start *)
  middles : string list;  (** in order, non-overlapping *)
  final : string option;  (** anchored at the end *)
}
(** An LDAP substring pattern [initial*mid*...*mid*final]. *)

type t =
  | Present of string  (** [a=*] *)
  | Str_eq of string * string  (** [a=v] *)
  | Substr of string * substring  (** [a=*jag*], [a=jag*ish], ... *)
  | Int_cmp of string * cmp * int  (** [a<5], [a>=3], [a=7], ... *)
  | Dn_eq of string * Value.dn  (** [a=dn:<distinguished name>] *)

val attr : t -> string
(** The attribute the filter constrains. *)

val cmp_int : cmp -> int -> int -> bool

val substring_matches : substring -> string -> bool
(** LDAP substring semantics: components in order, no overlap, initial /
    final anchored.  Compares in place; allocates nothing. *)

val value_matches : t -> Value.t -> bool
(** Does one value satisfy the filter (type-correctly)? *)

val matches : t -> Entry.t -> bool
(** r |= F — Section 4.1's satisfaction relation.  Walks the entry's
    pairs in place and allocates nothing, for every filter form: it runs
    on every entry a scan visits. *)

val cmp_to_string : cmp -> string
val substring_to_string : substring -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

exception Parse_error of string

val of_string : ?schema:Schema.t -> string -> t
(** Parse one filter.  With a [schema], the attribute's declared type
    decides between int / string / dn readings of the right-hand side;
    without one, integer-looking operands read as ints.
    @raise Parse_error on malformed input. *)
