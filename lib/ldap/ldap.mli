(** The LDAP query language as formalized by the paper (Sections 4.2 and
    8.1): a {e single} base dn, a {e single} scope, and boolean
    combinations of atomic {e filters} (not whole queries) — "the one
    material difference" from L0.

    Also the Theorem 8.1 translations: every LDAP query is expressible
    in L0 ({!to_l0}), and an L0 query collapses to a single LDAP query
    exactly when all its atomic sub-queries share one base and scope
    ({!of_l0}). *)

type filter =
  | F_atom of Afilter.t
  | F_and of filter list
  | F_or of filter list
  | F_not of filter

type query = { base : Dn.t; scope : Ast.scope; filter : filter }

val matches : filter -> Entry.t -> bool

val in_scope : query -> Entry.t -> bool

val eval : Instance.t -> query -> Entry.t list
(** Reference evaluation (mirrors Definition 4.1), in canonical order. *)

val eval_indexed : Dn_index.t -> query -> Entry.t Ext_list.Source.src
(** One accounted scan of the base's scope range, its hits flowing out
    as a live source. *)

val to_l0 : query -> Ast.t
(** Theorem 8.1 (LDAP <= L0): push the filter's boolean structure to
    query level, with set difference against the whole-scope query for
    negation.  Property-tested to preserve semantics. *)

val of_l0 : Ast.t -> query option
(** Partial inverse: [None] when the query uses several bases/scopes or
    any non-L0 operator. *)

exception Parse_error of string

val filter_to_string : filter -> string
(** RFC 2254 style, e.g. [(&(objectClass=person)(priority<=3))]. *)

val to_string : query -> string
(** LDAP URL style: [ldap:///<base>?<scope>?<filter>]. *)

val filter_of_string : ?schema:Schema.t -> string -> filter
val of_string : ?schema:Schema.t -> string -> query
