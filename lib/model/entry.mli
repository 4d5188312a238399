(** Directory entries (Definition 3.2).

    An entry is its distinguished name plus a set of (attribute, value)
    pairs; several pairs may share an attribute (multi-valued
    attributes, footnote 2).  Its classes are derived from the values of
    [objectClass] (Definition 3.2(c)2).  The reverse-dn sort key, the
    reverse key of every dn the entry references and the entry's byte
    size are computed once in {!make} and cached. *)

type t

val make : Dn.t -> (string * Value.t) list -> t
(** Build an entry; duplicate pairs collapse (val(r) is a set). *)

val relocate : t -> key:string -> ref_key:(string -> string) -> t
(** [relocate e ~key ~ref_key] is [e] copied into fresh blocks, so that
    entries relocated one after another lie together in memory: the
    record, the pair list, its pairs and value blocks, and the
    reference cells.  It stores [key], which must equal {!key}[ e], and
    [ref_key k] for each cached reference key [k], which must equal
    [k], and keeps {!byte_size}[ e].  The dn, the attribute names and
    the strings inside values stay shared. *)

val dn : t -> Dn.t
val attrs : t -> (string * Value.t) list

val key : t -> string
(** The cached [Dn.rev_key]. *)

val rdn : t -> Rdn.t option

val values : t -> string -> Value.t list
(** All values of one attribute. *)

val value : t -> string -> Value.t option
val has_attr : t -> string -> bool
val has_pair : t -> string -> Value.t -> bool
val int_values : t -> string -> int list
val string_values : t -> string -> string list
val dn_values : t -> string -> Value.dn list

val ref_keys : t -> string -> (string -> unit) -> unit
(** [ref_keys e a f] calls [f] on the cached [Dn.rev_key] of each of
    [e]'s dn values of [a], in {!dn_values} order; it allocates
    nothing.  A key is fixed when the entry is made: renaming the
    referenced entry changes neither it nor the {!dn_values}. *)

val ref_key : Dn.t -> string
(** The key a reference to a dn is cached under ({!ref_keys}) and a
    dn-valued attribute index posts it under: [Dn.rev_key]. *)

val classes : t -> string list
(** The values of [objectClass]. *)

val has_class : t -> string -> bool

val compare_rev : t -> t -> int
(** The canonical evaluation order (reverse-dn lexicographic). *)

val equal_dn : t -> t -> bool

val is_parent_of : parent:t -> child:t -> bool
val is_ancestor_of : ancestor:t -> descendant:t -> bool

val key_is_prefix : prefix:string -> string -> bool
(** Byte-prefix test on cached keys, compared in place (no allocation). *)

val key_ancestor_of : ancestor:t -> descendant:t -> bool
(** Proper-ancestor test in O(key length), used in the algorithm hot
    loops. *)

val key_parent_of : parent:t -> child:t -> bool

val byte_size : t -> int
(** Approximate serialized size, for result-cache and shipping
    accounting: [String.length (key e) + 16] plus, per pair [(a, v)],
    [String.length a + String.length (Value.to_string v) + 2].  Cached
    by {!make}: reading it is a field load. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
