(** Character tries for string-attribute filters (Section 4.1: "trie and
    suffix tree indices" for wildcard string filters).  Node visits
    charge page reads. *)

type 'a t

val create : Pager.t -> 'a t

val size : 'a t -> int
(** Strings held. *)

val add : 'a t -> string -> 'a -> unit
(** Insert one string with a payload. *)

val remove : 'a t -> string -> 'a -> unit
(** Remove one occurrence of the string with a payload physically equal
    ([==]) to the given one; a no-op when there is none.  Nodes left
    holding nothing are pruned, so lookups, counts and the reads they
    charge are those of a trie built fresh from the remaining strings
    (up to the order of the returned payloads). *)

val find_exact : 'a t -> string -> 'a list
(** Payloads of exactly this string, in insertion order. *)

val find_prefix : 'a t -> string -> 'a list
(** Payloads of all strings with the given prefix. *)

val count_exact : 'a t -> string -> int
(** [List.length (find_exact t s)] without materializing: the descent
    is charged, and the count is the end node's subtree counter less its
    children's, so it never walks the payload list. *)

val count_prefix : 'a t -> string -> int
(** [List.length (find_prefix t s)] without collecting the subtree:
    O(|s|) page reads against maintained subtree counters, instead of
    the lookup's one read per subtree node. *)

(** Substring lookup via a suffix trie: every suffix of every indexed
    string is inserted, so the strings containing [sub] are those with
    a suffix extending [sub].  Payloads are deduplicated on query. *)
module Substr : sig
  type nonrec 'a t

  val create : Pager.t -> 'a t
  val add : 'a t -> string -> 'a -> unit

  val remove : 'a t -> string -> 'a -> unit
  (** Undo one [add] of the string with a physically equal payload: all
      its suffixes leave the trie.  A no-op when the string was never
      added with that payload (even if it occurs inside another string
      that was). *)

  val find_substring : 'a t -> string -> 'a list
  val count : 'a t -> int

  val count_substring : 'a t -> string -> int
  (** Upper bound on [List.length (find_substring t sub)] in O(|sub|)
      page reads: suffix occurrences are counted, so a string containing
      [sub] more than once is counted once per occurrence (the lookup
      dedups; the probe cannot without materializing). *)
end
