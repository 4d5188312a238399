(** An in-memory B+tree over int keys with multiset postings, charged
    through the external-memory cost model (one page read per node
    visited, one write per node modified).

    The index Section 4.1 assumes for integer atomic filters.  Keys map
    to posting lists (duplicate keys accumulate in insertion order);
    leaves are linked for range scans. *)

type 'a t

val create : ?order:int -> Pager.t -> 'a t
(** A fresh tree holding at most [2 * order] keys per node (default
    order 16).  @raise Invalid_argument if [order < 2]. *)

val cardinal : 'a t -> int
(** Total postings inserted. *)

val insert : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> 'a -> unit
(** Remove one posting of the key physically equal ([==]) to the given
    value; a no-op when there is none.  A key whose last posting goes
    loses its slot.  Nodes are not merged or rebalanced, so a leaf may
    end up empty: counts, lookups and the invariants stay exact, only
    the page count stays at its high-water mark. *)

val find : 'a t -> int -> 'a list
(** Postings of one key, in insertion order ([[]] if absent). *)

val range : 'a t -> lo:int -> hi:int -> (int * 'a list) list
(** Inclusive range scan in key order, walking the leaf chain. *)

val count_range : 'a t -> lo:int -> hi:int -> int
(** Cardinality of [range ~lo ~hi] without materializing the postings:
    maintained subtree totals and per-key posting counts make it
    O(log n) page reads and time, however many postings a key holds (at
    most two boundary descents; zero for the unbounded range). *)

val fold_all : ('acc -> int -> 'a list -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over all keys in order (unaccounted; used by tests). *)

val check_invariants : 'a t -> unit
(** Assert key ordering, separator bounds, uniform depth and the
    maintained totals and per-key counts. *)
