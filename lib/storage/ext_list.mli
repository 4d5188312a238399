(** Simulated disk-resident record lists.

    Contents live in memory, but every access path charges page
    transfers to the list's pager exactly as a real external-memory
    implementation would: sequential scans read one page per [B]
    records, writers write one page per [B] records.  All operator
    algorithms consume and produce values of this type. *)

type 'a t

val of_array_resident : Pager.t -> 'a array -> 'a t
(** A list already on disk (a base relation): creation charges
    nothing; scans of it charge normally. *)

val of_list_resident : Pager.t -> 'a list -> 'a t

val materialize : Pager.t -> 'a array -> 'a t
(** Write fresh output to disk: charges [pages_of n] page writes. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val pager : 'a t -> Pager.t

val pages : 'a t -> int
(** Pages occupied under the list's blocking factor. *)

val unsafe_get : 'a t -> int -> 'a
(** Raw unaccounted access — tests and result extraction only. *)

val to_list : 'a t -> 'a list
(** Unaccounted conversion, for result extraction. *)

val to_array : 'a t -> 'a array

(** Sequential read cursors; a page is charged the first time any of
    its records is touched. *)
module Cursor : sig
  type 'a cur

  val make : 'a t -> 'a cur

  val peek : 'a cur -> 'a option
  (** The current record (faults its page in), or [None] at the end. *)

  val advance : 'a cur -> unit
  (** Move past the current record. *)

  val next : 'a cur -> 'a option
  (** [peek] then [advance]. *)

  val at_end : 'a cur -> bool
end

(** Page-buffered output writers: one page write per [B] records pushed,
    plus one for the final partial page on [close]. *)
module Writer : sig
  type 'a w

  val make : Pager.t -> 'a w
  val push : 'a w -> 'a -> unit

  val close : 'a w -> 'a t
  (** Flush and return the written list. *)

  val count : 'a w -> int
  (** Records pushed so far. *)
end

(** Pull-based sorted record streams — the streaming executor's edge
    type, unifying "accounted cursor over a resident list" and "live
    operator output" (free pulls: the producer hands pages straight to
    the consumer, Thm 8.3's pipelining). *)
module Source : sig
  type 'a src

  val of_list : 'a t -> 'a src
  (** Stream a resident list; pulls charge page reads like a scan. *)

  val of_array : 'a array -> 'a src
  (** Live operator output: pulls charge nothing. *)

  val length : 'a src -> int
  (** Total records of the stream (consumed included). *)

  val peek : 'a src -> 'a option

  val at_end : 'a src -> bool
  (** No record left to pull. *)

  val head : 'a src -> 'a
  (** {!peek} without the option, for a source not {!at_end}: the
      stack sweeps' merge reads its heads allocation-free. *)

  val advance : 'a src -> unit
  val next : 'a src -> 'a option
  val iter : ('a -> unit) -> 'a src -> unit

  val unsafe_get : 'a src -> int -> 'a
  (** The [i]th record of the whole stream, pulled or not: raw
      unaccounted access, like the list's {!unsafe_get}. *)

  val drain : 'a src -> 'a array
  (** Remaining records as an array; charges only the pulls. *)

  val materialize : Pager.t -> 'a src -> 'a t
  (** Write the stream out as a fresh resident list (charged). *)

  val force : Pager.t -> 'a src -> 'a t
  (** A resident list for an operand consumed more than once: an
      untouched list-backed source unwraps free, a live stream is
      {!materialize}d (the double-consumption exception). *)
end

val iter : ('a -> unit) -> 'a t -> unit
(** Accounted sequential scan. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val filter : ('a -> bool) -> 'a t -> 'a t
(** Accounted scan + write of the matching records. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val is_sorted : ('a -> 'a -> int) -> 'a t -> bool
(** Order check without I/O charge (assertion helper). *)
