(** Nanosecond timestamps for spans and latency histograms, and the
    one allocation meter.

    Backed by [Unix.gettimeofday], clamped to be non-decreasing within
    the process so span durations are never negative. *)

val now_ns : unit -> int
(** Current time in nanoseconds since the epoch (non-decreasing). *)

val pp_ns : Format.formatter -> int -> unit
(** Render a duration with an adaptive unit (ns / us / ms / s). *)

val ns_to_string : int -> string

val allocated_words : unit -> float
(** Words allocated by the process so far, exact to the word and with
    no forced collection ([Gc.minor_words] plus the words allocated
    straight into the major heap).  A span, a journaled query and a
    bench row all take allocation as a difference of two readings. *)

val bytes_of_words : float -> int
(** A word count (such as a difference of two {!allocated_words}
    readings) in bytes. *)
