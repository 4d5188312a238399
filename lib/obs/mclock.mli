(** Nanosecond timestamps for spans and latency histograms, and the
    one allocation meter.

    Backed by [Unix.gettimeofday], clamped to be non-decreasing within
    the process so span durations are never negative. *)

val now_ns : unit -> int
(** Current time in nanoseconds since the epoch (non-decreasing). *)

val pp_ns : Format.formatter -> int -> unit
(** Render a duration with an adaptive unit (ns / us / ms / s). *)

val ns_to_string : int -> string

val allocated_words : unit -> int
(** Words allocated by the process so far, exact to the word and with
    no forced collection ([Gc.minor_words] plus the words allocated
    straight into the major heap), not counting the meter's own
    readings: two readings with nothing between them differ by 0.  A
    span, a journaled query and a bench row all take allocation as a
    difference of two readings. *)

val bytes_of_words : int -> int
(** A word count (such as a difference of two {!allocated_words}
    readings) in bytes. *)
