(** Chrome trace-event (catapult) export of {!Trace} span trees, for
    chrome://tracing, Perfetto or speedscope.

    One pid for the process, one tid lane per actor (coordinator,
    answering servers), "thread_name" metadata events labeling the
    lanes, and one complete ("X") event per span with microsecond
    [ts]/[dur] and the span's trace id, I/O delta and row annotation in
    [args]. *)

val to_string : Trace.span list -> string
(** The full trace-event document ([{"traceEvents": [...], ...}]). *)
