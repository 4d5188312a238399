(** Per-query span tracing.

    Spans nest through dynamic extent: a span opened while another is
    active becomes its child, so one traced query yields a span tree
    (parse → plan → per-operator execute → remote ships).  Each span
    carries wall-clock nanoseconds and, when an [Io_stats] sink is
    given, the inclusive I/O delta charged to that sink while the span
    was open.  For distributed stitching, every span records a trace id
    (minted at the root, inherited by children, overridable with
    {!with_trace_id}) and the actor that did the work
    ({!with_actor}).  This module only records: the caller takes the
    completed tree from {!with_span_out}, and [Tail] is the one store
    that retains trees.  Off by default; one branch per instrumentation
    point when off.

    Thread-safe: the ambient state (open-span stack, bound trace id and
    actor) is per thread, so concurrent serving workers each build
    their own span tree with their own trace id; the shared id stream
    sits behind one mutex. *)

type span = {
  name : string;
  detail : string;
  trace_id : string;  (** shared by every span of one query tree *)
  actor : string;  (** "" = the local process; server name when shipped *)
  start_ns : int;  (** {!Mclock} reading when the span opened *)
  mutable elapsed_ns : int;
  mutable io : Io_stats.t;  (** I/O delta while the span was open *)
  mutable alloc_bytes : int;
      (** bytes allocated while the span was open ({!Mclock.allocated_words}
          delta) — inclusive of children, like the io delta *)
  mutable rows : int option;  (** result cardinality, when annotated *)
  mutable children : span list;  (** in execution order *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : ?detail:string -> ?stats:Io_stats.t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name].  When tracing is off this
    is just an application.  The span closes even if the thunk raises. *)

val with_span_out :
  ?detail:string -> ?stats:Io_stats.t -> string -> (unit -> 'a) -> 'a * span option
(** Like {!with_span}, additionally returning the completed span (for
    callers that attribute costs after the fact, like the query
    journal, or the tail store).  [None] when tracing is off.  A
    raising thunk still closes the span and attaches it to its parent,
    but the exception propagates, so a caller that wants a root which
    may fail catches inside the thunk. *)

val set_rows : int -> unit
(** Annotate the innermost open span with its result cardinality.
    No-op when tracing is off. *)

(** {1 Trace-context propagation} *)

val next_trace_id : unit -> string
(** A fresh 16-hex-digit trace id (per-process xorshift stream). *)

val with_trace_id : string -> (unit -> 'a) -> 'a
(** Stamp every span opened inside the thunk (including new roots) with
    the given trace id — the distributed coordinator binds one id per
    query so all involved servers' spans stitch into one trace. *)

val with_actor : string -> (unit -> 'a) -> 'a
(** Attribute spans opened inside the thunk to the named actor
    (directory server).  The default actor is [""], the local process. *)

val current_trace_id : unit -> string option
(** The bound trace id, else the innermost open span's id. *)

val current_actor : unit -> string

val total_io : span -> int
val depth : span -> int
val span_count : span -> int

val actors : span -> string list
(** The distinct actors appearing in a span tree, sorted. *)

val pp_bytes : Format.formatter -> int -> unit
(** Human byte count ([512B], [1.5kB], [2.0MB]). *)

val pp_span : Format.formatter -> span -> unit
val pp : Format.formatter -> span -> unit
