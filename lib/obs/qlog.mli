(** The query journal: an append-only, JSON-lines record of every query
    evaluated, with slow-query promotion to full captures.

    One event per query: text, normalized plan fingerprint, result
    cardinality, page reads/writes, wall nanoseconds, outcome, and
    per-operator cost rows lifted from the {!Trace} span tree.  A slow
    query ([Tail.is_slow]) recorded by the engine additionally carries
    a capture (rendered span tree + rendered estimated plan).  This
    module keeps no events in memory: the recording layer hands each
    event to [Tail] with its span tree, and the slowlog is [Tail]'s
    view.  Instrumented layers call {!record}; this module never
    inspects queries itself, so [lib/obs] stays below the query and
    evaluation layers.  One journal per process.

    {!record} is thread-safe: one process-wide mutex covers the
    sequence assignment, the sink append, the size-rotation check and
    the {!set_on_record} observer fan-out, so
    concurrent workers can never interleave JSON lines, double-rotate a
    generation, or show an online observer a different order than the
    journal file records. *)

type op = {
  op_name : string;
  op_detail : string;
  op_rows : int option;  (** result cardinality, when annotated *)
  op_reads : int;
  op_writes : int;
  op_ns : int;
  op_alloc : int option;
      (** inclusive GC allocation delta for the span, when the tracing
          layer measured one; absent in journals written before the
          field existed *)
  op_depth : int;  (** 0 = the query's root span *)
  op_est_rows : int option;
      (** planner estimates for this operator, when the recording layer
          joined the estimated plan to the span tree; absent in events
          recorded (or journaled) before the join existed *)
  op_est_reads : int option;
  op_est_writes : int option;
  op_path : string option;
      (** access path an atomic operator took ([index|scan|cache]), when
          the recording layer annotated it; absent on non-atomic rows
          and in journals written before path selection existed *)
}

type outcome = Ok | Failed of string

type capture = {
  span_text : string;  (** rendered span tree *)
  plan_text : string;  (** rendered estimated plan *)
}

type event = {
  seq : int;  (** monotonic per process *)
  ts : float;  (** unix seconds at record time *)
  query : string;
  fingerprint : string;
  trace_id : string option;
      (** the {!Trace} id shared by the coordinator's event and every
          involved server's event for one distributed query *)
  result_count : int;
  reads : int;
  writes : int;
  wall_ns : int;
  alloc_bytes : int option;
      (** whole-query GC allocation delta ([Gc.allocated_bytes] across
          the evaluation), when the recording layer measured one; old
          journals without it still load *)
  outcome : outcome;
  est_card : int option;
      (** whole-query planner estimates (result cardinality, page reads,
          page writes), when the recording layer computed a plan; old
          journals without them still load *)
  est_reads : int option;
  est_writes : int option;
  cache : string option;
      (** result-cache outcome ([hit|miss|stale|bypass]), when the
          evaluating layer reports one *)
  path : string option;
      (** distinct access paths the query's atomics took, comma-joined
          ([index|scan|cache]), when the evaluating layer selects paths *)
  server : string option;  (** answering server (distributed evaluation) *)
  shipped : (string * int * int) list;
      (** per-server (name, messages, bytes) attribution *)
  ops : op list;  (** flattened span tree, preorder *)
  capture : capture option;  (** present iff the query was slow *)
}

(** {1 The journal sink} *)

val enable : ?append:bool -> ?max_bytes:int -> ?max_files:int -> string -> unit
(** Open (creating if needed) the journal file; [append] defaults to
    [true], the journal being append-only by design.  Closes any
    previously open journal.  With [max_bytes], the journal rotates
    once it passes that size: rotated generations shift up
    ([<path>.1] → [<path>.2] → …), the generation past [max_files]
    (default 1) is deleted, the live file becomes [<path>.1] and a
    fresh file takes over — disk use stays bounded at roughly
    [(max_files + 1) x max_bytes]. *)

val disable : unit -> unit
val enabled : unit -> bool
val path : unit -> string option

val sink_bytes : unit -> int
(** Bytes written to the live journal file so far (0 with no sink) —
    the runtime sampler publishes this as a gauge, and [/healthz]
    reports it. *)

val max_bytes : unit -> int option
(** The configured rotation size limit, if any. *)

val max_files : unit -> int
(** The configured number of rotated generations kept (>= 1). *)

val with_server : string -> (unit -> 'a) -> 'a
(** Attribute every event recorded inside the thunk to the named
    server (the distributed coordinator wraps per-server evaluation). *)

(** {1 Recording} *)

val ops_of_span : Trace.span -> op list
(** Flatten a span tree into per-operator cost rows (preorder). *)

val record :
  ?cache:string ->
  ?path:string ->
  ?server:string ->
  ?trace_id:string ->
  ?shipped:(string * int * int) list ->
  ?ops:op list ->
  ?capture:capture ->
  ?alloc_bytes:int ->
  ?est_card:int ->
  ?est_reads:int ->
  ?est_writes:int ->
  query:string ->
  fingerprint:string ->
  result_count:int ->
  reads:int ->
  writes:int ->
  wall_ns:int ->
  outcome:outcome ->
  unit ->
  event
(** Assign the next sequence number, append one JSON line to the open
    journal (if any) and return the event.  Safe to call with no
    journal open. *)

val set_on_record : (event -> unit) option -> unit
(** Install (or clear) the event observer: called once with every event
    {!record} produces, journaled or not.  The plan-quality observatory
    hooks in here, which is what guarantees its online aggregates equal
    an offline replay of the same journal — both see the identical
    event stream in the identical order. *)

val clear : unit -> unit
(** Restart sequence numbering. *)

(** {1 Reading a journal back} *)

val to_json : event -> Json.t
val of_json : Json.t -> event

val load : string -> event list
(** Parse a JSON-lines journal file.
    @raise Sys_error / Json.Parse_error on unreadable input. *)

val pp_event : Format.formatter -> event -> unit
(** One-line summary (seq, wall time, outcome, cardinality, I/O,
    fingerprint, query). *)
