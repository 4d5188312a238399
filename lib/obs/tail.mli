(** Tail-based trace sampling, and the one store of completed span
    trees.

    The engine's query ledger — for the engine's, the distributed
    coordinator's and the server's runs — and the server's shed and
    queue-deadline paths hand every completed span tree to
    {!consider}, with the journal event
    recorded for its query when the journal is on; it is retained when
    the outcome earns it — slow ({!is_slow}), errored, shed,
    deadline-expired — or when a seeded 1-in-N sample picks it as a
    baseline.  Retention is bounded by a span-count budget; oldest
    traces evict first.  Retained entries are found by trace id, which
    is how [/trace/<id>], alert history and OpenMetrics exemplars join
    back to a full trace, and the slowlog ({!slowlog}) is a view over
    them: a slowlog line ages out with its trace.

    Thread-safe behind one mutex; retention increments
    [srv_trace_sampled_total{reason,origin}] and publishes the held
    span count as the [trace_tail_retained_spans] gauge. *)

type reason = Slow | Errored | Shed | Deadline | Sampled

val reason_to_string : reason -> string
(** ["slow" | "errored" | "shed" | "deadline" | "sampled"] *)

type outcome = [ `Ok | `Error | `Shed | `Deadline ]

type retained = {
  r_trace_id : string;
  r_reason : reason;
  r_origin : string;  (** ["srv"], ["engine"] or ["dist"] *)
  r_ts : float;  (** unix seconds at retention *)
  r_wall_ns : int;
  r_span : Trace.span;
  r_event : Qlog.event option;  (** the query's journal event, if journaled *)
  r_slow : bool;  (** {!is_slow} [r_wall_ns] when retained *)
}

val consider :
  ?event:Qlog.event ->
  origin:string ->
  outcome:outcome ->
  wall_ns:int ->
  Trace.span ->
  reason option
(** Decide and (maybe) retain one completed span tree, returning the
    retention reason.  A tree whose trace id is already retained
    replaces the old entry when it holds more spans (the root tree
    subsumes a subtree); the merged entry keeps an [event] if either
    offer had one. *)

val find : string -> retained option
(** Look up a retained trace by trace id. *)

val retained : unit -> retained list
(** All retained traces, newest first. *)

val retained_count : unit -> int

val slowlog : int -> (retained * Qlog.event) list
(** The slowlog view: the retained entries that hold a journal event
    and were slow when retained (errored ones included), slowest event
    first, at most [min n 64]. *)

val retained_spans : unit -> int
(** Total span nodes currently held (the budgeted quantity). *)

val clear : unit -> unit

(** {1 Knobs} *)

val set_slow_threshold_ns : int -> unit
val slow_threshold_ns : unit -> int
(** Default 50ms; clamped to be non-negative. *)

val is_slow : int -> bool
(** The one slow predicate, [wall_ns >= slow_threshold_ns ()]: the
    {!Slow} verdict and the query ledger's journal capture both ask it. *)

val set_sample_every : int -> unit
val sample_every : unit -> int
(** Baseline 1-in-N sample; [0] disables.  Default 997. *)

val set_budget_spans : int -> unit
val budget_spans : unit -> int
(** Span-count retention budget (default 4096); clamps below at 1. *)

val reseed : int64 -> unit
(** Reseed the sampling stream (tests). *)
