(** The SLO alerting engine: threshold and burn-rate rules evaluated
    over a {!Tsdb} flight-recorder store and its {!Metrics} registry,
    with a Prometheus-style pending → firing → resolved state
    machine.

    A rule is one line of a small expression language:

    {v
    engine_query_ns p99 > 50ms for 3
    rate(engine_page_reads_total) / rate(engine_queries_total) > 40 for 2
    plan_drift_total increasing
    gc_heap_words > 2e6
    srv_request_ns p99 over(60s) > 500ms for 2
    v}

    Grammar: [source [/ source] cmp number ["for" N ["ticks"]]] or
    [selector increasing].  A source is a selector (the live sum of
    every series whose labels include the selector's [{k=v,...}]), a
    selector with a quantile ([p50|p90|p95|p99] over the observations
    since the previous tick, so alerts resolve when the system goes
    quiet), or [rate(selector)] (the counter's increment since the
    previous tick); [increasing] holds when that increment is
    positive.  These per-tick sources read the store's windows
    recorded since the previous tick (by window number, {!Tsdb.seq}),
    so they follow its delta rules: a counter first seen, or reset,
    counts its whole value.  Suffixing a source with [over(60s)] (also
    [over(500ms)], bare seconds) reads the store's trailing wall-clock
    window instead: [rate] becomes per second, a quantile merges the
    window's bucket deltas, a plain selector averages.  Both quantile
    forms use {!Metrics.bucket_quantile}.  Thresholds accept
    [ns/us/ms/s] duration suffixes and a bare [x] multiplier.

    When a rule goes pending or firing, the evaluator captures an
    {e exemplar}: the trace id attached to the largest recent
    observation of any histogram the rule reads (see
    {!Metrics.observe}).  It rides on the transition, the rule's JSON
    ([exemplar_trace_id]) and the dashboard's alert table, and
    resolves at the monitor's [/trace/<id>] while tail-retained.

    {!tick} drives evaluation: the condition must hold on [for]
    consecutive ticks before the alert fires, and one false tick
    resolves it.  Transitions land in a bounded history ring; firing
    alerts export as [ALERTS{alertname,severity}] gauges (1 firing,
    0 otherwise) into the registry the rules read.  {!silence}
    suppresses the export without stopping the state machine. *)

type selector = { sel_name : string; sel_labels : (string * string) list }

type source =
  | Value of selector
  | Rate of selector
  | Quantile of selector * float
  | Windowed of source * float
      (** the source over a trailing window of N seconds, read from
          the flight recorder ([over(60s)]); never nested *)

type term = Source of source | Ratio of source * source
type cmp = Gt | Ge | Lt | Le
type expr = Threshold of term * cmp * float | Increasing of selector

type rule = {
  name : string;
  severity : string;
  for_ticks : int;
  expr : expr;
  text : string;  (** the rule as written *)
}

type state = Inactive | Pending of int  (** consecutive true ticks *) | Firing

type transition = {
  tr_tick : int;
  tr_ts : float;  (** unix seconds *)
  tr_rule : string;
  tr_severity : string;
  tr_from : string;
  tr_to : string;  (** ["pending" | "firing" | "resolved" | "inactive"] *)
  tr_value : float;  (** the measured value at the transition *)
  tr_exemplar : string option;
      (** a trace id from a matching histogram's exemplars — the slow
          request behind the alert *)
}

type t

val create : ?tsdb:Tsdb.t -> unit -> t
(** A fresh evaluator over [tsdb] (default {!Tsdb.default}) and the
    registry it samples; starts with no rules.  Creation samples the
    store once, so the first {!tick} reads only what happened after
    it. *)

val default : t
(** The process-wide evaluator behind the monitor's [/alerts] route and
    the shell's [:alerts].  Empty until rules are added
    ({!install_defaults}). *)

exception Parse_error of string

val parse : string -> expr * int
(** Parse a rule body, returning the expression and the for-duration
    (1 when absent).
    @raise Parse_error on malformed input. *)

val add : ?severity:string -> t -> name:string -> string -> rule
(** Parse and install a rule ([severity] defaults to ["warn"]).
    @raise Parse_error on malformed input or a duplicate name. *)

val remove : t -> string -> bool
(** Remove the named rule; [false] if there is none. *)

val rules : t -> rule list

val install_defaults : ?t:t -> unit -> unit
(** Install the stock service-health rules (interactive latency p99,
    read amplification per query, plan drift, serving-front-end p99 and
    shed rate, and a sustained-p99 rule over the flight recorder's
    trailing minute) into [t] (default {!default}).  No-op when the
    evaluator already has rules. *)

(** {1 Evaluation} *)

val tick : t -> unit
(** Sample the store, evaluate every rule once and advance the state
    machines.  The host picks the cadence: the shell ticks from the
    store's sampler thread ({!Tsdb.start}'s hook), the bench harness
    between experiments, tests by hand.  A tick reads the windows the
    store's ring still holds: increments older than its capacity are
    lost. *)

val ticks : t -> int
val state : t -> string -> state option
val states : t -> (rule * state) list

val last_value : t -> string -> float option
(** The value measured for the rule at its most recent evaluation. *)

val firing : t -> rule list
(** Rules currently in the firing state (silenced ones included —
    silencing only suppresses the export). *)

val history : t -> transition list
(** State transitions, newest first (bounded ring of 256). *)

val last_exemplar : t -> string -> string option
(** The exemplar trace id captured when the named rule last went
    pending/firing; dropped when it resolves (the transition history
    keeps the incident's copy). *)

val silence : t -> string -> bool -> bool
(** [silence t name on] suppresses ([on = true]) or restores the
    [ALERTS] export for the named rule; the state machine keeps
    running either way.  [false] when no such rule exists. *)

val is_silenced : t -> string -> bool

val clear : t -> unit
(** Drop every rule, state and the history; zero the exported
    [ALERTS] gauges. *)

(** {1 Rendering} *)

val state_name : state -> string
val to_json : t -> Json.t
(** The [/alerts] document: tick count, firing count, per-rule states,
    transition history. *)

val pp_state : Format.formatter -> state -> unit
val pp_rule : t -> Format.formatter -> rule -> unit
val pp_transition : Format.formatter -> transition -> unit
