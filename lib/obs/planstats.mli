(** The plan-quality observatory: estimate-vs-actual accounting over
    the query journal's event stream.

    Joins the planner's per-operator and whole-query estimates (which
    the recording layers attach to {!Qlog} events) with the measured
    actuals, computes q-errors — [max(est/act, act/est)] for
    cardinality, page reads and page writes — and aggregates them
    three ways: log-scale {!Metrics} histograms
    ([plan_qerror_{card,reads,writes}] labeled by operator class), a
    persistent calibration store keyed by (operator class x
    selectivity bucket), and a per-plan-fingerprint workload profile.
    A drift detector compares a sliding window of recent q-errors per
    class against a loaded baseline calibration and raises
    [plan_drift_total{op}].

    A store subscribes to the journal with {!attach}; because every
    {!Qlog.record} flows through the subscription exactly once, a
    store rebuilt offline from the journal file ({!build}) reproduces
    the online aggregates bit for bit — {!save_lines} of the two are
    equal. *)

type t
(** A store: calibration cells, quantile samples, workload profile and
    drift state. *)

val create : ?registry:Metrics.t -> unit -> t
(** A fresh, empty store.  With [registry] every observation also
    feeds that registry's [plan_qerror_*] histograms, and every drift
    finding its [plan_drift_total] counter; without, the store exports
    nothing.  An {!Obs} context's store exports to the context's
    registry. *)

(** {1 The q-error} *)

val qerror : est:int -> act:int -> float
(** [max(est/act, act/est)] with both values clamped to [>= 1], so the
    result is always [>= 1.0] ([1.0] = exact) and zeros are handled:
    [qerror ~est:0 ~act:0 = 1.0], [qerror ~est:0 ~act:10 = 10.0]. *)

val bucket_of_rows : int -> int
(** The selectivity bucket of a cardinality estimate: floor log2
    (0 for values [<= 1]), so bucket [b] covers estimates in
    [\[2^b, 2^(b+1))]. *)

(** {1 Feeding a store} *)

val note_event : t -> Qlog.event -> unit
(** Fold one journal event into the store: workload row always;
    q-error observations for whatever estimates the event carries
    (whole-query fields under the pseudo-class ["query"], per-operator
    rows under their operator label).  Per-operator actual io is
    re-derived exclusive-of-children from the rows' preorder + depth
    structure, since span deltas are inclusive. *)

val attach : t -> unit
(** Subscribe the store to {!Qlog.record} ({!Qlog.subscribe};
    idempotent).  All attached stores see every recorded event, once. *)

val detach : t -> unit
(** Unsubscribe (a no-op when not attached). *)

val of_events : Qlog.event list -> t
(** A fresh store folded over the events, in order. *)

val build : t -> string -> int
(** [build t path] replays journal file [path] into [t] and returns
    the number of events folded.
    @raise Sys_error / Json.Parse_error on unreadable input. *)

val events : t -> int
val clear : t -> unit
(** Drop every observation (the drift baseline survives). *)

(** {1 The calibration store} *)

val save : t -> string -> int
(** Write the calibration cells as JSON lines (sorted by class then
    bucket); returns the cell count.  Samples, workload and drift
    state are in-memory only. *)

val save_lines : t -> string
(** The exact bytes {!save} writes — deterministic for a given set of
    aggregates, so equal aggregates save equal bytes. *)

val load : string -> t
(** A store holding the file's calibration cells (no samples, no
    workload).
    @raise Sys_error / Json.Parse_error on unreadable input. *)

val merge : into:t -> t -> unit
(** Add [src]'s calibration cells into [into] (counts and log-sums
    add, maxima take the max). *)

(** {1 Bias lookup}

    What a calibrated planner consults.  [bias_* t ~op ~rows] is the
    multiplicative correction for class [op] in the selectivity bucket
    of an estimate of [rows] ([est x bias ~= act] on the workload seen
    so far): the exact (class, bucket) cell when it has at least 4
    observations, else the class aggregate across buckets, else
    [None].  Clamped to [\[1/8, 8\]].  Per-path classes are recorded as
    ["atomic:index"], ["atomic:scan"], … when events carry operator
    access paths. *)

val bias_card : t -> op:string -> rows:int -> float option
val bias_reads : t -> op:string -> rows:int -> float option

(** {1 Drift} *)

val set_baseline : t -> t -> unit
(** [set_baseline t b] makes [b]'s calibration the drift reference:
    every 64 events, each class's recent-window cardinality q-error
    geomean is compared against the baseline's, and a [>= 2x] shift in
    either direction raises [plan_drift_total{op}] and a drift note. *)

val drift : t -> (string * float * float) list
(** Current drift notes: (class, recent geomean, baseline geomean),
    newest first, at most one per class. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** Event count, per-class summaries (n / geomean / median / p95 / max
    / bias per dimension), drift notes, and the full calibration cell
    list — the [/planstats] route body. *)

val workload_json : ?top:int -> t -> Json.t
(** The workload profile: top-[top] (default 20) plans by total wall
    time, each with count, wall ns, io, cache hit rate and worst
    q-error — the [/workload] route body. *)

val pp_summary : Format.formatter -> t -> unit
(** Per-class q-error table (the shell's [:planstats] and the
    [:replay] accuracy summary). *)

val pp_workload : ?top:int -> Format.formatter -> t -> unit
val pp_drift : Format.formatter -> t -> unit
