(** Flight recorder: a bounded in-process time-series store over a
    {!Metrics} registry.

    A sampler snapshots the registry on a fixed cadence (default 1s)
    and keeps the last N windows (default 3600) in a ring.  Windows
    store {e deltas}: counter increments, gauge values, and sparse
    histogram bucket increments — so range queries can recompute
    rates and per-window quantiles over any trailing interval, and an
    hour of serving telemetry fits in a few MB regardless of how long
    the process has been up.

    The sampler is the obs layer's one clock: every {!sample} first
    refreshes the {!Runtime} gauges, and {!start}'s hook lets a host
    tick an {!Alerts} evaluator on the same beat.  Windows are numbered
    in sample order ({!seq}), so {!range} can read a run of them — an
    alert tick's "since my previous tick" — as well as a trailing
    wall-clock interval.

    The whole store serializes to JSON-lines with deterministic float
    rendering, so bench runs leave a replayable series
    ([BENCH_tsdb.json]) and [save] ∘ [load] round-trips
    byte-identically.

    All operations are thread-safe; [sample] (from the sampler thread)
    and [range] (from the server's session threads) interleave freely. *)

type t

val create :
  ?registry:Metrics.t -> ?resolution_s:float -> ?capacity:int -> unit -> t
(** [create ()] targets {!Metrics.default}, 1s resolution, 3600
    windows.  @raise Invalid_argument on non-positive resolution or
    capacity. *)

val registry : t -> Metrics.t
(** The registry the store samples. *)

val sample : t -> unit
(** Refresh the {!Runtime} gauges, then snapshot the registry into a
    new window: counters delta'd against the previous sample (a
    negative delta — counter reset — restarts from the new cumulative
    value), gauges recorded as-is, histograms as sparse bucket
    increments (only when the window saw observations). *)

val seq : t -> int
(** The number of the newest window (windows count from 1 in sample
    order; 0 before the first sample). *)

val capacity : t -> int

val resolution_s : t -> float

val window_count : t -> int
(** Windows currently held (≤ [capacity]; oldest are overwritten). *)

(** {1 Range queries} *)

type agg =
  | Rate  (** counter increments per second *)
  | Sum  (** summed increments / gauge values / histogram sums *)
  | Avg
  | Min
  | Max
  | Quantile of float  (** per-step quantile from merged bucket deltas *)

val agg_of_string : string -> agg option
(** ["rate" | "sum" | "avg" | "min" | "max" | "p50" | "p99" | "p999" | ...] *)

val agg_to_string : agg -> string

val range :
  t ->
  ?labels:Metrics.labels ->
  ?step_s:float ->
  ?seqs:int * int ->
  ?window_s:float ->
  agg:agg ->
  string ->
  (float * float option) list
(** [range t ~window_s ~agg name] aggregates the series named [name]
    over [[now - window_s, now]] into [window_s / step_s] buckets
    (step defaults to the store's resolution), oldest first.  Each
    element is [(bucket_end_ts, value)]; [None] marks a bucket no
    window landed in.  Without [window_s], every window the ring holds
    goes into one bucket stamped now.  [?seqs:(lo, hi)] keeps only the
    windows numbered [lo+1 .. hi] (see {!seq}), however far apart in
    time.  [?labels] restricts to series whose label set contains
    every given pair; by default all label sets of the name are
    merged. *)

val series : t -> (string * string) list
(** Metric names present anywhere in the ring, with their point kind
    (["rate" | "gauge" | "hist"]), sorted — the dashboard's listing. *)

(** {1 Persistence} *)

val to_json_lines : t -> string
(** Header line, then one JSON object per window, oldest first. *)

val save : t -> string -> unit

val load : string -> t
(** @raise Json.Parse_error on malformed documents. *)

(** {1 The sampler thread} *)

val start : ?tick:(unit -> unit) -> t -> unit
(** Spawn the sampler thread: every [resolution_s] it runs [tick]
    (default [fun () -> sample t]; exceptions are swallowed).  A hook
    must sample [t] itself — e.g. {!Alerts.tick} on an evaluator over
    [t] — so each period adds exactly one window.  Idempotent while
    running (a running sampler keeps its hook). *)

val stop : t -> unit
(** Stop and join the sampler thread.  No-op when not running. *)

val running : t -> bool
