(** Process-wide metrics registry: labeled counters, gauges and
    log-scale latency histograms, with text and JSON-lines exporters.

    Families are keyed by name, series by (sorted) label sets.  Handles
    stay valid across {!reset}, which zeroes series in place.  All
    implementations are stdlib-only; histograms use 64 power-of-two
    buckets, so quantiles carry at most a factor-of-two bucketing
    error.

    All operations — registration, mutation, export — are thread-safe
    behind one process-wide mutex, so the serving front-end's worker
    pool can observe into the default registry concurrently without
    losing increments or corrupting the family tables. *)

type labels = (string * string) list

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The registry the instrumented subsystems report to. *)

type counter
type gauge
type histogram

val counter : ?registry:t -> ?help:string -> ?labels:labels -> string -> counter
(** Register (or look up) a counter series.
    @raise Invalid_argument if [name] exists with a different kind. *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val gauge : ?registry:t -> ?help:string -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram :
  ?registry:t -> ?help:string -> ?labels:labels -> string -> histogram

val observe : ?trace_id:string -> histogram -> float -> unit
(** Record one observation (negative and NaN values clamp to zero).
    When [trace_id] is given the covering bucket remembers it as its
    exemplar — the most recent traced observation that landed there —
    for the OpenMetrics exposition and slow-trace joins. *)

val observe_ns : ?trace_id:string -> histogram -> int -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: linear interpolation inside the
    covering bucket, clamped to the observed min/max; [0.] when empty. *)

val reset : t -> unit
(** Zero every series in place (registrations and handles survive). *)

(** {1 Export view}

    A read-only snapshot for exporters living outside this module
    (e.g. {!Promexp}, the introspection server). *)

type exemplar = {
  ex_trace_id : string;
  ex_value : float;
  ex_ts : float;  (** unix seconds at observation time *)
}
(** The most recent traced observation that landed in a bucket. *)

type hview = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** [infinity] when empty *)
  hv_max : float;  (** [neg_infinity] when empty *)
  hv_cumulative : int array;
      (** entry [i] counts observations below [2^(i+1)] *)
  hv_exemplars : (int * exemplar) list;
      (** sparse, ascending bucket index -> most recent traced hit *)
}

type view = V_counter of int | V_gauge of float | V_histogram of hview

type family_view = {
  fv_name : string;
  fv_kind : string;  (** ["counter" | "gauge" | "histogram"] *)
  fv_help : string;
  fv_series : (labels * view) list;  (** sorted by label set *)
}

val export : t -> family_view list
(** Families sorted by name, series sorted by label set. *)

val bucket_count : int
(** Histogram buckets per series (64). *)

val bucket_upper : int -> float
(** [bucket_upper i] is the exclusive upper bound [2^(i+1)] of bucket
    [i]. *)

val bucket_quantile : int array -> float -> float option
(** [bucket_quantile counts q] estimates the [q] quantile from
    per-bucket observation counts ([counts.(i)] for bucket [i]): the
    ceil-rank's bucket, interpolated linearly between its bounds.
    [None] when every count is zero.  {!quantile} is this, clamped to
    the histogram's observed min/max; {!Tsdb} applies it to merged
    window deltas. *)

val pp : Format.formatter -> t -> unit
(** Text exporter: one line per series, sorted by name then labels. *)

val to_json_lines : t -> string
(** JSON-lines exporter: one JSON object per series per line.
    Histogram objects carry the summary quantiles plus the full
    cumulative [buckets] array (entry [i] counts observations below
    [2^(i+1)]), so offline tooling can recompute arbitrary quantiles. *)
