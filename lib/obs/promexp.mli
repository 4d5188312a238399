(** OpenMetrics text exposition over a {!Metrics} registry: what
    [/metrics] serves.

    Metric names are sanitized to [[a-zA-Z_:][a-zA-Z0-9_:]*] and label
    names to [[a-zA-Z_][a-zA-Z0-9_]*] (offending characters become
    ['_'], a leading digit is replaced); label values are escaped
    (backslash, double quote, newline).  Histograms export the
    standard cumulative form: [name_bucket{le="..."}] per power-of-two
    boundary up to the highest populated bucket, [le="+Inf"] equal to
    the count, plus [name_sum] and [name_count]. *)

val to_openmetrics : Metrics.t -> string
(** The full exposition document, families sorted by name.  Histogram
    bucket lines carry exemplars ([# {trace_id="..."} value
    timestamp]) when the bucket has recorded a traced observation, and
    the document ends with the mandatory [# EOF] terminator. *)

val content_type_openmetrics : string
(** [application/openmetrics-text; version=1.0.0; charset=utf-8]. *)
