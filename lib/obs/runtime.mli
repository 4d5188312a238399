(** Runtime resource telemetry: GC and process health gauges.

    Publishes into the default {!Metrics} registry, so the same
    [/metrics] exposition (and the {!Alerts} evaluator) covers process
    health alongside query counters:

    - [process_uptime_seconds], [process_allocated_bytes]
    - [gc_minor_collections], [gc_major_collections], [gc_compactions]
    - [gc_heap_words], [gc_top_heap_words], [gc_live_words],
      [gc_promoted_bytes]
    - [qlog_sink_bytes] (the live query-journal file's size)

    Gauges only change when sampled.  {!Tsdb.sample} calls {!sample}
    just before it exports its registry, so whatever drives the flight
    recorder (its sampler thread, an {!Alerts.tick}) keeps them fresh;
    there is no separate ticker. *)

val sample : unit -> unit
(** Refresh every gauge from [Gc.quick_stat] (which fills live words
    without a heap traversal) and the journal sink. *)
