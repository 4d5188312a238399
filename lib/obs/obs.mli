(** The observability context: the stores one server reads.

    A host (the shell, the bench harness, a load generator, a test)
    builds one context and hands it to {!Srv.start}; every route the
    server answers — [/metrics], [/range], [/alerts], [/planstats],
    [/workload] and [/healthz]'s [alerts_firing] — reads this context
    and nothing else, so two servers in one process, each with its own
    context, describe two disjoint pictures.

    What stays process-level is shared by design: the journal
    ({!Qlog}, one per process), the span recorder ({!Trace}), the
    retained-trace store ({!Tail}) and {!Metrics.default}, where the
    engine, cache and distribution layers keep module-level handles. *)

type t = {
  registry : Metrics.t;  (** [/metrics]; the server's own series *)
  tsdb : Tsdb.t;  (** the flight recorder over [registry] ([/range]) *)
  alerts : Alerts.t;  (** the evaluator over [tsdb] ([/alerts]) *)
  planstats : Planstats.t;
      (** the plan-quality store ([/planstats], [/workload]); its
          q-error histograms and drift counter go to [registry] *)
}

val create : Tsdb.t -> t
(** A context over the store and the registry it samples, with an
    evaluator that has no rules and an empty plan-quality store that is
    not yet {!Planstats.attach}ed.  The host installs rules, attaches
    the store and starts the sampler as it needs. *)
