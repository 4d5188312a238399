(** Query plans: cost estimation and per-operator profiling.

    Section 8.2's evaluation strategy is fixed (bottom-up sorted
    pipeline), so a plan is the query tree annotated with predicted
    cardinality and page-I/O (from the theorems' formulas and crude
    selectivities) and, after {!profile}, the measured values per
    operator.  The representation, estimator and fingerprint live in
    {!Plan}; this module binds them to an engine.  The shell's
    [:explain] renders it. *)

type node = Plan.node = {
  label : string;
  detail : string;
  est_rows : int;
  est_io : int;  (** = [est_reads + est_writes] *)
  est_reads : int;
  est_writes : int;
  est_writes_saved : int;
      (** writes a streaming pipeline avoids at this node *)
  actual_rows : int option;
  actual_io : int option;
  actual_ns : int option;  (** wall-clock nanoseconds, excluding children *)
  actual_alloc : int option;
      (** bytes allocated by the operator, excluding children *)
  access : Plan.choice option;
      (** the access-path decision, on sub-scope atomic nodes *)
  children : node list;
}

val estimate : ?mode:Engine.mode -> Engine.t -> Ast.t -> node
(** Predicted plan, no execution — for the tree the engine would
    actually run: the planner's boolean-chain rewrite is applied first,
    and sub-scope atomics carry their {!Plan.choice} (chosen path plus
    the rejected alternatives with the costs that lost), priced with
    the engine's index / cache / calibration handles under its current
    planner policy.  [mode] sets the boundary handling the costs assume
    (default: the engine's). *)

val fingerprint : Ast.t -> string
(** The normalized plan fingerprint ({!Plan.fingerprint}): a digest of
    the operator tree with literal constants elided — the key the query
    journal groups events by. *)

val profile : ?mode:Engine.mode -> Engine.t -> Ast.t -> Entry.t Ext_list.t * node
(** Execute the query through {!Engine.walk}, exactly as {!Engine.eval}
    would run it (same rewrite, mode, window and atomics, but no result
    cache lookup and no journal event), and attribute actual rows, I/O,
    wall-clock time and allocation to each operator from its traced
    span minus its children's.  [mode] picks the boundary handling
    (default: the engine's); under [Streaming] the measured io per node
    shows the writes the pipeline avoided, and the root's write is
    billed to the root operator.  Tracing is forced on for the run; the
    "profile" span (and, when tracing is on, a "plan" span) is
    recorded. *)

val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> node -> unit

val total_actual_io : node -> int
(** Sum of the per-operator actual I/O over the whole plan. *)

val total_actual_ns : node -> int
(** Sum of the per-operator wall-clock time over the whole plan. *)

val total_est_writes_saved : node -> int
(** Sum of [est_writes_saved] over the whole plan. *)
