(** Query plans: cost estimation and per-operator profiling.

    Section 8.2's evaluation strategy is fixed (bottom-up sorted
    pipeline), so a plan is the query tree annotated with predicted
    cardinality and page-I/O (from the theorems' formulas and crude
    selectivities) and, after {!profile}, the measured values per
    operator.  The representation, its pricing pass and its rendering
    live in {!Plan}; this module reads the plan {!Engine.plan} makes.
    The shell's [:explain] renders it. *)

val estimate : ?mode:Engine.mode -> Engine.t -> Ast.t -> Plan.node
(** Predicted plan, no execution: {!Engine.plan}, the plan
    {!Engine.eval} would run.  Its root's [query] is the tree after the
    planner's boolean-chain rewrite, and sub-scope atomics carry their
    {!Plan.choice} (chosen path plus the rejected alternatives with the
    costs that lost), priced with the engine's index / cache /
    calibration handles under its current planner policy.  [mode] sets
    the boundary handling the costs assume (default: the engine's). *)

val profile :
  ?mode:Engine.mode -> Engine.t -> Ast.t -> Entry.t Ext_list.t * Plan.node
(** Plan the query and execute that plan through {!Engine.walk},
    exactly as {!Engine.eval} would run it (same plan, mode, window and
    atomics, but no result cache lookup and no journal event), and
    attribute actual rows, I/O, wall-clock time and allocation to each
    operator from its traced span minus its children's.  [mode] picks
    the boundary handling (default: the engine's); under [Streaming]
    the measured io per node shows the writes the pipeline avoided, and
    the root's write is billed to the root operator.  Tracing is forced
    on for the run; the "profile" span (and, when tracing is on, a
    "plan" span) is recorded. *)
