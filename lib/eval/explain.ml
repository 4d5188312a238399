(* Query plans at the engine level: estimation and per-operator
   profiling.

   The plan representation, the cost estimator and the normalized plan
   fingerprint live in [Plan] (below the engine, so the query journal
   can also use them); this module binds them to an [Engine.t] and adds
   [profile], which executes the query and attributes the actual rows,
   I/O and wall-clock time to each operator.  The estimated vs.
   measured columns side by side are the closest thing this system has
   to an optimizer debugging view, and the shell exposes them as
   :explain. *)

type node = Plan.node = {
  label : string;
  detail : string;
  est_rows : int;
  est_io : int;
  est_reads : int;
  est_writes : int;
  est_writes_saved : int;
  actual_rows : int option;
  actual_io : int option;
  actual_ns : int option;
  actual_alloc : int option;
  access : Plan.choice option;
  children : node list;
}

(* The engine-bound estimate of the tree [Engine.eval] would actually
   run: its boolean-chain rewrite applied, then the access-path
   decisions, chosen and rejected, under the engine's planner policy. *)
let estimate ?mode engine q =
  let mode = Option.value mode ~default:(Engine.mode engine) in
  Engine.estimate ~mode engine (Engine.plan_rewrite ~mode engine q)

let fingerprint = Plan.fingerprint

(* --- Profiled execution ---------------------------------------------------- *)

(* Pair the walker's operator spans with the plan nodes, both mirroring
   the AST, and read each node's actuals off its span minus its
   children's: self io, wall time and allocation (rows are the
   operator's own output).  A shape or label mismatch leaves the node
   unannotated. *)
let rec attach (n : node) (sp : Trace.span) =
  if
    String.equal n.label sp.Trace.name
    && List.compare_lengths n.children sp.Trace.children = 0
  then
    let self f =
      f sp - List.fold_left (fun acc c -> acc + f c) 0 sp.Trace.children
    in
    {
      n with
      actual_rows = sp.Trace.rows;
      actual_io = Some (self (fun s -> Io_stats.total_io s.Trace.io));
      actual_ns = Some (self (fun s -> s.Trace.elapsed_ns));
      actual_alloc = Some (self (fun s -> s.Trace.alloc_bytes));
      children = List.map2 attach n.children sp.Trace.children;
    }
  else n

(* Run the walker exactly as [Engine.eval] would (same rewrite, mode,
   window and atomics; no result-cache lookup, no journal event) with
   tracing forced on, then attribute from the operator spans.  The root
   result's materialization, outside the root operator's span, is
   billed to the root operator. *)
let profile ?mode engine q =
  let mode = Option.value mode ~default:(Engine.mode engine) in
  let q = Engine.plan_rewrite ~mode engine q in
  let stats = Engine.stats engine in
  let est =
    Trace.with_span ~stats "plan" (fun () -> Engine.estimate ~mode engine q)
  in
  let result, span =
    Engine.with_forced_tracing true (fun () ->
        Trace.with_span_out ~stats "profile" (fun () ->
            Engine.walk ~pager:(Engine.pager engine)
              ~window:(Engine.window engine) ~mode
              ~leaf:(Engine.leaf engine mode) q))
  in
  match span with
  | Some ({ Trace.children = [ root ]; _ } as sp) ->
      let n = attach est root in
      let extra f = Option.map (fun v -> v + f sp - f root) in
      ( result,
        {
          n with
          actual_io = extra (fun s -> Io_stats.total_io s.Trace.io) n.actual_io;
          actual_ns = extra (fun s -> s.Trace.elapsed_ns) n.actual_ns;
          actual_alloc = extra (fun s -> s.Trace.alloc_bytes) n.actual_alloc;
        } )
  | _ -> (result, est)

(* --- Rendering --------------------------------------------------------------- *)

let pp_node = Plan.pp_node
let pp = Plan.pp
let total_actual_io = Plan.total_actual_io
let total_actual_ns = Plan.total_actual_ns
let total_est_writes_saved = Plan.total_est_writes_saved
