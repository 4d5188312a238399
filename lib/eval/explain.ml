(* Query plans at the engine level: estimation and per-operator
   profiling.

   The plan representation and its one pricing pass live in [Plan];
   this module reads the plan [Engine.plan] makes and adds [profile],
   which executes that plan and attributes the actual rows, I/O and
   wall-clock time to each operator.  The estimated vs. measured
   columns side by side are the closest thing this system has to an
   optimizer debugging view, and the shell exposes them as :explain. *)

(* The plan [Engine.eval] would run: its boolean chains reordered under
   the cost-based planner, every access-path decision chosen and
   rejected, under the engine's planner policy. *)
let estimate ?mode engine q = Engine.plan ?mode engine q

(* --- Profiled execution ---------------------------------------------------- *)

(* Pair the walker's operator spans with the plan nodes, both mirroring
   the AST, and read each node's actuals off its span minus its
   children's: self io, wall time and allocation (rows are the
   operator's own output).  A shape or label mismatch leaves the node
   unannotated. *)
let rec attach (n : Plan.node) (sp : Trace.span) =
  if
    String.equal n.Plan.label sp.Trace.name
    && List.compare_lengths n.Plan.children sp.Trace.children = 0
  then
    let self f =
      f sp - List.fold_left (fun acc c -> acc + f c) 0 sp.Trace.children
    in
    {
      n with
      Plan.actual_rows = sp.Trace.rows;
      actual_io = Some (self (fun s -> Io_stats.total_io s.Trace.io));
      actual_ns = Some (self (fun s -> s.Trace.elapsed_ns));
      actual_alloc = Some (self (fun s -> s.Trace.alloc_bytes));
      children = List.map2 attach n.Plan.children sp.Trace.children;
    }
  else n

(* Run the plan exactly as [Engine.eval] would (same plan, mode, window
   and atomics; no result-cache lookup, no journal event) with tracing
   forced on, then attribute from the operator spans.  The root
   result's materialization, outside the root operator's span, is
   billed to the root operator. *)
let profile ?mode engine q =
  let mode = Option.value mode ~default:(Engine.mode engine) in
  let stats = Engine.stats engine in
  let est =
    Trace.with_span ~stats "plan" (fun () -> Engine.plan ~mode engine q)
  in
  let result, span =
    Engine.with_forced_tracing true (fun () ->
        Trace.with_span_out ~stats "profile" (fun () ->
            Engine.walk ~pager:(Engine.pager engine)
              ~window:(Engine.window engine) ~mode
              ~leaf:(Engine.leaf engine mode est) est.Plan.query))
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
