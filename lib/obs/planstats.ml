(* The plan-quality observatory: estimate-vs-actual accounting over the
   query journal's event stream.

   [Plan.estimate] predicts cardinality and page I/O per operator;
   execution measures them.  Nothing in the repo compared the two until
   now — this module joins them (the recording layers attach the
   estimates to journal events; see Engine/Dist) and computes the
   standard q-error, max(est/act, act/est), for cardinality, reads and
   writes.  Every observation feeds three consumers:

   - log-scale Metrics histograms (plan_qerror_{card,reads,writes},
     labeled by operator class) exported via Promexp and the monitor's
     /planstats route;
   - a calibration store: per (operator class x selectivity bucket)
     aggregated error statistics — count, sum of log q-errors (the
     geometric mean under aggregation), signed log bias, worst case —
     persisted as JSON lines.  This is the artifact a cost-based
     planner consumes to correct its own estimates;
   - a workload profiler: journal rows grouped by plan fingerprint into
     top-K summaries (count, wall time, io, cache hit rate, worst
     q-error), the monitor's /workload route.

   A drift detector compares a sliding window of recent cardinality
   q-errors per operator class against a stored calibration baseline
   and raises plan_drift_total{op} when the distribution shifts, so a
   planner regression is observable before it becomes a perf
   regression.

   Stores subscribe to the journal ([Qlog.subscribe]), so an online
   store sees exactly the event stream an offline replay of the journal
   sees, in the same order: rebuilding a store from the journal
   reproduces the online aggregates bit for bit (floating-point sums
   included), which CI checks by comparing the two saved files.  Like
   the rest of lib/obs this module never inspects queries — it
   consumes only what the journal records. *)

(* --- q-error and selectivity buckets -------------------------------------- *)

(* max(est/act, act/est) over values clamped to >= 1: always >= 1.0,
   1.0 means exact, and the zero cases (empty results, free operators)
   degrade gracefully instead of dividing by zero. *)
let qerror ~est ~act =
  let e = float_of_int (max est 1) and a = float_of_int (max act 1) in
  if e >= a then e /. a else a /. e

(* Signed companion to the q-error: ln(act/est), positive when the
   planner underestimates.  Summed per cell, it says which way a class
   is wrong, not just how much. *)
let log_bias ~est ~act =
  log (float_of_int (max act 1) /. float_of_int (max est 1))

(* The selectivity bucket of an estimate: floor log2 of the estimated
   cardinality (0 for estimates <= 1).  Calibration per (class, bucket)
   keeps "atomic returning 10 rows" apart from "atomic returning 10k
   rows" — error profiles differ across the size spectrum. *)
let bucket_of_rows n =
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  if n <= 1 then 0 else go 0 n

(* --- Aggregated error statistics ------------------------------------------ *)

type dim_stats = {
  mutable n : int;
  mutable sum_log_q : float;  (* geomean = exp (sum_log_q / n) *)
  mutable sum_bias : float;  (* sum of ln(act/est) *)
  mutable max_q : float;
}

let dim_create () = { n = 0; sum_log_q = 0.; sum_bias = 0.; max_q = 1. }

let dim_observe ds ~est ~act =
  let q = qerror ~est ~act in
  ds.n <- ds.n + 1;
  ds.sum_log_q <- ds.sum_log_q +. log q;
  ds.sum_bias <- ds.sum_bias +. log_bias ~est ~act;
  if q > ds.max_q then ds.max_q <- q

let dim_add ~into src =
  into.n <- into.n + src.n;
  into.sum_log_q <- into.sum_log_q +. src.sum_log_q;
  into.sum_bias <- into.sum_bias +. src.sum_bias;
  if src.max_q > into.max_q then into.max_q <- src.max_q

let geomean ds = if ds.n = 0 then 1. else exp (ds.sum_log_q /. float_of_int ds.n)
let mean_bias ds = if ds.n = 0 then 1. else exp (ds.sum_bias /. float_of_int ds.n)

type cell = {
  cell_op : string;
  cell_bucket : int;
  c_card : dim_stats;
  c_reads : dim_stats;
  c_writes : dim_stats;
}

type dim = Card | Reads | Writes

let dim_name = function Card -> "card" | Reads -> "reads" | Writes -> "writes"
let dim_of_cell c = function
  | Card -> c.c_card
  | Reads -> c.c_reads
  | Writes -> c.c_writes

(* --- Bounded per-class sample buffers (exact quantiles) -------------------- *)

(* The calibration cells keep only moments; medians and p95s come from
   keep-first sample buffers per (class, dimension) — bounded, in
   memory only, never persisted.  Keep-first is deterministic, so the
   online and offline summary quantiles also agree. *)
let sample_cap = 32_768

type sample_buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = [||]; len = 0 }

let buf_push b v =
  if b.len < sample_cap then begin
    if b.len = Array.length b.data then begin
      let cap = max 64 (min sample_cap (2 * Array.length b.data)) in
      let d = Array.make cap 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- v;
    b.len <- b.len + 1
  end

let buf_quantile b q =
  if b.len = 0 then 0.
  else begin
    let d = Array.sub b.data 0 b.len in
    Array.sort compare d;
    let i = int_of_float (q *. float_of_int (b.len - 1)) in
    d.(max 0 (min (b.len - 1) i))
  end

(* --- The workload profile --------------------------------------------------- *)

type wrow = {
  w_fingerprint : string;
  mutable w_query : string;  (* first query text seen for the plan *)
  mutable w_count : int;
  mutable w_wall_ns : int;
  mutable w_io : int;
  mutable w_alloc : int;  (* bytes allocated, when the events carry it *)
  mutable w_hits : int;  (* result-cache hits among the events *)
  mutable w_worst_q : float;  (* worst cardinality q-error seen *)
}

(* --- Drift windows ----------------------------------------------------------- *)

(* Recent cardinality q-errors per operator class, a small ring. *)
type ring = { rbuf : float array; mutable ridx : int; mutable rcount : int }

let ring_size = 128
let ring_create () = { rbuf = Array.make ring_size 0.; ridx = 0; rcount = 0 }

let ring_push r v =
  r.rbuf.(r.ridx) <- v;
  r.ridx <- (r.ridx + 1) mod ring_size;
  if r.rcount < ring_size then r.rcount <- r.rcount + 1

let ring_geomean r =
  if r.rcount = 0 then 1.
  else begin
    let s = ref 0. in
    for i = 0 to r.rcount - 1 do
      s := !s +. log r.rbuf.(i)
    done;
    exp (!s /. float_of_int r.rcount)
  end

(* --- The store ---------------------------------------------------------------- *)

type t = {
  cells : (string * int, cell) Hashtbl.t;
  samples : (string, sample_buf array) Hashtbl.t;  (* per class, one per dim *)
  workload : (string, wrow) Hashtbl.t;  (* keyed by plan fingerprint *)
  recent : (string, ring) Hashtbl.t;  (* drift windows, card dim *)
  mutable events : int;
  registry : Metrics.t option;  (* where q-errors and drift are exported *)
  hists : (string * string, Metrics.histogram) Hashtbl.t;
      (* the registry's plan_qerror_* handles, by (dimension, class) *)
  mutable baseline : t option;  (* drift reference calibration *)
  mutable drift : (string * float * float) list;
      (* (op, recent geomean, baseline geomean), newest first, one per op *)
  mutable sub : Qlog.subscription option;  (* while attached *)
}

let create ?registry () =
  {
    cells = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    workload = Hashtbl.create 64;
    recent = Hashtbl.create 16;
    events = 0;
    registry;
    hists = Hashtbl.create 16;
    baseline = None;
    drift = [];
    sub = None;
  }

let events t = t.events
let set_baseline t b = t.baseline <- Some b
let drift t = t.drift

let clear t =
  Hashtbl.reset t.cells;
  Hashtbl.reset t.samples;
  Hashtbl.reset t.workload;
  Hashtbl.reset t.recent;
  t.events <- 0;
  t.drift <- []

let cell t op bucket =
  match Hashtbl.find_opt t.cells (op, bucket) with
  | Some c -> c
  | None ->
      let c =
        {
          cell_op = op;
          cell_bucket = bucket;
          c_card = dim_create ();
          c_reads = dim_create ();
          c_writes = dim_create ();
        }
      in
      Hashtbl.add t.cells (op, bucket) c;
      c

let class_samples t op =
  match Hashtbl.find_opt t.samples op with
  | Some bufs -> bufs
  | None ->
      let bufs = [| buf_create (); buf_create (); buf_create () |] in
      Hashtbl.add t.samples op bufs;
      bufs

let dim_index = function Card -> 0 | Reads -> 1 | Writes -> 2

(* One histogram family per dimension, labeled by operator class;
   handles memoized per store (the registry dedupes anyway, this just
   skips the registry lookup per observation). *)
let m_qerror t registry dim op =
  let key = (dim_name dim, op) in
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
      let h =
        Metrics.histogram ~registry
          ~help:
            ("plan estimate q-error, max(est/act, act/est), for "
           ^ dim_name dim)
          ~labels:[ ("op", op) ]
          ("plan_qerror_" ^ dim_name dim)
      in
      Hashtbl.add t.hists key h;
      h

let ring t op =
  match Hashtbl.find_opt t.recent op with
  | Some r -> r
  | None ->
      let r = ring_create () in
      Hashtbl.add t.recent op r;
      r

let note_obs t ~op ~bucket dim ~est ~act =
  dim_observe (dim_of_cell (cell t op bucket) dim) ~est ~act;
  let q = qerror ~est ~act in
  buf_push (class_samples t op).(dim_index dim) q;
  if dim = Card then ring_push (ring t op) q;
  Option.iter (fun r -> Metrics.observe (m_qerror t r dim op) q) t.registry

(* --- Drift detection --------------------------------------------------------- *)

let drift_check_every = 64
let drift_window_min = 32
let drift_baseline_min = 4
let drift_factor = 2.0

let m_drift registry op =
  Metrics.counter ~registry
    ~help:
      "drift checks that found an operator's recent q-error distribution \
       shifted >= 2x from the calibration baseline, in either direction"
    ~labels:[ ("op", op) ]
    "plan_drift_total"

(* The baseline's cardinality geomean for a class, across buckets. *)
let baseline_card base op =
  let n = ref 0 and sl = ref 0. in
  Hashtbl.iter
    (fun (o, _) c ->
      if String.equal o op then begin
        n := !n + c.c_card.n;
        sl := !sl +. c.c_card.sum_log_q
      end)
    base.cells;
  if !n = 0 then None else Some (exp (!sl /. float_of_int !n), !n)

let check_drift t =
  match t.baseline with
  | None -> ()
  | Some base ->
      Hashtbl.iter
        (fun op r ->
          if r.rcount >= drift_window_min then
            match baseline_card base op with
            | Some (bg, bn) when bn >= drift_baseline_min ->
                let rg = ring_geomean r in
                (* either direction: estimates turning much worse is a
                   planner regression, much better means the calibration
                   no longer describes the workload *)
                if rg > bg *. drift_factor || bg > rg *. drift_factor
                then begin
                  Option.iter (fun r -> Metrics.incr (m_drift r op)) t.registry;
                  t.drift <-
                    (op, rg, bg)
                    :: List.filter (fun (o, _, _) -> o <> op) t.drift
                end
            | _ -> ())
        t.recent

(* --- Joining one journal event ------------------------------------------------ *)

(* Span io is inclusive (children included) while plan estimates are
   per-operator, so a row's actual reads/writes are re-derived
   exclusively from the preorder + depth structure: subtract the
   immediate children's inclusive deltas.  Both the online hook and an
   offline replay run this same computation over the same rows. *)
let exclusive_io (ops : Qlog.op array) i =
  let d = ops.(i).Qlog.op_depth in
  let r = ref ops.(i).Qlog.op_reads and w = ref ops.(i).Qlog.op_writes in
  let j = ref (i + 1) in
  let len = Array.length ops in
  while !j < len && ops.(!j).Qlog.op_depth > d do
    if ops.(!j).Qlog.op_depth = d + 1 then begin
      r := !r - ops.(!j).Qlog.op_reads;
      w := !w - ops.(!j).Qlog.op_writes
    end;
    incr j
  done;
  (max 0 !r, max 0 !w)

let note_event t (ev : Qlog.event) =
  t.events <- t.events + 1;
  (* the workload profile counts every event, estimates or not *)
  let w =
    match Hashtbl.find_opt t.workload ev.Qlog.fingerprint with
    | Some w -> w
    | None ->
        let w =
          {
            w_fingerprint = ev.Qlog.fingerprint;
            w_query = ev.Qlog.query;
            w_count = 0;
            w_wall_ns = 0;
            w_io = 0;
            w_alloc = 0;
            w_hits = 0;
            w_worst_q = 1.;
          }
        in
        Hashtbl.add t.workload ev.Qlog.fingerprint w;
        w
  in
  w.w_count <- w.w_count + 1;
  w.w_wall_ns <- w.w_wall_ns + ev.Qlog.wall_ns;
  w.w_io <- w.w_io + ev.Qlog.reads + ev.Qlog.writes;
  w.w_alloc <- w.w_alloc + Option.value ~default:0 ev.Qlog.alloc_bytes;
  if ev.Qlog.cache = Some "hit" then w.w_hits <- w.w_hits + 1;
  (* whole-query estimates, under the pseudo-class "query" *)
  let qbucket =
    match ev.Qlog.est_card with Some e -> bucket_of_rows e | None -> 0
  in
  (match ev.Qlog.est_card with
  | Some est ->
      note_obs t ~op:"query" ~bucket:qbucket Card ~est ~act:ev.Qlog.result_count;
      let q = qerror ~est ~act:ev.Qlog.result_count in
      if q > w.w_worst_q then w.w_worst_q <- q
  | None -> ());
  (match ev.Qlog.est_reads with
  | Some est -> note_obs t ~op:"query" ~bucket:qbucket Reads ~est ~act:ev.Qlog.reads
  | None -> ());
  (match ev.Qlog.est_writes with
  | Some est ->
      note_obs t ~op:"query" ~bucket:qbucket Writes ~est ~act:ev.Qlog.writes
  | None -> ());
  (* per-operator rows carrying joined estimates; rows annotated with
     an access path feed a second, path-suffixed class ("atomic:index",
     "atomic:scan", …) so a calibrated planner can correct each path's
     cost model separately — the substring index's occurrence-count
     upper bound biases only the index path, not scans *)
  let arr = Array.of_list ev.Qlog.ops in
  Array.iteri
    (fun i (o : Qlog.op) ->
      match o.Qlog.op_est_rows with
      | None -> ()
      | Some est_rows ->
          let bucket = bucket_of_rows est_rows in
          let op = o.Qlog.op_name in
          let path_op =
            Option.map (fun p -> op ^ ":" ^ p) o.Qlog.op_path
          in
          let note dim ~est ~act =
            note_obs t ~op ~bucket dim ~est ~act;
            match path_op with
            | Some op -> note_obs t ~op ~bucket dim ~est ~act
            | None -> ()
          in
          (match o.Qlog.op_rows with
          | Some act ->
              note Card ~est:est_rows ~act;
              let q = qerror ~est:est_rows ~act in
              if q > w.w_worst_q then w.w_worst_q <- q
          | None -> ());
          let act_reads, act_writes = exclusive_io arr i in
          (match o.Qlog.op_est_reads with
          | Some est -> note Reads ~est ~act:act_reads
          | None -> ());
          (match o.Qlog.op_est_writes with
          | Some est -> note Writes ~est ~act:act_writes
          | None -> ()))
    arr;
  if t.events mod drift_check_every = 0 then check_drift t

(* --- Subscription -------------------------------------------------------------- *)

let attach t =
  if Option.is_none t.sub then t.sub <- Some (Qlog.subscribe (note_event t))

let detach t =
  Option.iter Qlog.unsubscribe t.sub;
  t.sub <- None

(* --- Offline building ----------------------------------------------------------- *)

let of_events evs =
  let t = create () in
  List.iter (note_event t) evs;
  t

let build t path =
  let evs = Qlog.load path in
  List.iter (note_event t) evs;
  List.length evs

(* --- Persistence: the calibration store ------------------------------------------ *)

let dim_to_json ds =
  Json.Obj
    [
      ("n", Json.Num (float_of_int ds.n));
      ("sum_log_q", Json.Num ds.sum_log_q);
      ("sum_bias", Json.Num ds.sum_bias);
      ("max_q", Json.Num ds.max_q);
    ]

let dim_of_json j =
  {
    n = Json.to_int (Json.member "n" j);
    sum_log_q = Json.to_float (Json.member "sum_log_q" j);
    sum_bias = Json.to_float (Json.member "sum_bias" j);
    max_q = Json.to_float (Json.member "max_q" j);
  }

let cell_to_json c =
  Json.Obj
    [
      ("op", Json.Str c.cell_op);
      ("bucket", Json.Num (float_of_int c.cell_bucket));
      ("card", dim_to_json c.c_card);
      ("reads", dim_to_json c.c_reads);
      ("writes", dim_to_json c.c_writes);
    ]

let cell_of_json j =
  {
    cell_op = Json.str (Json.member "op" j);
    cell_bucket = Json.to_int (Json.member "bucket" j);
    c_card = dim_of_json (Json.member "card" j);
    c_reads = dim_of_json (Json.member "reads" j);
    c_writes = dim_of_json (Json.member "writes" j);
  }

let sorted_cells t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.cells []
  |> List.sort (fun a b ->
         match String.compare a.cell_op b.cell_op with
         | 0 -> Int.compare a.cell_bucket b.cell_bucket
         | c -> c)

(* Cells sorted by (class, bucket) and floats printed to round-trip:
   two stores with identical aggregates save identical bytes, which is
   how CI asserts online == offline-rebuilt. *)
let save_lines t =
  String.concat ""
    (List.map (fun c -> Json.to_string (cell_to_json c) ^ "\n") (sorted_cells t))

let save t path =
  let oc = open_out path in
  output_string oc (save_lines t);
  close_out oc;
  Hashtbl.length t.cells

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let t = create () in
  List.iter
    (fun j ->
      let c = cell_of_json j in
      Hashtbl.replace t.cells (c.cell_op, c.cell_bucket) c)
    (Json.lines text);
  t

let merge ~into src =
  Hashtbl.iter
    (fun _ c ->
      let dst = cell into c.cell_op c.cell_bucket in
      dim_add ~into:dst.c_card c.c_card;
      dim_add ~into:dst.c_reads c.c_reads;
      dim_add ~into:dst.c_writes c.c_writes)
    src.cells

(* --- Summaries and export -------------------------------------------------------- *)

let class_names t =
  let names = Hashtbl.fold (fun (op, _) _ acc -> op :: acc) t.cells [] in
  let names = Hashtbl.fold (fun op _ acc -> op :: acc) t.samples names in
  List.sort_uniq String.compare names

(* Per-class aggregation across buckets. *)
let class_dim t op dim =
  let total = dim_create () in
  Hashtbl.iter
    (fun (o, _) c -> if String.equal o op then dim_add ~into:total (dim_of_cell c dim))
    t.cells;
  total

(* --- Bias lookup: what a calibrated planner consults ------------------------ *)

(* The multiplicative correction a calibrated estimate applies:
   est x bias ~= act.  Looked up in the exact (class, bucket) cell
   first, falling back to the class aggregate across buckets; [None]
   below the support threshold, so a planner with no history changes
   nothing.  Clamped — a handful of pathological observations must not
   swing costs by orders of magnitude. *)
let bias_min_n = 4
let bias_clamp = 8.

let bias t ~op ~rows dim =
  let of_ds ds =
    if ds.n >= bias_min_n then
      Some (Float.min bias_clamp (Float.max (1. /. bias_clamp) (mean_bias ds)))
    else None
  in
  let in_cell =
    match Hashtbl.find_opt t.cells (op, bucket_of_rows rows) with
    | Some c -> of_ds (dim_of_cell c dim)
    | None -> None
  in
  match in_cell with Some _ as b -> b | None -> of_ds (class_dim t op dim)

let bias_card t ~op ~rows = bias t ~op ~rows Card
let bias_reads t ~op ~rows = bias t ~op ~rows Reads

let class_quantile t op dim q =
  match Hashtbl.find_opt t.samples op with
  | None -> 0.
  | Some bufs -> buf_quantile bufs.(dim_index dim) q

let dim_summary_json t op dim =
  let ds = class_dim t op dim in
  Json.Obj
    [
      ("n", Json.Num (float_of_int ds.n));
      ("geomean", Json.Num (geomean ds));
      ("median", Json.Num (class_quantile t op dim 0.5));
      ("p95", Json.Num (class_quantile t op dim 0.95));
      ("max", Json.Num ds.max_q);
      ("bias", Json.Num (mean_bias ds));
    ]

let drift_json t =
  Json.Arr
    (List.map
       (fun (op, recent, base) ->
         Json.Obj
           [
             ("op", Json.Str op);
             ("recent_geomean", Json.Num recent);
             ("baseline_geomean", Json.Num base);
           ])
       t.drift)

let to_json t =
  Json.Obj
    [
      ("events", Json.Num (float_of_int t.events));
      ( "classes",
        Json.Arr
          (List.map
             (fun op ->
               Json.Obj
                 [
                   ("op", Json.Str op);
                   ("card", dim_summary_json t op Card);
                   ("reads", dim_summary_json t op Reads);
                   ("writes", dim_summary_json t op Writes);
                 ])
             (class_names t)) );
      ("drift", drift_json t);
      ("calibration", Json.Arr (List.map cell_to_json (sorted_cells t)));
    ]

let top_rows ?(top = 20) t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.workload []
  |> List.sort (fun a b ->
         match Int.compare b.w_wall_ns a.w_wall_ns with
         | 0 -> String.compare a.w_fingerprint b.w_fingerprint
         | c -> c)
  |> List.filteri (fun i _ -> i < top)

let workload_json ?top t =
  Json.Obj
    [
      ("plans", Json.Num (float_of_int (Hashtbl.length t.workload)));
      ( "rows",
        Json.Arr
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("fingerprint", Json.Str w.w_fingerprint);
                   ("query", Json.Str w.w_query);
                   ("count", Json.Num (float_of_int w.w_count));
                   ("wall_ns", Json.Num (float_of_int w.w_wall_ns));
                   ( "mean_wall_ns",
                     Json.Num
                       (float_of_int w.w_wall_ns
                       /. float_of_int (max 1 w.w_count)) );
                   ("io", Json.Num (float_of_int w.w_io));
                   ("alloc_bytes", Json.Num (float_of_int w.w_alloc));
                   ( "cache_hit_rate",
                     Json.Num
                       (float_of_int w.w_hits /. float_of_int (max 1 w.w_count))
                   );
                   ("worst_qerror", Json.Num w.w_worst_q);
                 ])
             (top_rows ?top t)) );
    ]

(* --- Text rendering (the shell and :replay) ---------------------------------------- *)

let pp_summary ppf t =
  if t.events = 0 && Hashtbl.length t.cells = 0 then
    Fmt.pf ppf "no plan-quality observations@."
  else begin
    Fmt.pf ppf "%d events observed@." t.events;
    Fmt.pf ppf "%-10s %6s  %28s  %8s %8s@." "op" "n"
      "cardinality q-error" "reads" "writes";
    Fmt.pf ppf "%-10s %6s  %6s %6s %6s %6s  %8s %8s@." "" "" "geo" "median"
      "p95" "max" "geo" "geo";
    List.iter
      (fun op ->
        let card = class_dim t op Card in
        if card.n > 0 then
          Fmt.pf ppf "%-10s %6d  %6.2f %6.2f %6.2f %6.1f  %8.2f %8.2f@." op
            card.n (geomean card)
            (class_quantile t op Card 0.5)
            (class_quantile t op Card 0.95)
            card.max_q
            (geomean (class_dim t op Reads))
            (geomean (class_dim t op Writes)))
      (class_names t)
  end

let pp_workload ?top ppf t =
  match top_rows ?top t with
  | [] -> Fmt.pf ppf "no journaled queries@."
  | rows ->
      Fmt.pf ppf "%-18s %6s %10s %10s %8s %8s  %s@." "plan" "count" "wall"
        "io" "hit%" "worst-q" "query";
      List.iter
        (fun w ->
          Fmt.pf ppf "%-18s %6d %10s %10d %7.0f%% %8.1f  %s@." w.w_fingerprint
            w.w_count
            (Mclock.ns_to_string w.w_wall_ns)
            w.w_io
            (100. *. float_of_int w.w_hits /. float_of_int (max 1 w.w_count))
            w.w_worst_q
            (if String.length w.w_query > 48 then
               String.sub w.w_query 0 47 ^ "…"
             else w.w_query))
        rows

let pp_drift ppf t =
  match t.drift with
  | [] ->
      Fmt.pf ppf "no drift detected%s@."
        (if t.baseline = None then " (no baseline loaded)" else "")
  | notes ->
      List.iter
        (fun (op, recent, base) ->
          Fmt.pf ppf
            "%-10s recent card q-error geomean %.2f vs baseline %.2f (%.1fx)@."
            op recent base (recent /. base))
        notes
