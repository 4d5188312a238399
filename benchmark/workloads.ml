(* The four workloads.  Each builds its inputs from the seed, sets the
   system up several times (the median is [setup_s]), runs timed rounds
   for the requested seconds, and checks sampled outputs against
   [Semantics] after the clock has stopped.

   An untraced run measures the end-to-end metrics.  A traced run
   splits its time into an untraced pass (the baseline, and the
   deterministic counts of its first round), a traced pass whose layer
   spans give the per-layer times, and a replay that prices [Trace]
   itself. *)

open Ndq

let now = Bstats.now

type cfg = {
  seconds : float;
  setups : int;
  serve_size : int;
  serve_window : int;  (* closed-loop requests outstanding per connection *)
  ladder : float list;
  step_s : float;
  tree_size : int;
  tree_pool : int;
  tree_warmup : int;
  cached_size : int;
  cached_pool : int;
  hot : int;
  cached_warmup : int;
  rw_round : int;
}

let full ~seconds =
  {
    seconds;
    setups = 5;
    serve_size = 2_000;
    serve_window = 4;
    ladder = [ 50.; 100.; 200.; 400.; 800.; 1600.; 3200. ];
    step_s = Float.min 4. (Float.max 0.5 (seconds /. 10.));
    tree_size = 16_000;
    tree_pool = 1_000;
    tree_warmup = 200;
    cached_size = 16_000;
    cached_pool = 200;
    hot = 16;
    cached_warmup = 2_000;
    rw_round = 100;
  }

(* Tiny sizes for the self-test: every code path, a few seconds. *)
let quick =
  {
    seconds = 0.45;
    setups = 2;
    serve_size = 300;
    serve_window = 2;
    ladder = [ 50.; 100. ];
    step_s = 0.2;
    tree_size = 1_500;
    tree_pool = 200;
    tree_warmup = 20;
    cached_size = 1_500;
    cached_pool = 60;
    hot = 8;
    cached_warmup = 200;
    rw_round = 60;
  }

let tree_mix = { Query_mix.l0 = 10; l1 = 20; l2 = 45; l3 = 25 }

(* serve_mix's open-loop arrivals per second *)
let serve_rate = 50.

(* --- A run's record ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type run = {
  workload : string;
  traced : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable checked : int;
  mutable mismatches : int;
  mutable metrics : metric list;  (* newest first *)
  mutable info : (string * Json.t) list;
  mutable layers : Layers.t option;
}

let new_run workload traced =
  {
    workload;
    traced;
    attempted = 0;
    failed = 0;
    checked = 0;
    mismatches = 0;
    metrics = [];
    info = [];
    layers = None;
  }

let put r name value unit_ = r.metrics <- { name; value; unit_ } :: r.metrics
let info r key v = r.info <- (key, v) :: r.info
let num x = Json.Num x

(* --- Shared pieces ------------------------------------------------------------- *)

(* Build [cfg.setups] times from a collected heap, keep the last; the
   median build time is the set-up time. *)
let setup cfg make =
  let rec go k acc =
    Gc.full_major ();
    let t0 = now () in
    let x = make () in
    let s = now () -. t0 in
    if k >= cfg.setups then (Bstats.median (Array.of_list (s :: acc)), x)
    else go (k + 1) (s :: acc)
  in
  go 1 []

let top_heap_mb () = Served.top_heap_bytes () /. 1e6

let refreshes = Metrics.counter "engine_index_refreshes_total"

(* Result fingerprints: count plus an order-sensitive hash of each
   entry's key and attributes, so sampled results are checked without
   being kept. *)
module Check = struct
  type fp = int * int

  let step h (e : Entry.t) =
    (h * 1_000_003)
    lxor Hashtbl.hash (Entry.key e)
    lxor (Hashtbl.hash_param 64 256 (Entry.attrs e) lsl 1)

  let of_ext out =
    let h = ref 0 in
    for i = 0 to Ext_list.length out - 1 do
      h := step !h (Ext_list.unsafe_get out i)
    done;
    (Ext_list.length out, !h)

  let of_list l = (List.length l, List.fold_left step 0 l)

  let oracle inst text =
    Semantics.eval inst (Qparser.of_string ~schema:(Instance.schema inst) text)

  type t = { mutable items : (string * Instance.t * fp) list }

  let create () = { items = [] }
  let add t ~text ~inst fp = t.items <- (text, inst, fp) :: t.items

  (* Check every sample; the oracle's answer is computed once per
     (text, instance) pair. *)
  let run t r =
    let memo = Hashtbl.create 64 in
    List.iter
      (fun (text, inst, got) ->
        let want =
          match List.assq_opt inst (Hashtbl.find_all memo text) with
          | Some fp -> fp
          | None ->
              let fp = of_list (oracle inst text) in
              Hashtbl.add memo text (inst, fp);
              fp
        in
        r.checked <- r.checked + 1;
        if got <> want then begin
          r.mismatches <- r.mismatches + 1;
          Printf.eprintf "ndqbench: %s: wrong result for %s\n%!" r.workload text
        end)
      t.items;
    t.items <- []
end

(* Rounds until [seconds] of measured time are used, at least one. *)
let rounds ~seconds round =
  let rec go k acc used =
    if k > 0 && used >= seconds then List.rev acc
    else
      let ops, secs = round k in
      go (k + 1) ((ops, secs) :: acc) (used +. secs)
  in
  go 0 [] 0.

let throughput rs =
  Bstats.median
    (Array.of_list
       (List.map (fun (ops, secs) -> float_of_int ops /. Float.max secs 1e-9) rs))

let mean_op_s rs =
  let ops, secs =
    List.fold_left (fun (o, s) (o', s') -> (o + o', s +. s')) (0, 0.) rs
  in
  secs /. float_of_int (max 1 ops)

(* Samples gathered by the rounds. *)
type acc = { mutable xs : float list }

let acc () = { xs = [] }
let push a x = a.xs <- x :: a.xs
let arr a = Array.of_list a.xs

let estimate eng q =
  Plan.estimate ~pager:(Engine.pager eng) ~instance:(Engine.instance eng)
    ?attr_index:(Engine.attr_index eng) ?cache:(Engine.result_cache eng)
    ~streaming:true q

let span_s = function
  | Some (s : Trace.span) -> float_of_int s.Trace.elapsed_ns /. 1e9
  | None -> 0.

(* One query: parse, then [exec] the tree; returns the result and the
   request's seconds.  Traced, each layer call is a span of its own
   ([name] names the execution call), and the planner is additionally
   asked for its rewrite and estimate so their cost shows; that probe
   time is left out of the returned duration. *)
let request eng ~schema ~col ~name exec text =
  match col with
  | None ->
      let t0 = now () in
      let out = exec (Qparser.of_string ~schema text) in
      (out, now () -. t0)
  | Some col ->
      let (out, probe), sp =
        Layers.request "request" (fun () ->
            let ast =
              Trace.with_span "Qparser.of_string" (fun () ->
                  Qparser.of_string ~schema text)
            in
            let p0 = now () in
            let q =
              Trace.with_span "Engine.plan_rewrite" (fun () -> Engine.plan_rewrite eng ast)
            in
            ignore (Trace.with_span "Plan.estimate" (fun () -> estimate eng q));
            let probe = now () -. p0 in
            (Trace.with_span name (fun () -> exec ast), probe))
      in
      Layers.add col sp;
      (out, Float.max 0. (span_s sp -. probe))

(* Through [Engine.eval], as the in-process workloads query. *)
let read eng = request eng ~name:"Engine.eval" (Engine.eval eng)

(* How a server worker runs a query: the fused pipeline, drained. *)
let drain_src eng ast =
  let src = Engine.eval_node_src eng ast in
  let rec go n = match Ext_list.Source.next src with None -> n | Some _ -> go (n + 1) in
  go 0

let src_read eng = request eng ~name:"Engine.eval_node_src" (drain_src eng)
let src_query eng ~schema text = drain_src eng (Qparser.of_string ~schema text)

(* The cost of [Trace] as the server pays it: the same queries with
   tracing off and with a forced "serve" span handed to [Tail], in
   alternating order, as a share of the untraced time. *)
let trace_cost eng ~schema texts ~seconds =
  let n = Array.length texts in
  let on = ref 0. and off = ref 0. and b = ref 0 in
  let t_start = now () in
  let block k = Array.init 8 (fun i -> texts.(((k * 8) + i) mod n)) in
  let run traced qs =
    Trace.set_enabled traced;
    let t0 = now () in
    Array.iter
      (fun text ->
        if traced then
          Trace.with_trace_id (Trace.next_trace_id ()) (fun () ->
              let t1 = now () in
              match
                Trace.with_span_out ~detail:text "serve" (fun () ->
                    src_query eng ~schema text)
              with
              | _, Some sp ->
                  ignore
                    (Tail.consider ~origin:"srv" ~outcome:`Ok
                       ~wall_ns:(int_of_float ((now () -. t1) *. 1e9))
                       sp)
              | _, None -> ())
        else ignore (src_query eng ~schema text))
      qs;
    let d = now () -. t0 in
    Trace.set_enabled false;
    d
  in
  while !b < 2 || now () -. t_start < seconds do
    let qs = block !b in
    if !b mod 2 = 0 then begin
      off := !off +. run false qs;
      on := !on +. run true qs
    end
    else begin
      on := !on +. run true qs;
      off := !off +. run false qs
    end;
    incr b
  done;
  (!on /. Float.max !off 1e-9) -. 1.

(* [Dn_index.build] + [Attr_index.build] on the instance, median of
   three, each build a traced request of its own. *)
let index_build_ms col inst =
  let pager = Pager.create ~block:64 (Io_stats.create ()) in
  let one () =
    let t0 = now () in
    let _, sp =
      Layers.request "index" (fun () ->
          ignore (Trace.with_span "Dn_index.build" (fun () -> Dn_index.build pager inst));
          ignore
            (Trace.with_span "Attr_index.build" (fun () -> Attr_index.build pager inst)))
    in
    Layers.add ~request:false col sp;
    (now () -. t0) *. 1e3
  in
  Bstats.median (Array.init 3 (fun _ -> one ()))

let ops_metrics r col =
  List.iter
    (fun (cls, labels) ->
      put r ("op." ^ cls ^ "_us") (Layers.per_request_us col ~self:true labels) "us")
    Layers.op_classes

(* Engine and GC counters over one round. *)
type counters = {
  mutable queries : int;
  mutable reads : int;
  mutable writes : int;
  mutable rows : int;
  mutable alloc : float;
  mutable minor : int;
  mutable major : int;
  mutable paths : int * int * int;
  mutable resident : int;
  mutable refreshes_n : int;
  mutable top_heap : float;  (* MB, at the end of the round *)
}

let counters () =
  {
    queries = 0;
    reads = 0;
    writes = 0;
    rows = 0;
    alloc = 0.;
    minor = 0;
    major = 0;
    paths = (0, 0, 0);
    resident = 0;
    refreshes_n = 0;
    top_heap = 0.;
  }

(* Run [f] as the counted round: I/O, rows (added by [f] to [c.rows]),
   GC and planner path deltas, and the top heap so far.  The top heap is
   read here, after set-up, warm-up and one round, rather than at the
   end of the run: it only grows, and a time-boxed run that gets through
   more rounds on a faster host would report a higher peak. *)
let counted eng c f =
  Engine.reset_stats eng;
  let s = Engine.stats eng in
  let gc0 = Gc.quick_stat () in
  let i0, s0, c0 = Engine.path_counts eng in
  let rf0 = Metrics.counter_value refreshes in
  let x = f () in
  let gc1 = Gc.quick_stat () in
  let i1, s1, c1 = Engine.path_counts eng in
  c.reads <- s.Io_stats.page_reads;
  c.writes <- s.Io_stats.page_writes;
  c.resident <- s.Io_stats.max_resident_pages;
  c.minor <- gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  c.major <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  c.paths <- (i1 - i0, s1 - s0, c1 - c0);
  c.refreshes_n <- Metrics.counter_value refreshes - rf0;
  c.top_heap <- top_heap_mb ();
  x

let counter_metrics r c =
  let q = float_of_int (max 1 c.queries) in
  let per x = float_of_int x /. q in
  let i, s, ch = c.paths in
  put r "plan.path_index" (1000. *. per i) "count/kq";
  put r "plan.path_scan" (1000. *. per s) "count/kq";
  put r "plan.path_cache" (1000. *. per ch) "count/kq";
  put r "engine.reads_per_q" (per c.reads) "pages";
  put r "engine.writes_per_q" (per c.writes) "pages";
  put r "engine.rows_per_q" (per c.rows) "rows";
  put r "engine.alloc_kb_per_q" (c.alloc /. 1024. /. q) "kB";
  put r "storage.max_resident_pages" (float_of_int c.resident) "pages";
  put r "index.refreshes" (float_of_int c.refreshes_n) "count";
  put r "gc.minor_per_q" (per c.minor) "count";
  put r "gc.major_per_kq" (1000. *. per c.major) "count"

let engine_metrics r col ~exec =
  put r "query.parse_us" (Layers.per_request_us col ~self:false [ "Qparser.of_string" ]) "us";
  put r "plan.rewrite_us"
    (Layers.per_request_us col ~self:false [ "Engine.plan_rewrite" ])
    "us";
  put r "plan.estimate_us" (Layers.per_request_us col ~self:false [ "Plan.estimate" ]) "us";
  let ex = Layers.samples col exec in
  put r "engine.exec_p50_ms" (Bstats.percentile ex 0.5) "ms";
  put r "engine.exec_p99_ms" (Bstats.percentile ex 0.99) "ms";
  ops_metrics r col

let no_cache r =
  List.iter
    (fun n -> put r n 0. (if n = "cache.hit_rate" then "ratio" else "count"))
    [ "cache.hit_rate"; "cache.stale"; "cache.evictions"; "cache.rejects" ]

let no_srv r =
  put r "srv.wire_stall_frac" 0. "ratio";
  put r "srv.busy" 0. "count";
  put r "srv.deadline" 0. "count";
  put r "srv.capacity_qps" 0. "q/s"

let split3 cfg = cfg.seconds /. 3.

(* Throughput is the median round; the latency percentiles pool every
   timed read of the run, in ms. *)
let e2e r ~rs ~lat ~setup_s ~heap =
  let lat = arr lat in
  put r "throughput_qps" (throughput rs) "ops/s";
  put r "p50_ms" (Bstats.percentile lat 0.5) "ms";
  put r "p99_ms" (Bstats.percentile lat 0.99) "ms";
  put r "setup_s" setup_s "s";
  put r "peak_heap_mb" heap "MB"

let total_ops rs = List.fold_left (fun n (o, _) -> n + o) 0 rs

(* A traced run's tail, after its untraced pass [rs] counted [c]: the
   traced pass, index builds, the [Trace] price and the overhead of this
   run's own spans.  [exec] names the execution call the pass traces.
   Returns the traced pass's rounds. *)
let traced_tail r ~eng ~schema ~inst ~col ~c ~rs ~texts ~heap ~exec ~seconds pass =
  counter_metrics r c;
  Trace.set_enabled true;
  let trs = pass ~col:(Some col) ~seconds in
  let build = index_build_ms col inst in
  Trace.set_enabled false;
  engine_metrics r col ~exec;
  put r "index.build_ms" build "ms";
  (* a dirty engine rebuilds once, outside the timed replay *)
  ignore (src_query eng ~schema texts.(0));
  put r "obs.trace_overhead_frac" (trace_cost eng ~schema texts ~seconds) "ratio";
  put r "trace_overhead_frac" ((mean_op_s trs /. mean_op_s rs) -. 1.) "ratio";
  put r "gc.top_heap_mb" heap "MB";
  r.layers <- Some col;
  trs

(* --- eval_tree ------------------------------------------------------------------ *)

let eval_tree cfg ~seed ~traced =
  let r = new_run "eval_tree" traced in
  let inst = Inputs.dif ~seed ~size:cfg.tree_size in
  let pool =
    Query_mix.generate ~seed:Inputs.template_seed ~mix:tree_mix ~count:cfg.tree_pool inst
  in
  let schema = Instance.schema inst in
  let setup_s, eng = setup cfg (fun () -> Engine.create inst) in
  let check = Check.create () and c = counters () in
  let lat = acc () in
  let k = ref 0 in
  (* a round is one pass over the pool; every 50th query is checked *)
  let round ~col ~counting _ =
    let secs = ref 0. in
    Array.iter
      (fun text ->
        let a0 = Gc.allocated_bytes () in
        let out, dt = read eng ~schema ~col text in
        if counting then begin
          c.alloc <- c.alloc +. (Gc.allocated_bytes () -. a0);
          c.rows <- c.rows + Ext_list.length out;
          c.queries <- c.queries + 1
        end;
        secs := !secs +. dt;
        if Option.is_none col then push lat (dt *. 1e3);
        if !k mod 50 = 0 then Check.add check ~text ~inst (Check.of_ext out);
        incr k)
      pool;
    (Array.length pool, !secs)
  in
  for i = 0 to min cfg.tree_warmup (Array.length pool) - 1 do
    ignore (read eng ~schema ~col:None pool.(i))
  done;
  let pass ~col ~seconds =
    rounds ~seconds (fun j ->
        if j = 0 && Option.is_none col then
          counted eng c (fun () -> round ~col ~counting:true j)
        else round ~col ~counting:false j)
  in
  let rs = pass ~col:None ~seconds:(if traced then split3 cfg else cfg.seconds) in
  r.attempted <- total_ops rs;
  let heap = c.top_heap in
  if traced then begin
    let col = Layers.create ~sampled:[ "Engine.eval" ] () in
    no_cache r;
    no_srv r;
    let trs =
      traced_tail r ~eng ~schema ~inst ~col ~c ~rs ~texts:pool ~heap ~exec:"Engine.eval"
        ~seconds:(split3 cfg) pass
    in
    r.attempted <- r.attempted + total_ops trs
  end
  else e2e r ~rs ~lat ~setup_s ~heap;
  Check.run check r;
  info r "size" (num (float_of_int cfg.tree_size));
  info r "pool" (num (float_of_int cfg.tree_pool));
  info r "rounds" (num (float_of_int (List.length rs)));
  r

(* --- hot_cached and rw_mixed ----------------------------------------------------- *)

let cached cfg ~seed ~traced ~rw =
  let r = new_run (if rw then "rw_mixed" else "hot_cached") traced in
  let inst = Inputs.dif ~seed ~size:cfg.cached_size in
  let sk = Inputs.skewed ~pool_size:cfg.cached_pool ~hot:cfg.hot inst in
  let schema = Instance.schema inst in
  let setup_s, (eng, cache, dir) =
    setup cfg (fun () ->
        let cache = Cache.create () in
        if rw then begin
          let dir = Directory.create inst in
          Cache.attach cache dir;
          ( Engine.create ~result_cache:cache ~directory:dir (Directory.instance dir),
            cache,
            Some dir )
        end
        else (Engine.create ~result_cache:cache inst, cache, None))
  in
  let current () = match dir with Some d -> Directory.instance d | None -> inst in
  let n = Array.length sk.Inputs.pool in
  let served = Array.make n false
  and hit_checked = Array.make n false
  and stale_seen = Array.make n false in
  let check = Check.create () and c = counters () in
  let lat = acc () and hit_us = acc () and miss_ms = acc () in
  let modify_us = acc () and after_write = acc () and visible = acc () in
  let reads = ref 0 and last_write_ms = ref None in
  (* A read, classified by the cache counters' movement around it.  The
     first serve of every 10th pool query and of every hot query is
     checked, and the first hit of every query, as is the first hit
     after its entry went stale, and under writes every 20th read. *)
  let is_hot = Array.make n false in
  Array.iter (fun i -> is_hot.(i) <- true) sk.Inputs.hot;
  let do_read ~col ~counting idx =
    let text = sk.Inputs.pool.(idx) in
    let s0 = Cache.stats cache in
    let a0 = Gc.allocated_bytes () in
    let out, dt = read eng ~schema ~col text in
    let a1 = Gc.allocated_bytes () in
    let s1 = Cache.stats cache in
    let hit = s1.Cache.hits > s0.Cache.hits && s1.Cache.misses = s0.Cache.misses
    and stale = s1.Cache.stale > s0.Cache.stale in
    if counting then begin
      c.alloc <- c.alloc +. (a1 -. a0);
      c.rows <- c.rows + Ext_list.length out;
      c.queries <- c.queries + 1
    end;
    if Option.is_none col then begin
      push lat (dt *. 1e3);
      if hit then push hit_us (dt *. 1e6) else push miss_ms (dt *. 1e3);
      Option.iter
        (fun m ->
          push after_write (dt *. 1e3);
          push visible (m +. (dt *. 1e3)))
        !last_write_ms
    end;
    last_write_ms := None;
    if stale then stale_seen.(idx) <- true;
    if
      ((not served.(idx)) && (is_hot.(idx) || idx mod 10 = 0))
      || (hit && ((not hit_checked.(idx)) || stale_seen.(idx)))
      || (rw && !reads mod 20 = 0)
    then Check.add check ~text ~inst:(current ()) (Check.of_ext out);
    served.(idx) <- true;
    if hit then begin
      hit_checked.(idx) <- true;
      stale_seen.(idx) <- false
    end;
    incr reads;
    dt
  in
  let do_write ~col (dn, v) =
    let d = Option.get dir in
    let modify () =
      Directory.modify d dn [ Directory.Replace ("priority", [ Value.Int v ]) ]
    in
    let res, dt =
      match col with
      | None ->
          let t0 = now () in
          let x = modify () in
          (x, now () -. t0)
      | Some col ->
          let x, sp =
            Layers.request "request" (fun () -> Trace.with_span "Directory.modify" modify)
          in
          Layers.add col sp;
          (x, span_s sp)
    in
    (match res with
    | Ok () -> ()
    | Error e ->
        r.failed <- r.failed + 1;
        Format.eprintf "ndqbench: rw_mixed: write refused: %a@." Directory.pp_error e);
    if Option.is_none col then begin
      push modify_us (dt *. 1e6);
      last_write_ms := Some (dt *. 1e3)
    end;
    dt
  in
  (* A hot_cached round is one round of the request stream.  A
     read/write round is [rw_round] operations, every 20th a write; its
     reads continue the request stream where the last round left it. *)
  let len = if rw then cfg.rw_round else Inputs.round_len sk in
  let stream = Hashtbl.create 4 in
  let request m =
    let k = m / Inputs.round_len sk in
    let a =
      match Hashtbl.find_opt stream k with
      | Some a -> a
      | None ->
          Hashtbl.reset stream;
          let a = Inputs.round sk k in
          Hashtbl.replace stream k a;
          a
    in
    a.(m mod Inputs.round_len sk)
  in
  let next_read = ref 0 in
  let round ~col ~counting j =
    let ws =
      if rw then Inputs.writes ~seed:(Inputs.sub_seed seed (300 + j)) inst (len / 20)
      else [||]
    in
    let secs = ref 0. in
    for i = 0 to len - 1 do
      secs :=
        !secs
        +.
        if rw && i mod 20 = 19 then do_write ~col ws.(i / 20)
        else begin
          let m = !next_read in
          incr next_read;
          do_read ~col ~counting (request m)
        end
    done;
    (len, !secs)
  in
  let warm = Inputs.round sk (-1) in
  for i = 0 to min cfg.cached_warmup (Array.length warm) - 1 do
    ignore (do_read ~col:None ~counting:false warm.(i))
  done;
  lat.xs <- [];
  hit_us.xs <- [];
  miss_ms.xs <- [];
  let cs0 = ref (Cache.stats cache) and cs1 = ref (Cache.stats cache) in
  let pass ~col ~seconds =
    rounds ~seconds (fun j ->
        if j = 0 && Option.is_none col then begin
          cs0 := Cache.stats cache;
          let x = counted eng c (fun () -> round ~col ~counting:true j) in
          cs1 := Cache.stats cache;
          x
        end
        else round ~col ~counting:false j)
  in
  let rs = pass ~col:None ~seconds:(if traced then split3 cfg else cfg.seconds) in
  r.attempted <- total_ops rs;
  let heap = c.top_heap in
  let median a = Bstats.median (arr a) in
  put r "cache.hit_us" (median hit_us) "us";
  put r "cache.miss_ms" (median miss_ms) "ms";
  if rw then begin
    put r "model.modify_us" (median modify_us) "us";
    put r "index.after_write_query_ms" (median after_write) "ms";
    put r "write_visible_ms" (median visible) "ms"
  end;
  if traced then begin
    let col = Layers.create ~sampled:[ "Engine.eval" ] () in
    let a = !cs0 and b = !cs1 in
    let d f = f b - f a in
    let lookups = d (fun s -> s.Cache.hits + s.Cache.misses + s.Cache.stale) in
    put r "cache.hit_rate"
      (float_of_int (d (fun s -> s.Cache.hits)) /. float_of_int (max 1 lookups))
      "ratio";
    put r "cache.stale" (float_of_int (d (fun s -> s.Cache.stale))) "count";
    put r "cache.evictions" (float_of_int (d (fun s -> s.Cache.evictions))) "count";
    put r "cache.rejects" (float_of_int (d (fun s -> s.Cache.rejects))) "count";
    no_srv r;
    let trs =
      traced_tail r ~eng ~schema ~inst:(current ()) ~col ~c ~rs ~texts:sk.Inputs.pool ~heap
        ~exec:"Engine.eval" ~seconds:(split3 cfg) pass
    in
    r.attempted <- r.attempted + total_ops trs
  end
  else e2e r ~rs ~lat ~setup_s ~heap;
  Check.run check r;
  info r "size" (num (float_of_int cfg.cached_size));
  info r "pool" (num (float_of_int cfg.cached_pool));
  info r "round_ops" (num (float_of_int len));
  info r "rounds" (num (float_of_int (List.length rs)));
  r

(* --- serve_mix ------------------------------------------------------------------- *)

let verify_served r inst reqs =
  let memo = Hashtbl.create 64 in
  Array.iter
    (fun (q : Served.req) ->
      if q.Served.keep && q.Served.status = Served.Ok then begin
        let want =
          match Hashtbl.find_opt memo q.Served.text with
          | Some w -> w
          | None ->
              let w =
                List.map (fun e -> Dn.to_string (Entry.dn e)) (Check.oracle inst q.Served.text)
              in
              Hashtbl.add memo q.Served.text w;
              w
        in
        r.checked <- r.checked + 1;
        if List.rev q.Served.rows <> want then begin
          r.mismatches <- r.mismatches + 1;
          Printf.eprintf "ndqbench: serve_mix: wrong rows for %s\n%!" q.Served.text
        end
      end)
    reqs

(* Where a served request's time went, from client timestamps and the
   server's [wall_us] trailer. *)
let srv_breakdown r reqs =
  let oks = Served.oks reqs in
  let p g q = Bstats.percentile (Array.map g oks) q in
  put r "srv.server_p50_ms" (p Served.server_ms 0.5) "ms";
  put r "srv.server_p99_ms" (p Served.server_ms 0.99) "ms";
  put r "srv.wire_p50_ms" (p Served.wire_ms 0.5) "ms";
  put r "srv.wire_p99_ms" (p Served.wire_ms 0.99) "ms";
  put r "srv.first_row_p50_ms" (p Served.first_row_ms 0.5) "ms";
  put r "srv.client_p50_ms" (p Served.client_ms 0.5) "ms";
  put r "srv.gen_late_p99_ms" (Bstats.percentile (Served.gen_late_ms reqs) 0.99) "ms";
  let stalls = Served.count (fun q -> Served.wire_ms q > 10.) oks in
  (oks, float_of_int stalls /. float_of_int (max 1 (Array.length oks)))

(* The capacity ladder: each rate for one step, stopping at the first
   that misses p95 <= 100 ms, completes under 99% of its offered
   requests within the step plus 1 s, or fails any. *)
let ladder cfg ~conns ~texts =
  let rec go first cap acc = function
    | [] -> (cap, List.rev acc)
    | rate :: rest ->
        let _, reqs =
          Served.phase (conns ()) ~policy:(Served.Open rate) ~seconds:cfg.step_s
            ~grace:1. ~texts ~first ~keep:(fun _ -> false)
        in
        let offered = Array.length reqs in
        let completed = Array.length (Served.oks reqs) in
        let failed =
          Served.count
            (fun q ->
              match q.Served.status with
              | Served.Busy | Served.Deadline | Served.Error -> true
              | _ -> false)
            reqs
        in
        let p95 = Bstats.percentile (Served.latencies_ms reqs) 0.95 in
        let pass =
          p95 <= 100.
          && float_of_int completed >= 0.99 *. float_of_int offered
          && failed = 0
        in
        let step =
          Json.Obj
            [
              ("rate", num rate);
              ("offered", num (float_of_int offered));
              ("completed", num (float_of_int completed));
              ("failed", num (float_of_int failed));
              ("p95_ms", num p95);
              ( "gen_late_p99_ms",
                num (Bstats.percentile (Served.gen_late_ms reqs) 0.99) );
              ("pass", Json.Bool pass);
            ]
        in
        if pass then go (first + offered) rate (step :: acc) rest
        else (cap, List.rev (step :: acc))
  in
  go 0 0. [] cfg.ladder

let serve cfg ~seed ~traced =
  let r = new_run "serve_mix" traced in
  (* the load generator's own copy of the instance, for the oracle and
     the replay *)
  let inst = Inputs.dif ~seed ~size:cfg.serve_size in
  let texts =
    Query_mix.generate ~seed:Inputs.template_seed
      ~count:(max 2_000 (int_of_float (serve_rate *. cfg.seconds *. 2.)))
      inst
  in
  Served.with_child ~seed ~size:cfg.serve_size ~setups:cfg.setups (fun child ->
      info r "server_pid" (num (float_of_int child.Served.pid));
      let conns = ref [||] in
      let fresh () =
        if !conns = [||] || Array.exists (fun c -> c.Served.dead) !conns then begin
          Array.iter Served.close !conns;
          conns := Array.init 2 (fun _ -> Served.connect child.Served.port)
        end;
        !conns
      in
      Fun.protect ~finally:(fun () -> Array.iter Served.close !conns) @@ fun () ->
      let measured = ref [] in
      let phase ~policy ~seconds ~first ~keep =
        let t0, reqs = Served.phase (fresh ()) ~policy ~seconds ~grace:1. ~texts ~first ~keep in
        measured := reqs :: !measured;
        (t0, reqs)
      in
      ignore
        (Served.phase (fresh ()) ~policy:(Served.Closed 1) ~seconds:0.3 ~grace:2. ~texts
           ~first:0 ~keep:(fun _ -> false));
      let every5 k = k mod 5 = 0 in
      if not traced then begin
        let _, a =
          phase ~policy:(Served.Open serve_rate) ~seconds:(0.65 *. cfg.seconds)
            ~first:200 ~keep:every5
        in
        let dur = 0.25 *. cfg.seconds in
        let tb, b =
          phase ~policy:(Served.Closed cfg.serve_window) ~seconds:dur
            ~first:(200 + Array.length a) ~keep:every5
        in
        let done_in_time =
          Served.count (fun q -> Served.ok q && q.Served.fin <= tb +. dur) b
        in
        let heap = Served.heap_bytes child /. 1e6 in
        let lat = Served.latencies_ms a in
        put r "throughput_qps" (float_of_int done_in_time /. dur) "ops/s";
        put r "p50_ms" (Bstats.percentile lat 0.5) "ms";
        put r "p99_ms" (Bstats.percentile lat 0.99) "ms";
        put r "setup_s" child.Served.setup_s "s";
        put r "peak_heap_mb" heap "MB";
        ignore (srv_breakdown r a);
        verify_served r inst a;
        verify_served r inst b
      end
      else begin
        let _, a =
          phase ~policy:(Served.Open serve_rate) ~seconds:(split3 cfg) ~first:200
            ~keep:every5
        in
        let oks, stall = srv_breakdown r a in
        put r "srv.wire_stall_frac" stall "ratio";
        put r "srv.busy"
          (float_of_int (Served.count (fun q -> q.Served.status = Served.Busy) a))
          "count";
        put r "srv.deadline"
          (float_of_int (Served.count (fun q -> q.Served.status = Served.Deadline) a))
          "count";
        let cap, steps =
          ladder cfg ~conns:fresh ~texts:(Array.sub texts 200 (Array.length texts - 200))
        in
        put r "srv.capacity_qps" cap "q/s";
        info r "ladder" (Json.Arr steps);
        let heap = Served.heap_bytes child /. 1e6 in
        verify_served r inst a;
        (* the server's layers, from a replay of the same stream on a
           worker-identical engine *)
        let eng = Engine.create ~block:64 inst in
        let schema = Instance.schema inst in
        let stream = Array.map (fun q -> q.Served.text) a in
        let chunk = 100 in
        let nchunks = max 1 (Array.length stream / chunk) in
        let c = counters () in
        let round ~col ~counting j =
          let secs = ref 0. and ops = ref 0 in
          for i = 0 to min chunk (Array.length stream) - 1 do
            let text = stream.((((j mod nchunks) * chunk) + i) mod Array.length stream) in
            let a0 = Gc.allocated_bytes () in
            let rows, dt = src_read eng ~schema ~col text in
            if counting then begin
              c.alloc <- c.alloc +. (Gc.allocated_bytes () -. a0);
              c.rows <- c.rows + rows;
              c.queries <- c.queries + 1
            end;
            secs := !secs +. dt;
            incr ops
          done;
          (!ops, !secs)
        in
        let pass ~col ~seconds =
          rounds ~seconds (fun j ->
              if j = 0 && Option.is_none col then
                counted eng c (fun () -> round ~col ~counting:true j)
              else round ~col ~counting:false j)
        in
        let third = split3 cfg /. 3. in
        let rs = pass ~col:None ~seconds:third in
        let col =
          Layers.create ~sampled:[ "Qparser.of_string"; "Engine.eval_node_src" ] ()
        in
        no_cache r;
        ignore
          (traced_tail r ~eng ~schema ~inst ~col ~c ~rs ~texts:stream ~heap
             ~exec:"Engine.eval_node_src" ~seconds:third pass);
        put r "srv.residual_p50_ms"
          (Bstats.percentile (Array.map Served.server_ms oks) 0.5
          -. Bstats.percentile (Layers.samples col "Qparser.of_string") 0.5
          -. Bstats.percentile (Layers.samples col "Engine.eval_node_src") 0.5)
          "ms"
      end;
      List.iter
        (fun reqs ->
          r.attempted <- r.attempted + Array.length reqs;
          r.failed <- r.failed + Served.failures reqs)
        !measured);
  info r "size" (num (float_of_int cfg.serve_size));
  info r "rate" (num serve_rate);
  info r "workers" (num (float_of_int Served.workers));
  info r "connections" (num 2.);
  r
