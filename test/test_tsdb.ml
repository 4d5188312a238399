(* The flight recorder: the windowed time-series store's delta/ring
   semantics, tail-based trace sampling, OpenMetrics exemplar
   round-trips, windowed alert rules, and clean start/stop of every
   background thread the observability layer spawns. *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A one-root span tree with [spans] nodes, all sharing one trace id. *)
let mk_span ?(spans = 1) ?trace_id () =
  let tid =
    match trace_id with Some t -> t | None -> Trace.next_trace_id ()
  in
  let node name =
    {
      Trace.name;
      detail = "";
      trace_id = tid;
      actor = "";
      start_ns = 0;
      elapsed_ns = 1000;
      io = Io_stats.create ();
      alloc_bytes = 0;
      rows = None;
      children = [];
    }
  in
  let root = node "root" in
  root.Trace.children <- List.init (spans - 1) (fun i -> node (string_of_int i));
  root

(* Save and restore the tail sampler's global knobs around a test. *)
let with_tail_defaults f =
  let thr = Tail.slow_threshold_ns ()
  and every = Tail.sample_every ()
  and budget = Tail.budget_spans () in
  Fun.protect
    ~finally:(fun () ->
      Tail.set_slow_threshold_ns thr;
      Tail.set_sample_every every;
      Tail.set_budget_spans budget;
      Tail.clear ())
    (fun () ->
      Tail.clear ();
      f ())

(* --- The time-series store ------------------------------------------------- *)

let test_counter_deltas_and_reset () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry () in
  let c = Metrics.counter ~registry "req_total" in
  Metrics.add c 5;
  Tsdb.sample t;
  Metrics.add c 3;
  Tsdb.sample t;
  let sum () =
    List.fold_left
      (fun acc (_, v) -> acc +. Option.value ~default:0. v)
      0.
      (Tsdb.range t ~window_s:3600. ~agg:Tsdb.Sum "req_total")
  in
  Alcotest.(check (float 1e-9)) "deltas sum to the cumulative" 8. (sum ());
  (* A counter reset (registry reset, process restart) must not produce
     a negative delta: the new cumulative value is the delta. *)
  Metrics.reset registry;
  Metrics.add c 2;
  Tsdb.sample t;
  Alcotest.(check (float 1e-9)) "reset restarts from the new value" 10. (sum ())

let test_ring_wraparound () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry ~capacity:4 () in
  let c = Metrics.counter ~registry "tick_total" in
  for _ = 1 to 10 do
    Metrics.incr c;
    Tsdb.sample t
  done;
  Alcotest.(check int) "ring holds its capacity" 4 (Tsdb.window_count t);
  let sum =
    List.fold_left
      (fun acc (_, v) -> acc +. Option.value ~default:0. v)
      0.
      (Tsdb.range t ~window_s:3600. ~agg:Tsdb.Sum "tick_total")
  in
  Alcotest.(check (float 1e-9)) "only the surviving windows count" 4. sum

(* Window numbers select by sample order, whatever the clock says; a
   run partly overwritten by the ring reads what survives. *)
let test_range_by_window_number () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry ~capacity:4 () in
  let c = Metrics.counter ~registry "n_total" in
  for i = 1 to 10 do
    Metrics.add c i;
    Tsdb.sample t
  done;
  Alcotest.(check int) "newest window number" 10 (Tsdb.seq t);
  let sum seqs =
    match Tsdb.range t ~seqs ~agg:Tsdb.Sum "n_total" with
    | [ (_, v) ] -> Option.value ~default:0. v
    | _ -> Alcotest.fail "a numbered run is one bucket"
  in
  Alcotest.(check (float 0.)) "one window" 9. (sum (8, 9));
  Alcotest.(check (float 0.)) "the newest two" 19. (sum (8, 10));
  Alcotest.(check (float 0.)) "overwritten windows are gone" 34. (sum (0, 10));
  Alcotest.(check (float 0.)) "an empty run" 0. (sum (10, 10))

let test_quantile_over_empty_window () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry () in
  Tsdb.sample t;
  let pts =
    Tsdb.range t ~window_s:60. ~agg:(Tsdb.Quantile 0.99) "no_such_ns"
  in
  Alcotest.(check bool) "buckets are returned" true (pts <> []);
  Alcotest.(check bool)
    "every bucket is empty" true
    (List.for_all (fun (_, v) -> v = None) pts)

let test_histogram_window_quantile () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry () in
  let h = Metrics.histogram ~registry "lat_ns" in
  for _ = 1 to 100 do
    Metrics.observe h 1000.
  done;
  Tsdb.sample t;
  let value agg =
    List.fold_left
      (fun acc (_, v) -> if v <> None then v else acc)
      None
      (Tsdb.range t ~window_s:60. ~agg "lat_ns")
  in
  (match value (Tsdb.Quantile 0.99) with
  | None -> Alcotest.fail "p99 over the window is empty"
  | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "p99 %.0f inside the covering power-of-two bucket" v)
        true
        (v >= 512. && v <= 1024.));
  (* A second window with no observations: the histogram emits no
     delta, so the per-window quantile goes back to None. *)
  Tsdb.sample t;
  let recent =
    Tsdb.range t ~window_s:0.000001 ~agg:(Tsdb.Quantile 0.99) "lat_ns"
  in
  Alcotest.(check bool)
    "a quiet window has no quantile" true
    (List.for_all (fun (_, v) -> v = None) recent)

let test_save_load_byte_identical () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry ~resolution_s:0.5 ~capacity:16 () in
  let c = Metrics.counter ~registry "ops_total" in
  let g = Metrics.gauge ~registry "depth" in
  let h = Metrics.histogram ~registry ~labels:[ ("route", "q") ] "ns" in
  for i = 1 to 3 do
    Metrics.add c (i * 7);
    Metrics.set g (float_of_int i /. 3.);
    Metrics.observe h (float_of_int (i * 997));
    Tsdb.sample t
  done;
  let doc = Tsdb.to_json_lines t in
  let path = Filename.temp_file "tsdb" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tsdb.save t path;
      let loaded = Tsdb.load path in
      Alcotest.(check int)
        "window count survives" (Tsdb.window_count t)
        (Tsdb.window_count loaded);
      Alcotest.(check string)
        "save . load round-trips byte-identically" doc
        (Tsdb.to_json_lines loaded))

let test_concurrent_sample_while_query () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry ~capacity:32 () in
  let c = Metrics.counter ~registry "spin_total" in
  let h = Metrics.histogram ~registry "spin_ns" in
  let stop = ref false in
  let writer =
    Thread.create
      (fun () ->
        while not !stop do
          Metrics.incr c;
          Metrics.observe h 512.;
          Tsdb.sample t;
          Thread.yield ()
        done)
      ()
  in
  for i = 1 to 500 do
    List.iter
      (fun agg -> ignore (Tsdb.range t ~window_s:60. ~agg "spin_total"))
      [ Tsdb.Sum; Tsdb.Rate; Tsdb.Max ];
    ignore (Tsdb.range t ~window_s:60. ~agg:(Tsdb.Quantile 0.5) "spin_ns");
    ignore (Tsdb.to_json_lines t);
    (* Give the writer real turns on the master lock — a tight query
       loop can starve it under systhreads. *)
    if i mod 50 = 0 then Thread.delay 0.001
  done;
  stop := true;
  Thread.join writer;
  Alcotest.(check bool) "windows recorded" true (Tsdb.window_count t > 0)

let test_sampler_thread () =
  let registry = Metrics.create () in
  let t = Tsdb.create ~registry ~resolution_s:0.01 () in
  Alcotest.(check bool) "not running before start" false (Tsdb.running t);
  Tsdb.start t;
  Tsdb.start t;  (* idempotent *)
  Alcotest.(check bool) "running after start" true (Tsdb.running t);
  Thread.delay 0.08;
  Tsdb.stop t;
  Tsdb.stop t;  (* idempotent *)
  Alcotest.(check bool) "stopped after stop" false (Tsdb.running t);
  Alcotest.(check bool) "sampler recorded windows" true (Tsdb.window_count t > 2)

(* --- Tail-based trace sampling --------------------------------------------- *)

let test_tail_reasons () =
  with_tail_defaults (fun () ->
      Tail.set_slow_threshold_ns 1_000_000;
      Tail.set_sample_every 0;
      let consider outcome wall =
        Tail.consider ~origin:"srv" ~outcome ~wall_ns:wall (mk_span ())
      in
      Alcotest.(check bool) "shed retained" true (consider `Shed 10 = Some Tail.Shed);
      Alcotest.(check bool)
        "deadline retained" true
        (consider `Deadline 10 = Some Tail.Deadline);
      Alcotest.(check bool)
        "error retained" true
        (consider `Error 10 = Some Tail.Errored);
      Alcotest.(check bool)
        "slow ok retained" true
        (consider `Ok 2_000_000 = Some Tail.Slow);
      Alcotest.(check bool)
        "fast ok dropped with sampling off" true
        (consider `Ok 10 = None);
      Tail.set_sample_every 1;
      Alcotest.(check bool)
        "1-in-1 baseline retains a fast ok" true
        (consider `Ok 10 = Some Tail.Sampled);
      Alcotest.(check int) "all retained are found" 5 (Tail.retained_count ()))

let test_tail_budget_eviction () =
  with_tail_defaults (fun () ->
      Tail.set_slow_threshold_ns 0;
      Tail.set_sample_every 0;
      Tail.set_budget_spans 3;
      let ids =
        List.init 5 (fun _ ->
            let sp = mk_span () in
            ignore
              (Tail.consider ~origin:"srv" ~outcome:`Ok ~wall_ns:10_000 sp);
            sp.Trace.trace_id)
      in
      Alcotest.(check bool)
        "retention inside the budget" true
        (Tail.retained_spans () <= 3);
      let newest = List.nth ids 4 in
      Alcotest.(check bool)
        "the newest trace survives" true
        (Tail.find newest <> None);
      Alcotest.(check bool)
        "the oldest was evicted" true
        (Tail.find (List.nth ids 0) = None))

let test_tail_dedup_keeps_bigger_tree () =
  with_tail_defaults (fun () ->
      Tail.set_slow_threshold_ns 0;
      Tail.set_sample_every 0;
      let check_order first second =
        Tail.clear ();
        let tid = Trace.next_trace_id () in
        ignore
          (Tail.consider ~origin:"engine" ~outcome:`Ok ~wall_ns:10_000
             (mk_span ~spans:first ~trace_id:tid ()));
        ignore
          (Tail.consider ~origin:"srv" ~outcome:`Ok ~wall_ns:10_000
             (mk_span ~spans:second ~trace_id:tid ()));
        Alcotest.(check int) "one entry per trace id" 1 (Tail.retained_count ());
        match Tail.find tid with
        | None -> Alcotest.fail "trace not retained"
        | Some r ->
            Alcotest.(check int)
              "the bigger tree wins" (max first second)
              (Trace.span_count r.Tail.r_span)
      in
      check_order 1 3;
      check_order 3 1)

let test_slow_threshold_boundary () =
  (* one predicate: a wall time equal to the threshold is slow for the
     tail verdict and for the engine's journal capture alike *)
  with_tail_defaults (fun () ->
      let t = 1_000_000 in
      Tail.set_slow_threshold_ns t;
      Tail.set_sample_every 0;
      let verdict wall_ns =
        Tail.consider ~origin:"srv" ~outcome:`Ok ~wall_ns (mk_span ())
      in
      Alcotest.(check bool) "wall = threshold is slow" true
        (verdict t = Some Tail.Slow);
      Alcotest.(check bool) "just under is not" true (verdict (t - 1) = None);
      (* the journal captures through the same predicate, on the wall
         time it journals *)
      let eng = Engine.create ~block:16 (Dif_gen.karily ~fanout:4 ~size:50 ()) in
      let q = Qparser.of_string "( ? sub ? tag=even)" in
      let path = Filename.temp_file "ndq_capture" ".jsonl" in
      Qlog.enable ~append:false path;
      Fun.protect
        ~finally:(fun () ->
          Qlog.disable ();
          Sys.remove path)
        (fun () ->
          let captured threshold =
            Tail.set_slow_threshold_ns threshold;
            ignore (Engine.eval eng q);
            let ev = List.hd (List.rev (Qlog.load path)) in
            Alcotest.(check bool) "captured iff is_slow of the journaled wall"
              (Tail.is_slow ev.Qlog.wall_ns) (ev.Qlog.capture <> None);
            ev.Qlog.capture <> None
          in
          Alcotest.(check bool) "a zero threshold captures" true (captured 0);
          Alcotest.(check bool) "an hour's threshold does not" false
            (captured 3_600_000_000_000)))

let test_tail_merge_keeps_event () =
  with_tail_defaults (fun () ->
      Tail.set_slow_threshold_ns 0;
      Tail.set_sample_every 0;
      let ev =
        Qlog.record ~query:"q" ~fingerprint:"f" ~result_count:0 ~reads:0
          ~writes:0 ~wall_ns:10 ~outcome:Qlog.Ok ()
      in
      let check_order ~event_first =
        Tail.clear ();
        let tid = Trace.next_trace_id () in
        (* the event rides on the smaller tree, in either arrival order *)
        let small () =
          ignore
            (Tail.consider ~event:ev ~origin:"engine" ~outcome:`Ok ~wall_ns:10
               (mk_span ~trace_id:tid ()))
        and big () =
          ignore
            (Tail.consider ~origin:"srv" ~outcome:`Ok ~wall_ns:20
               (mk_span ~spans:3 ~trace_id:tid ()))
        in
        if event_first then (small (); big ()) else (big (); small ());
        (match Tail.find tid with
        | None -> Alcotest.fail "trace not retained"
        | Some r ->
            Alcotest.(check int) "the bigger tree wins" 3
              (Trace.span_count r.Tail.r_span);
            Alcotest.(check (option int)) "the event is kept" (Some ev.Qlog.seq)
              (Option.map (fun e -> e.Qlog.seq) r.Tail.r_event));
        Alcotest.(check int) "one slowlog line" 1 (List.length (Tail.slowlog 64))
      in
      check_order ~event_first:true;
      check_order ~event_first:false)

(* --- Exemplars -------------------------------------------------------------- *)

let test_exemplar_roundtrip () =
  with_tail_defaults (fun () ->
      Tail.set_slow_threshold_ns 0;
      Tail.set_sample_every 0;
      let registry = Metrics.create () in
      let h = Metrics.histogram ~registry "req_ns" in
      let sp = mk_span () in
      let tid = sp.Trace.trace_id in
      ignore (Tail.consider ~origin:"srv" ~outcome:`Ok ~wall_ns:5000 sp);
      Metrics.observe ~trace_id:tid h 5000.;
      Metrics.observe h 100.;  (* no trace id: no exemplar on that bin *)
      let om = Promexp.to_openmetrics registry in
      Alcotest.(check bool)
        "exemplar on the bucket line" true
        (contains ~affix:(Printf.sprintf "# {trace_id=\"%s\"}" tid) om);
      Alcotest.(check bool)
        "page ends with # EOF" true
        (contains ~affix:"# EOF\n"
           (String.sub om (String.length om - 6) 6));
      Alcotest.(check bool)
        "prometheus text has no exemplars" false
        (contains ~affix:"trace_id" (Promexp.to_text registry));
      (* The round trip: the id printed on /metrics resolves to the
         retained trace — what an operator pasting it into /trace/<id>
         relies on. *)
      (match Tail.find tid with
      | Some r -> Alcotest.(check string) "joins the tail store" tid r.Tail.r_trace_id
      | None -> Alcotest.fail "exemplar id not in the tail store");
      Alcotest.(check bool)
        "openmetrics content type" true
        (contains ~affix:"openmetrics-text" Promexp.content_type_openmetrics))

(* --- Windowed alert rules ---------------------------------------------------- *)

let test_alerts_over_window () =
  let registry = Metrics.create () in
  let tsdb = Tsdb.create ~registry () in
  let a = Alerts.create ~tsdb () in
  let g = Metrics.gauge ~registry "load_g" in
  Metrics.set g 10.;
  Tsdb.sample tsdb;
  ignore (Alerts.add a ~name:"hot" "load_g over(60s) > 5");
  ignore (Alerts.add a ~name:"quiet" "absent_g over(60s) > 0");
  Alerts.tick a;
  Alcotest.(check bool)
    "windowed rule fires on recorded data" true
    (Alerts.state a "hot" = Some Alerts.Firing);
  Alcotest.(check bool)
    "windowed rule over missing series stays inactive" true
    (Alerts.state a "quiet" = Some Alerts.Inactive);
  (match Alerts.parse "x over(oops) > 1" with
  | exception Alerts.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad window must not parse");
  match Alerts.parse "rate(c_total) over(30s) > 2 for 3" with
  | Alerts.Threshold (Alerts.Source (Alerts.Windowed (Alerts.Rate _, w)), _, _), 3
    ->
      Alcotest.(check (float 1e-9)) "window seconds" 30. w
  | _ -> Alcotest.fail "windowed rate did not parse to Windowed(Rate)"

let test_alerts_exemplar_on_transition () =
  let registry = Metrics.create () in
  let a = Alerts.create ~tsdb:(Tsdb.create ~registry ()) () in
  let h = Metrics.histogram ~registry "slow_ns" in
  let tid = Trace.next_trace_id () in
  Metrics.observe ~trace_id:tid h 1e9;
  ignore (Alerts.add a ~name:"lat" "slow_ns p99 > 1");
  Alerts.tick a;
  Alcotest.(check bool)
    "firing rule carries the exemplar" true
    (Alerts.last_exemplar a "lat" = Some tid);
  (match Alerts.history a with
  | tr :: _ ->
      Alcotest.(check bool)
        "the transition records it" true
        (tr.Alerts.tr_exemplar = Some tid)
  | [] -> Alcotest.fail "no transition recorded");
  (* Resolution drops the live exemplar but the history keeps it. *)
  Alerts.tick a;  (* quantile window empties: resolves *)
  Alcotest.(check bool)
    "resolved rule has no live exemplar" true
    (Alerts.last_exemplar a "lat" = None);
  match Alerts.history a with
  | tr :: _ ->
      Alcotest.(check string) "to resolved" "resolved" tr.Alerts.tr_to;
      Alcotest.(check bool)
        "the incident's exemplar rides out" true
        (tr.Alerts.tr_exemplar = Some tid)
  | [] -> Alcotest.fail "no resolution transition"

(* --- Clean shutdown ----------------------------------------------------------- *)

let linux = Sys.file_exists "/proc/self/status"

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let thread_count () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line ->
        if String.length line > 8 && String.sub line 0 8 = "Threads:" then
          int_of_string (String.trim (String.sub line 8 (String.length line - 8)))
        else go ()
    | exception End_of_file -> -1
  in
  let n = go () in
  close_in ic;
  n

(* Repeatedly start and stop every background thread the observability
   stack spawns — the server (accept loop, workers, sessions) and the
   tsdb sampler — and require the process back at its baseline
   thread and fd counts: the ndqsh exit path in miniature, five times
   over. *)
let test_shutdown_stress () =
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with seed = 3; size = 60 }
      ()
  in
  (* The first Thread.create spawns the runtime's permanent tick
     thread; warm it up so the baseline includes it. *)
  Thread.join (Thread.create ignore ());
  let fds0 = if linux then fd_count () else 0 in
  let threads0 = if linux then thread_count () else 0 in
  (* Joined OCaml threads can take a beat to vanish from the kernel's
     accounting (and the baseline itself may carry a transient), so
     poll until the count settles back under the baseline; a genuine
     leak keeps it above forever. *)
  let settle ~expect count =
    let rec go n = if count () > expect && n > 0 then (Thread.delay 0.01; go (n - 1)) in
    go 100;
    count ()
  in
  for _ = 1 to 5 do
    let registry = Metrics.create () in
    let ts = Tsdb.create ~registry ~resolution_s:0.005 () in
    Tsdb.start ts;
    let srv =
      Srv.start ~registry ~workers:2 ~queue:4 ~port:0
        ~make_engine:(fun () -> Engine.create ~block:32 instance)
        ()
    in
    let status, _ = Monitor.get ~port:(Srv.port srv) "/healthz" in
    Alcotest.(check int) "monitor serves while up" 200 status;
    Thread.delay 0.02;
    Srv.stop srv;
    Tsdb.stop ts;
    Alcotest.(check bool) "sampler stopped" false (Tsdb.running ts)
  done;
  if linux then begin
    Alcotest.(check bool) "no fd leak across start/stop" true
      (settle ~expect:fds0 fd_count <= fds0);
    Alcotest.(check bool) "no thread leak across start/stop" true
      (settle ~expect:threads0 thread_count <= threads0)
  end

let () =
  Alcotest.run "tsdb"
    [
      ( "store",
        [
          Alcotest.test_case "counter deltas + reset" `Quick
            test_counter_deltas_and_reset;
          Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
          Alcotest.test_case "range by window number" `Quick
            test_range_by_window_number;
          Alcotest.test_case "quantile over empty window" `Quick
            test_quantile_over_empty_window;
          Alcotest.test_case "histogram window quantile" `Quick
            test_histogram_window_quantile;
          Alcotest.test_case "save/load byte-identical" `Quick
            test_save_load_byte_identical;
          Alcotest.test_case "concurrent sample + query" `Quick
            test_concurrent_sample_while_query;
          Alcotest.test_case "sampler thread" `Quick test_sampler_thread;
        ] );
      ( "tail",
        [
          Alcotest.test_case "retention reasons" `Quick test_tail_reasons;
          Alcotest.test_case "budget eviction" `Quick
            test_tail_budget_eviction;
          Alcotest.test_case "slow threshold boundary" `Quick
            test_slow_threshold_boundary;
          Alcotest.test_case "merge keeps the event" `Quick
            test_tail_merge_keeps_event;
          Alcotest.test_case "dedup keeps bigger tree" `Quick
            test_tail_dedup_keeps_bigger_tree;
        ] );
      ( "exemplars",
        [
          Alcotest.test_case "openmetrics round-trip" `Quick
            test_exemplar_roundtrip;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "over(window) sources" `Quick
            test_alerts_over_window;
          Alcotest.test_case "exemplar on transitions" `Quick
            test_alerts_exemplar_on_transition;
        ] );
      ( "shutdown",
        [ Alcotest.test_case "start/stop stress" `Quick test_shutdown_stress ] );
    ]
