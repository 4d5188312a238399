(* Tests for the observability layer: metrics registry semantics,
   span-tree nesting, the journal and its slowlog view in Tail, and
   per-operator profiling through Explain. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

(* --- Metrics ---------------------------------------------------------------- *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "requests_total" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "value" 5 (Metrics.counter_value c);
  let again = Metrics.counter ~registry:r "requests_total" in
  Metrics.incr again;
  Alcotest.(check int) "same series" 6 (Metrics.counter_value c)

let test_counter_labels () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r ~labels:[ ("server", "s0") ] "msgs" in
  let b = Metrics.counter ~registry:r ~labels:[ ("server", "s1") ] "msgs" in
  Metrics.add a 3;
  Metrics.incr b;
  Alcotest.(check int) "label set s0" 3 (Metrics.counter_value a);
  Alcotest.(check int) "label set s1" 1 (Metrics.counter_value b);
  (* label order does not matter: same sorted set, same series *)
  let c1 =
    Metrics.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "pair"
  in
  let c2 =
    Metrics.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "pair"
  in
  Metrics.incr c1;
  Metrics.incr c2;
  Alcotest.(check int) "order-insensitive" 2 (Metrics.counter_value c1)

let test_kind_mismatch () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "dual");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: dual already registered as a counter")
    (fun () -> ignore (Metrics.gauge ~registry:r "dual"))

let test_histogram_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "latency" in
  for v = 1 to 100 do
    Metrics.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (Metrics.histogram_count h);
  Alcotest.(check (float 0.001)) "sum" 5050. (Metrics.histogram_sum h);
  (* rank 50 of 1..100 lands in the [32,64) bucket: the estimate may be
     off by the bucketing factor of two, never more *)
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 in [32,64] (got %g)" p50)
    true
    (p50 >= 32. && p50 <= 64.);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 in [64,100] (got %g)" p99)
    true
    (p99 >= 64. && p99 <= 100.);
  (* quantiles clamp to the observed extremes (modulo bucket width) *)
  let p0 = Metrics.quantile h 0. in
  Alcotest.(check bool)
    (Printf.sprintf "q=0 within first bucket (got %g)" p0)
    true
    (p0 >= 1. && p0 <= 2.);
  Alcotest.(check (float 0.001)) "q=1 is max" 100. (Metrics.quantile h 1.)

let test_reset_keeps_handles () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  let h = Metrics.histogram ~registry:r "h" in
  Metrics.add c 7;
  Metrics.observe h 9.;
  Metrics.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h);
  Metrics.incr c;
  Alcotest.(check int) "handle still live" 1 (Metrics.counter_value c)

let test_exporters () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "exported" in
  Metrics.add c 2;
  let text = Fmt.str "%a" Metrics.pp r in
  Alcotest.(check bool) "text has series" true
    (contains text "exported{k=\"v\"} 2");
  let json = Metrics.to_json_lines r in
  Alcotest.(check bool) "json has name" true
    (contains json "\"name\":\"exported\"");
  Alcotest.(check bool) "json has value" true
    (contains json "\"value\":2")

(* --- Trace -------------------------------------------------------------------- *)

let with_tracing f =
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let test_span_nesting () =
  with_tracing (fun () ->
      let stats = Io_stats.create () in
      let (), span =
        Trace.with_span_out ~stats "root" (fun () ->
            Trace.with_span ~stats "child1" (fun () ->
                Io_stats.read_page ~n:2 stats;
                Trace.with_span ~stats "grandchild" (fun () ->
                    Io_stats.write_page stats));
            Trace.with_span ~stats "child2" (fun () ->
                Io_stats.read_page stats))
      in
      match span with
      | None -> Alcotest.fail "no trace recorded"
      | Some root ->
          Alcotest.(check string) "root name" "root" root.Trace.name;
          Alcotest.(check (list string))
            "children in execution order" [ "child1"; "child2" ]
            (List.map (fun s -> s.Trace.name) root.Trace.children);
          Alcotest.(check int) "span count" 4 (Trace.span_count root);
          Alcotest.(check int) "depth" 3 (Trace.depth root);
          (* inclusive I/O rolls up: root saw all 4 transfers *)
          Alcotest.(check int) "root io" 4 (Trace.total_io root);
          let c1 = List.hd root.Trace.children in
          Alcotest.(check int) "child1 reads" 2 c1.Trace.io.Io_stats.page_reads;
          Alcotest.(check int) "child1 writes" 1 c1.Trace.io.Io_stats.page_writes)

let test_span_closes_on_raise () =
  with_tracing (fun () ->
      let (), outer =
        Trace.with_span_out "outer" (fun () ->
            try
              Trace.with_span "boom" (fun () ->
                  Trace.with_span "inner" (fun () -> failwith "expected"))
            with Failure _ -> ())
      in
      (match outer with
      | Some { Trace.children = [ root ]; _ } ->
          Alcotest.(check string) "root recorded" "boom" root.Trace.name;
          Alcotest.(check int) "inner recorded too" 2 (Trace.span_count root)
      | _ -> Alcotest.fail "raising span not recorded");
      (* a raising root unwinds the span stack: no span stays open, so
         the next span lands as a root *)
      (try Trace.with_span "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      Alcotest.(check (option string)) "stack unwound" None
        (Trace.current_trace_id ()))

let test_failing_child_attached () =
  (* a child whose thunk raises is still attached to its parent, with
     its elapsed time recorded, and the parent completes normally *)
  with_tracing (fun () ->
      let (), span =
        Trace.with_span_out "parent" (fun () ->
            (try Trace.with_span "bad child" (fun () -> failwith "expected")
             with Failure _ -> ());
            Trace.with_span "good child" (fun () -> ()))
      in
      match span with
      | None -> Alcotest.fail "no trace recorded"
      | Some root ->
          Alcotest.(check string) "parent completed" "parent" root.Trace.name;
          Alcotest.(check (list string))
            "failing child kept, in order" [ "bad child"; "good child" ]
            (List.map (fun s -> s.Trace.name) root.Trace.children);
          let bad = List.hd root.Trace.children in
          Alcotest.(check bool) "elapsed recorded on failing child" true
            (bad.Trace.elapsed_ns >= 0))

let test_set_rows () =
  with_tracing (fun () ->
      let r, span =
        Trace.with_span_out "op" (fun () ->
            Trace.set_rows 17;
            "result")
      in
      Alcotest.(check string) "value through" "result" r;
      match span with
      | None -> Alcotest.fail "tracing on: span expected"
      | Some s ->
          Alcotest.(check (option int)) "rows annotated" (Some 17) s.Trace.rows);
  (* off: set_rows and with_span_out are no-ops *)
  Trace.set_enabled false;
  let r, span = Trace.with_span_out "ghost" (fun () -> Trace.set_rows 3; 9) in
  Alcotest.(check int) "thunk still runs" 9 r;
  Alcotest.(check bool) "no span when disabled" true (span = None)

let test_disabled_records_nothing () =
  Trace.set_enabled false;
  let r, span =
    Trace.with_span_out "ghost" (fun () ->
        Trace.with_span "inner" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check bool) "nothing recorded" true (span = None);
  Alcotest.(check (option string)) "no ambient trace" None
    (Trace.current_trace_id ())

(* --- Json --------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("n", Json.Num 42.);
        ("neg", Json.Num (-1.5));
        ("s", Json.Str "a \"quoted\"\nline");
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let text = Json.to_string doc in
  Alcotest.(check bool) "roundtrip" true (Json.of_string text = doc);
  (* integral floats print without a fraction *)
  Alcotest.(check string) "integral rendering" "42" (Json.to_string (Json.Num 42.));
  Alcotest.(check string) "fraction kept" "-1.5" (Json.to_string (Json.Num (-1.5)))

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails "{\"a\":1,}";
  fails "\"unterminated";
  fails "1 2";
  (* trailing garbage *)
  fails "nul"

let test_json_lines_and_accessors () =
  let docs = Json.lines "{\"a\":1}\n\n  {\"a\":2}\n" in
  Alcotest.(check int) "two docs, blank skipped" 2 (List.length docs);
  Alcotest.(check (list int)) "members" [ 1; 2 ]
    (List.map (fun d -> Json.to_int (Json.member "a" d)) docs);
  (* Null-tolerant accessors *)
  let d = List.hd docs in
  Alcotest.(check int) "absent member -> 0" 0
    (Json.to_int (Json.member "missing" d));
  Alcotest.(check string) "absent member -> \"\"" ""
    (Json.str (Json.member "missing" d));
  Alcotest.(check int) "absent member -> []" 0
    (List.length (Json.arr (Json.member "missing" d)));
  (* unicode escapes decode to UTF-8 *)
  Alcotest.(check string) "\\u escape" "\xc3\xa9"
    (Json.str (Json.of_string "\"\\u00e9\""))

(* --- Qlog --------------------------------------------------------------------- *)

(* Save and restore the tail store's knobs around a test, starting
   and ending with it empty. *)
let with_tail f =
  let thr = Tail.slow_threshold_ns () and every = Tail.sample_every () in
  Tail.clear ();
  Fun.protect
    ~finally:(fun () ->
      Tail.set_slow_threshold_ns thr;
      Tail.set_sample_every every;
      Tail.clear ())
    f

(* Every Qlog test saves and restores the journal's global state, and
   the one slow threshold. *)
let with_qlog f =
  with_tail @@ fun () ->
  Qlog.disable ();
  Qlog.clear ();
  Fun.protect
    ~finally:(fun () ->
      Qlog.disable ();
      Qlog.clear ())
    f

let temp_journal () =
  let path = Filename.temp_file "ndq_test_journal" ".jsonl" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let test_qlog_roundtrip () =
  with_qlog (fun () ->
      let path = temp_journal () in
      Qlog.enable ~append:false path;
      let ops =
        [
          {
            Qlog.op_name = "execute";
            op_detail = "";
            op_rows = Some 3;
            op_reads = 5;
            op_writes = 0;
            op_ns = 1200;
            op_alloc = Some 4096;
            op_depth = 0;
            op_est_rows = None;
            op_est_reads = None;
            op_est_writes = None;
            op_path = None;
          };
          {
            Qlog.op_name = "atomic";
            op_detail = "( ? sub ? tag=?)";
            op_rows = Some 3;
            op_reads = 5;
            op_writes = 0;
            op_ns = 1000;
            op_alloc = None;
            op_depth = 1;
            op_est_rows = Some 4;
            op_est_reads = Some 6;
            op_est_writes = Some 0;
            op_path = Some "index";
          };
        ]
      in
      let e1 =
        Qlog.record ~ops ~query:"( ? sub ? tag=even)" ~fingerprint:"abc"
          ~result_count:3 ~reads:5 ~writes:0 ~wall_ns:1200 ~alloc_bytes:8192
          ~outcome:Qlog.Ok ~est_card:4 ~est_reads:6 ~est_writes:0 ()
      in
      let e2 =
        Qlog.record ~server:"s0"
          ~shipped:[ ("s1", 2, 900) ]
          ~capture:{ Qlog.span_text = "span"; plan_text = "plan" }
          ~query:"bad" ~fingerprint:"def" ~result_count:0 ~reads:1 ~writes:0
          ~wall_ns:9 ~outcome:(Qlog.Failed "boom") ()
      in
      Alcotest.(check int) "monotonic seq" (e1.Qlog.seq + 1) e2.Qlog.seq;
      Qlog.disable ();
      match Qlog.load path with
      | [ r1; r2 ] ->
          Alcotest.(check bool) "event 1 roundtrips" true (r1 = e1);
          Alcotest.(check bool) "event 2 roundtrips" true (r2 = e2);
          Alcotest.(check bool) "outcome preserved" true
            (r2.Qlog.outcome = Qlog.Failed "boom");
          Alcotest.(check (option string)) "server preserved" (Some "s0")
            r2.Qlog.server;
          Alcotest.(check int) "ops preserved" 2 (List.length r1.Qlog.ops)
      | l -> Alcotest.failf "expected 2 journal lines, got %d" (List.length l))

let test_qlog_append_mode () =
  with_qlog (fun () ->
      let path = temp_journal () in
      let record_one q =
        ignore
          (Qlog.record ~query:q ~fingerprint:"f" ~result_count:0 ~reads:0
             ~writes:0 ~wall_ns:0 ~outcome:Qlog.Ok ())
      in
      Qlog.enable ~append:false path;
      record_one "first";
      Qlog.disable ();
      Qlog.enable path;
      (* default: append *)
      record_one "second";
      Qlog.disable ();
      Alcotest.(check (list string)) "append keeps history" [ "first"; "second" ]
        (List.map (fun e -> e.Qlog.query) (Qlog.load path));
      Qlog.enable ~append:false path;
      record_one "fresh";
      Qlog.disable ();
      Alcotest.(check (list string)) "truncate restarts" [ "fresh" ]
        (List.map (fun e -> e.Qlog.query) (Qlog.load path)))

let test_qlog_slowlog () =
  with_qlog (fun () ->
      (* the slowlog is Tail's view: retained entries holding an event
         that were slow when retained, slowest first *)
      Tail.set_slow_threshold_ns 150;
      Tail.set_sample_every 1;
      let offer ?(event = true) wall_ns =
        let ev =
          Qlog.record
            ~query:(Printf.sprintf "q%d" wall_ns)
            ~fingerprint:"f" ~result_count:0 ~reads:0 ~writes:0 ~wall_ns
            ~outcome:Qlog.Ok ()
        in
        let _, span = Trace.with_span_out "q" (fun () -> ()) in
        ignore
          (Tail.consider
             ?event:(if event then Some ev else None)
             ~origin:"engine" ~outcome:`Ok ~wall_ns (Option.get span))
      in
      with_tracing (fun () ->
          offer 300;
          offer ~event:false 9999;
          (* fast: retained by the 1-in-1 sample, but not slow *)
          offer 100;
          offer 200);
      Alcotest.(check (list int))
        "slowest first, non-slow excluded" [ 300; 200 ]
        (List.map (fun (_, e) -> e.Qlog.wall_ns) (Tail.slowlog 50));
      Alcotest.(check int) "bounded request" 1 (List.length (Tail.slowlog 1));
      Tail.clear ();
      Alcotest.(check int) "clear drops the slowlog" 0
        (List.length (Tail.slowlog 50)))

let test_qlog_ops_of_span () =
  with_tracing (fun () ->
      let stats = Io_stats.create () in
      let (), span =
        Trace.with_span_out ~stats "execute" (fun () ->
            Trace.set_rows 2;
            Trace.with_span ~stats ~detail:"inner" "atomic" (fun () ->
                Io_stats.read_page ~n:3 stats))
      in
      match span with
      | None -> Alcotest.fail "span expected"
      | Some s -> (
          match Qlog.ops_of_span s with
          | [ root; child ] ->
              Alcotest.(check string) "preorder root" "execute"
                root.Qlog.op_name;
              Alcotest.(check int) "root depth" 0 root.Qlog.op_depth;
              Alcotest.(check (option int)) "root rows" (Some 2)
                root.Qlog.op_rows;
              Alcotest.(check int) "root reads (inclusive)" 3
                root.Qlog.op_reads;
              Alcotest.(check string) "child detail" "inner"
                child.Qlog.op_detail;
              Alcotest.(check int) "child depth" 1 child.Qlog.op_depth
          | l -> Alcotest.failf "expected 2 ops, got %d" (List.length l)))

(* --- Engine / Dist journaling -------------------------------------------------- *)

let test_engine_journals_queries () =
  with_qlog (fun () ->
      let instance = Dif_gen.karily ~fanout:4 ~size:200 () in
      let eng = Engine.create ~block:16 instance in
      let path = temp_journal () in
      Qlog.enable ~append:false path;
      Tail.set_slow_threshold_ns 0;
      (* everything is "slow": captures everywhere *)
      let n1 =
        List.length (Engine.eval_entries eng (Qparser.of_string "( ? sub ? tag=even)"))
      in
      ignore (Engine.eval_entries eng (Qparser.of_string "( ? sub ? tag=odd)"));
      Tail.set_slow_threshold_ns max_int;
      (* fast path: no capture *)
      ignore (Engine.eval_entries eng (Qparser.of_string "( ? sub ? priority>=1)"));
      Alcotest.(check bool) "journaling leaves tracing off" false
        (Trace.enabled ());
      Qlog.disable ();
      match Qlog.load path with
      | [ e1; e2; e3 ] ->
          Alcotest.(check int) "result_count journaled" n1 e1.Qlog.result_count;
          Alcotest.(check bool) "reads journaled" true (e1.Qlog.reads > 0);
          Alcotest.(check bool) "per-operator rows present" true
            (List.exists (fun o -> o.Qlog.op_rows <> None) e1.Qlog.ops);
          (* same plan shape, different constant: same fingerprint *)
          Alcotest.(check string) "normalized fingerprint"
            e1.Qlog.fingerprint e2.Qlog.fingerprint;
          Alcotest.(check bool) "distinct shape, distinct fingerprint" true
            (e3.Qlog.fingerprint <> e1.Qlog.fingerprint);
          Alcotest.(check bool) "slow query captured" true
            (e1.Qlog.capture <> None);
          (match e1.Qlog.capture with
          | Some c ->
              Alcotest.(check bool) "capture has span tree" true
                (contains c.Qlog.span_text "execute");
              Alcotest.(check bool) "capture has plan" true
                (String.length c.Qlog.plan_text > 0)
          | None -> ());
          Alcotest.(check bool) "fast query not captured" true
            (e3.Qlog.capture = None)
      | l -> Alcotest.failf "expected 3 journal events, got %d" (List.length l))

(* The one ledger: a run that raises is journaled as Failed with its
   tree's fingerprint, its span tree goes to the tail store as an
   error with that event, and the exception comes back out. *)
let test_ledger_failed_run () =
  with_qlog (fun () ->
      let eng = Engine.create ~block:16 (Dif_gen.karily ~fanout:4 ~size:50 ()) in
      let q = Qparser.of_string "( ? sub ? tag=even)" in
      let path = temp_journal () in
      Qlog.enable ~append:false path;
      Tail.set_slow_threshold_ns max_int;
      Tail.set_sample_every 0;
      let raised =
        match
          Engine.ledger ~mode:Engine.Streaming ~label:"execute"
            ~origin:"engine" (Engine.stats eng) (Engine.Tree q)
            ~note:(Engine.plain_note None) (fun () -> failwith "boom")
        with
        | _ -> false
        | exception Failure m -> m = "boom"
      in
      Alcotest.(check bool) "the exception is re-raised" true raised;
      Alcotest.(check bool) "tracing is off again" false (Trace.enabled ());
      Qlog.disable ();
      match Qlog.load path with
      | [ ev ] -> (
          Alcotest.(check bool) "journaled as Failed" true
            (ev.Qlog.outcome = Qlog.Failed (Printexc.to_string (Failure "boom")));
          Alcotest.(check string) "the tree's fingerprint" (Plan.fingerprint q)
            ev.Qlog.fingerprint;
          match Option.bind ev.Qlog.trace_id Tail.find with
          | None -> Alcotest.fail "the failed run's tree was not offered"
          | Some r ->
              Alcotest.(check string) "retained as errored" "errored"
                (Tail.reason_to_string r.Tail.r_reason);
              Alcotest.(check string) "origin" "engine" r.Tail.r_origin;
              Alcotest.(check string) "root span" "execute" r.Tail.r_span.Trace.name;
              Alcotest.(check (option int)) "with its event" (Some ev.Qlog.seq)
                (Option.map (fun e -> e.Qlog.seq) r.Tail.r_event))
      | l -> Alcotest.failf "expected 1 journal event, got %d" (List.length l))

let test_dist_journals_attribution () =
  with_qlog (fun () ->
      let instance =
        Dif_gen.generate
          ~params:
            {
              Dif_gen.default_params with
              size = 200;
              seed = 3;
              roots = 2;
              depth_bias = 0.4;
            }
          ()
      in
      let domains = [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1" ] in
      let net = Dist.deploy instance domains in
      let coord = Dist.coordinator net (Dn.of_string "dc=root0") in
      let path = temp_journal () in
      Qlog.enable ~append:false path;
      Tail.set_slow_threshold_ns max_int;
      (* a root-scoped query touches both servers *)
      ignore
        (Dist.eval_entries coord
           (Qparser.of_string "( ? sub ? objectClass=person)"));
      Qlog.disable ();
      let events = Qlog.load path in
      (* per-server engine events, then the coordinator's own event last *)
      Alcotest.(check bool) "per-server events + coordinator event" true
        (List.length events >= 3);
      let coord_ev = List.nth events (List.length events - 1) in
      Alcotest.(check (option string)) "coordinator attributed to home"
        (Some coord.Dist.home.Dist.name)
        coord_ev.Qlog.server;
      Alcotest.(check bool) "shipping attribution recorded" true
        (List.length coord_ev.Qlog.shipped > 0);
      let inner = List.filteri (fun i _ -> i < List.length events - 1) events in
      let servers =
        List.sort_uniq compare
          (List.filter_map (fun e -> e.Qlog.server) inner)
      in
      Alcotest.(check bool) "inner events attributed to both servers" true
        (List.length servers >= 2))

(* --- Explain.profile wall-clock attribution ------------------------------------- *)

let test_profile_actual_ns () =
  let instance = Dif_gen.karily ~fanout:4 ~size:400 () in
  let eng = Engine.create ~block:16 instance in
  let q =
    Qparser.of_string
      "(g (& ( ? sub ? tag=even) ( ? sub ? priority>=1)) count($$) >= 0)"
  in
  let _, plan = Explain.profile eng q in
  let rec walk n =
    (match n.Plan.actual_ns with
    | None -> Alcotest.failf "node %s has no actual_ns" n.Plan.label
    | Some ns ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: actual_ns %d >= 0" n.Plan.label ns)
          true (ns >= 0));
    (match n.Plan.actual_io with
    | None -> Alcotest.failf "node %s has no actual_io" n.Plan.label
    | Some io ->
        Alcotest.(check bool) (n.Plan.label ^ ": io >= 0") true (io >= 0));
    List.iter walk n.Plan.children
  in
  walk plan;
  Alcotest.(check bool) "total ns non-negative" true
    (Plan.total_actual_ns plan >= 0)

let test_observe_nan_guard () =
  (* a NaN observation must not poison count/sum/quantiles: it clamps
     to 0 like any other non-positive value *)
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "guarded" in
  Metrics.observe h Float.nan;
  Metrics.observe h 8.;
  Alcotest.(check int) "both observations counted" 2
    (Metrics.histogram_count h);
  Alcotest.(check (float 0.001)) "sum unaffected by NaN" 8.
    (Metrics.histogram_sum h);
  let p100 = Metrics.quantile h 1. in
  Alcotest.(check bool)
    (Printf.sprintf "max quantile finite (got %g)" p100)
    true
    (Float.is_finite p100 && p100 >= 8.)

let test_json_lines_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "hist" in
  Metrics.observe h 1.;
  (* bucket 0: [0,2) *)
  Metrics.observe h 3.;
  (* bucket 1: [2,4) *)
  Metrics.observe h 100.;
  (* bucket 6: [64,128) *)
  let line =
    match
      List.find_opt
        (fun l -> contains l "\"name\":\"hist\"")
        (String.split_on_char '\n' (Metrics.to_json_lines r))
    with
    | Some l -> l
    | None -> Alcotest.fail "no json line for histogram"
  in
  let buckets =
    Json.arr (Json.member "buckets" (Json.of_string line))
    |> List.map Json.to_int
  in
  Alcotest.(check int) "full bucket array exported" 64 (List.length buckets);
  (* entries are cumulative: entry i counts observations below 2^(i+1) *)
  Alcotest.(check int) "cumulative below 2" 1 (List.nth buckets 0);
  Alcotest.(check int) "cumulative below 4" 2 (List.nth buckets 1);
  Alcotest.(check int) "cumulative below 64" 2 (List.nth buckets 5);
  Alcotest.(check int) "cumulative below 128" 3 (List.nth buckets 6);
  Alcotest.(check int) "top of array sees everything" 3 (List.nth buckets 63)

let test_engine_metrics () =
  let instance = Dif_gen.karily ~fanout:4 ~size:200 () in
  let eng = Engine.create ~block:16 instance in
  (* the engine reports to the default registry; re-registering by name
     returns the same live handles *)
  let queries = Metrics.counter "engine_queries_total" in
  let reads = Metrics.counter "engine_page_reads_total" in
  let q0 = Metrics.counter_value queries in
  let r0 = Metrics.counter_value reads in
  ignore (Engine.eval_entries eng (Qparser.of_string "( ? sub ? tag=even)"));
  Alcotest.(check int) "one query counted" (q0 + 1)
    (Metrics.counter_value queries);
  Alcotest.(check bool) "reads counted" true (Metrics.counter_value reads > r0)

(* --- Quantile edge cases --------------------------------------------------- *)

let test_quantile_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "edge" in
  (* empty histogram: every quantile is 0 *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.)) (Printf.sprintf "empty q=%g" q) 0.
        (Metrics.quantile h q))
    [ 0.; 0.5; 1. ];
  (* single observation: every quantile (even out-of-range q, which
     clamps) collapses to the one observed value *)
  Metrics.observe h 10.;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "single q=%g" q)
        10. (Metrics.quantile h q))
    [ -1.; 0.; 0.5; 1.; 2. ];
  (* all-zero observations stay in the first bucket and clamp to 0 *)
  let z = Metrics.histogram ~registry:r "zeros" in
  Metrics.observe z 0.;
  Metrics.observe z 0.;
  Alcotest.(check (float 0.)) "all zeros" 0. (Metrics.quantile z 0.9)

(* --- Prometheus exposition -------------------------------------------------- *)

(* A minimal exposition parser: every sample line must be
   "name{labels} value" with a legal metric name and a parseable value.
   Returns the samples in order. *)
let parse_samples text =
  let valid_name n =
    let first c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
    in
    let rest c = first c || (c >= '0' && c <= '9') in
    n <> ""
    && first n.[0]
    && String.for_all rest (String.sub n 1 (String.length n - 1))
  in
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "unparseable sample line %S" line
        | Some i ->
            let key = String.sub line 0 i in
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            let name =
              match String.index_opt key '{' with
              | Some j -> String.sub key 0 j
              | None -> key
            in
            if not (valid_name name) then
              Alcotest.failf "illegal metric name %S in %S" name line;
            (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparseable value %S in %S" value line);
            Some (name, key, float_of_string value))
    (String.split_on_char '\n' text)

let test_promexp_exposition () =
  let r = Metrics.create () in
  let c =
    Metrics.counter ~registry:r ~help:"a \"quoted\" help\nsecond line"
      ~labels:[ ("dn", "dc=a\\b\n\"c\"") ]
      "weird-name.total"
  in
  Metrics.add c 3;
  let g = Metrics.gauge ~registry:r "9gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram ~registry:r "lat_ns" in
  List.iter (Metrics.observe h) [ 1.; 3.; 9.; 100.; 5000. ];
  let text = Promexp.to_text r in
  Alcotest.(check bool) "content type is 0.0.4 text" true
    (contains Promexp.content_type "version=0.0.4");
  (* hostile names and labels are sanitized, values escaped *)
  Alcotest.(check bool) "dots and dashes rewritten" true
    (contains text "weird_name_total");
  Alcotest.(check bool) "leading digit rewritten" true (contains text "_gauge");
  Alcotest.(check bool) "label value escaped" true
    (contains text "dc=a\\\\b\\n\\\"c\\\"");
  Alcotest.(check bool) "help newline escaped" true
    (contains text "a \"quoted\" help\\nsecond line");
  (* the whole page round-trips through the minimal parser *)
  let samples = parse_samples text in
  Alcotest.(check bool) "samples present" true (List.length samples > 0);
  (* histogram invariants: cumulative non-decreasing buckets, and the
     +Inf bucket equals _count *)
  let buckets =
    List.filter (fun (n, _, _) -> n = "lat_ns_bucket") samples
  in
  Alcotest.(check bool) "bucket lines present" true (List.length buckets >= 2);
  let values = List.map (fun (_, _, v) -> v) buckets in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "cumulative buckets non-decreasing" true
           (v >= prev);
         v)
       0. values);
  let _, inf_key, inf_v = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check bool) "last bucket is +Inf" true
    (contains inf_key "le=\"+Inf\"");
  let count_v =
    match List.find_opt (fun (n, _, _) -> n = "lat_ns_count") samples with
    | Some (_, _, v) -> v
    | None -> Alcotest.fail "no lat_ns_count sample"
  in
  Alcotest.(check (float 0.)) "+Inf bucket equals count" count_v inf_v;
  Alcotest.(check (float 0.)) "count is 5" 5. count_v

(* --- Trace-context propagation ---------------------------------------------- *)

let test_trace_id_propagation () =
  with_tracing (fun () ->
      let root name f = Option.get (snd (Trace.with_span_out name f)) in
      let a = root "a" (fun () -> Trace.with_span "b" (fun () -> ())) in
      let c = root "c" (fun () -> ()) in
      Alcotest.(check int) "16 hex digits" 16 (String.length a.Trace.trace_id);
      let b = List.hd a.Trace.children in
      Alcotest.(check string) "child inherits the root's id" a.Trace.trace_id
        b.Trace.trace_id;
      Alcotest.(check bool) "each root mints a fresh id" true
        (a.Trace.trace_id <> c.Trace.trace_id);
      (* an explicitly bound id wins over minting *)
      let x =
        Trace.with_trace_id "deadbeefdeadbeef" (fun () -> root "x" (fun () -> ()))
      in
      Alcotest.(check string) "bound id used" "deadbeefdeadbeef" x.Trace.trace_id;
      (* actors attach through dynamic extent *)
      let s =
        root "root" (fun () ->
            Trace.with_actor "s0" (fun () -> Trace.with_span "kid" (fun () -> ())))
      in
      Alcotest.(check (list string)) "actors collected" [ ""; "s0" ]
        (Trace.actors s))

(* Two servers, one coordinator at dc=root0. *)
let two_server_coordinator () =
  let instance =
    Dif_gen.generate
      ~params:
        {
          Dif_gen.default_params with
          size = 200;
          seed = 3;
          roots = 2;
          depth_bias = 0.4;
        }
      ()
  in
  let domains = [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1" ] in
  Dist.coordinator (Dist.deploy instance domains) (Dn.of_string "dc=root0")

let test_dist_trace_stitching () =
  with_qlog (fun () ->
      with_tracing (fun () ->
          let coord = two_server_coordinator () in
          let path = temp_journal () in
          Qlog.enable ~append:false path;
          Tail.set_slow_threshold_ns 0;
          (* a root-scoped query touches both servers *)
          ignore
            (Dist.eval_entries coord
               (Qparser.of_string "( ? sub ? objectClass=person)"));
          Qlog.disable ();
          (* the coordinator offers its stitched root to Tail, where it
             subsumes the servers' engine subtrees *)
          Alcotest.(check int) "one root span per query" 1
            (Tail.retained_count ());
          let tid = (List.hd (Tail.retained ())).Tail.r_trace_id in
          let r = Option.get (Tail.find tid) in
          let root = r.Tail.r_span in
          Alcotest.(check string) "the coordinate tree" "coordinate"
            root.Trace.name;
          Alcotest.(check string) "origin" "dist" r.Tail.r_origin;
          Alcotest.(check string) "root actor is the coordinator"
            "coordinator" root.Trace.actor;
          (* every span of the stitched tree shares the root's trace id *)
          let rec check_ids (s : Trace.span) =
            Alcotest.(check string) "span shares the trace id"
              root.Trace.trace_id s.Trace.trace_id;
            List.iter check_ids s.Trace.children
          in
          check_ids root;
          let actors = Trace.actors root in
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "lane %s (got %s)" a (String.concat "," actors))
                true (List.mem a actors))
            ("coordinator"
            :: List.map
                 (fun (s : Dist.server) -> s.Dist.name)
                 coord.Dist.network.Dist.servers);
          (* and so does every journal event (coordinator + per-server) *)
          let events = Qlog.load path in
          Alcotest.(check bool) "several journal events" true
            (List.length events >= 3);
          List.iter
            (fun (ev : Qlog.event) ->
              Alcotest.(check (option string)) "event carries the trace id"
                (Some root.Trace.trace_id) ev.Qlog.trace_id)
            events;
          (* the slowlog shows the query once: the coordinator's event *)
          match Tail.slowlog 64 with
          | [ (_, ev) ] ->
              Alcotest.(check (option string)) "one line, the coordinator's"
                (Some coord.Dist.home.Dist.name) ev.Qlog.server;
              Alcotest.(check bool) "with its shipping" true
                (ev.Qlog.shipped <> [])
          | l -> Alcotest.failf "expected 1 slowlog line, got %d" (List.length l)))

(* --- Chrome trace-event export ----------------------------------------------- *)

let test_chrome_trace_shape () =
  with_tracing (fun () ->
      let stats = Io_stats.create () in
      let (), span =
        Trace.with_span_out ~stats ~detail:"the query" "query" (fun () ->
            Trace.with_actor "s0" (fun () ->
                Trace.with_span ~stats "child" (fun () ->
                    Io_stats.read_page stats)))
      in
      let span = Option.get span in
      let doc = Json.of_string (Chrome_trace.to_string [ span ]) in
      let events = Json.arr (Json.member "traceEvents" doc) in
      let xs =
        List.filter (fun e -> Json.str (Json.member "ph" e) = "X") events
      and ms =
        List.filter (fun e -> Json.str (Json.member "ph" e) = "M") events
      in
      Alcotest.(check int) "one X event per span" (Trace.span_count span)
        (List.length xs);
      Alcotest.(check int) "one thread_name lane per actor" 2 (List.length ms);
      List.iter
        (fun e ->
          Alcotest.(check string) "X events stitched by trace id"
            span.Trace.trace_id
            (Json.str (Json.member "trace_id" (Json.member "args" e)));
          Alcotest.(check bool) "non-negative duration" true
            (Json.to_float (Json.member "dur" e) >= 0.);
          Alcotest.(check bool) "pid present" true
            (Json.member "pid" e <> Json.Null))
        xs;
      let tids =
        List.sort_uniq compare
          (List.map (fun e -> Json.to_int (Json.member "tid" e)) xs)
      in
      Alcotest.(check (list int)) "two lanes, root first" [ 0; 1 ] tids)

(* --- Qlog rotation and trace ids ---------------------------------------------- *)

let test_qlog_rotation () =
  with_qlog (fun () ->
      let path = temp_journal () in
      Qlog.enable ~append:false ~max_bytes:400 path;
      for i = 1 to 20 do
        ignore
          (Qlog.record
             ~query:(Printf.sprintf "( ? sub ? id=%d)" i)
             ~fingerprint:"f" ~result_count:i ~reads:0 ~writes:0 ~wall_ns:0
             ~outcome:Qlog.Ok ())
      done;
      Qlog.disable ();
      Alcotest.(check bool) "rotated file exists" true
        (Sys.file_exists (path ^ ".1"));
      let live = Qlog.load path and rotated = Qlog.load (path ^ ".1") in
      Alcotest.(check bool) "both generations parse and are non-empty" true
        (live <> [] && rotated <> []);
      (* the live file always ends with the newest event *)
      let last = List.nth live (List.length live - 1) in
      Alcotest.(check int) "newest event in the live file" 20 last.Qlog.seq;
      (* disk use is bounded: each generation stays near the limit
         (rotation happens after the append that crosses it) *)
      List.iter
        (fun p ->
          let size = (Unix.stat p).Unix.st_size in
          Alcotest.(check bool)
            (Printf.sprintf "%s within bound (%d bytes)" p size)
            true (size <= 700))
        [ path; path ^ ".1" ];
      Sys.remove (path ^ ".1"))

let test_qlog_trace_id_roundtrip () =
  with_qlog (fun () ->
      let path = temp_journal () in
      Qlog.enable ~append:false path;
      ignore
        (Qlog.record ~trace_id:"00ff00ff00ff00ff" ~query:"(a)" ~fingerprint:"f"
           ~result_count:0 ~reads:0 ~writes:0 ~wall_ns:0 ~outcome:Qlog.Ok ());
      ignore
        (Qlog.record ~query:"(b)" ~fingerprint:"f" ~result_count:0 ~reads:0
           ~writes:0 ~wall_ns:0 ~outcome:Qlog.Ok ());
      Qlog.disable ();
      match Qlog.load path with
      | [ a; b ] ->
          Alcotest.(check (option string)) "trace id preserved"
            (Some "00ff00ff00ff00ff") a.Qlog.trace_id;
          Alcotest.(check (option string)) "absent stays absent" None
            b.Qlog.trace_id
      | events -> Alcotest.failf "expected 2 events, got %d" (List.length events))

(* --- Monitor ------------------------------------------------------------------- *)

let test_monitor_routes () =
  let m = Testkit.start_monitor () in
  Fun.protect
    ~finally:(fun () -> Srv.stop m)
    (fun () ->
      let port = Srv.port m in
      let status, body = Monitor.get ~port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 status;
      Alcotest.(check string) "healthz ok" "ok"
        (Json.str (Json.member "status" (Json.of_string body)));
      let status, body = Monitor.get ~port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      Alcotest.(check bool) "serves the default registry" true
        (contains body "monitor_requests_total");
      ignore (parse_samples body);
      let status, _ = Monitor.get ~port "/nope" in
      Alcotest.(check int) "unknown route 404" 404 status;
      Srv.add_handler m "cache" (fun path ->
          if path = "/cache" then
            Some
              (Monitor.respond ~content_type:"application/json" "{\"hits\":0}")
          else None);
      let status, body = Monitor.get ~port "/cache" in
      Alcotest.(check int) "custom handler 200" 200 status;
      Alcotest.(check bool) "custom handler body" true (contains body "hits");
      let status, _ = Monitor.get ~port "/trace" in
      Alcotest.(check int) "trace index 200" 200 status);
  (* stop is idempotent *)
  Srv.stop m

let test_monitor_trace_route () =
  with_tail @@ fun () ->
  with_tracing (fun () ->
      let (), span =
        Trace.with_span_out "query" (fun () ->
            Trace.with_span "child" (fun () -> ()))
      in
      ignore
        (Tail.consider ~origin:"engine" ~outcome:`Error ~wall_ns:0
           (Option.get span));
      let m = Testkit.start_monitor () in
      Fun.protect
        ~finally:(fun () -> Srv.stop m)
        (fun () ->
          let port = Srv.port m in
          let status, body = Monitor.get ~port "/trace/last" in
          Alcotest.(check int) "trace/last 200" 200 status;
          let events =
            Json.arr (Json.member "traceEvents" (Json.of_string body))
          in
          Alcotest.(check bool) "chrome trace payload" true (events <> []);
          let status, _ = Monitor.get ~port "/trace/zzz" in
          Alcotest.(check int) "unknown trace 404" 404 status))

(* --- Concurrency hammers --------------------------------------------------------

   The serving front-end drives the observability layer from many
   threads at once; these hammers check the mutexed registry, journal
   and trace state under real contention.  Counts are exact: sys
   threads interleave at allocation points, so an unguarded
   read-modify-write WILL lose increments at these iteration counts. *)

let spawn_join n f =
  let threads = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join threads

let test_metrics_concurrent_hammer () =
  let r = Metrics.create () in
  let n_threads = 8 and iters = 10_000 in
  spawn_join n_threads (fun i ->
      (* every thread registers the same series and its own series, so
         registration races with mutation on the family table *)
      let shared = Metrics.counter ~registry:r "hammer_total" in
      let own =
        Metrics.counter ~registry:r
          ~labels:[ ("t", string_of_int i) ]
          "hammer_total"
      in
      let h = Metrics.histogram ~registry:r "hammer_ns" in
      let g = Metrics.gauge ~registry:r "hammer_gauge" in
      for k = 1 to iters do
        Metrics.incr shared;
        Metrics.incr own;
        Metrics.observe h (float_of_int k);
        Metrics.set g (float_of_int k)
      done);
  let shared = Metrics.counter ~registry:r "hammer_total" in
  Alcotest.(check int)
    "no lost increments on the shared series" (n_threads * iters)
    (Metrics.counter_value shared);
  let h = Metrics.histogram ~registry:r "hammer_ns" in
  Alcotest.(check int)
    "no lost observations" (n_threads * iters)
    (Metrics.histogram_count h);
  (* per-thread series each saw exactly their own increments *)
  for i = 0 to n_threads - 1 do
    let own =
      Metrics.counter ~registry:r
        ~labels:[ ("t", string_of_int i) ]
        "hammer_total"
    in
    Alcotest.(check int) "own series exact" iters (Metrics.counter_value own)
  done;
  (* exporting under load doesn't tear: run one more contended export *)
  ignore (Metrics.to_json_lines r);
  ignore (Metrics.export r)

let test_qlog_concurrent_hammer () =
  let path = Filename.temp_file "ndq_test_journal_mt" ".jsonl" in
  (* small rotation limit so the hammer crosses generations under
     contention — double-rotation or interleaved lines would surface
     as unparseable JSON or lost/duplicated sequence numbers *)
  Qlog.enable ~append:false ~max_bytes:64_000 ~max_files:8 path;
  Qlog.clear ();
  let observed = ref 0 in
  let omu = Mutex.create () in
  Qlog.set_on_record
    (Some
       (fun _ ->
         Mutex.lock omu;
         incr observed;
         Mutex.unlock omu));
  let n_threads = 8 and per_thread = 250 in
  spawn_join n_threads (fun i ->
      for k = 1 to per_thread do
        ignore
          (Qlog.record
             ~query:(Printf.sprintf "( ? sub ? id=%d-%d)" i k)
             ~fingerprint:"hammer" ~result_count:k ~reads:1 ~writes:0
             ~wall_ns:1000 ~outcome:Qlog.Ok ())
      done);
  Qlog.set_on_record None;
  Qlog.disable ();
  let total = n_threads * per_thread in
  Alcotest.(check int) "observer saw every event exactly once" total !observed;
  (* every line of every generation parses, and the sequence numbers
     are exactly 1..total with no duplicates *)
  let events =
    List.concat_map
      (fun p -> if Sys.file_exists p then Qlog.load p else [])
      (path :: List.init 9 (fun g -> Printf.sprintf "%s.%d" path (g + 1)))
  in
  Alcotest.(check int) "no line lost to rotation or tearing" total
    (List.length events);
  let seqs = List.sort_uniq compare (List.map (fun e -> e.Qlog.seq) events) in
  Alcotest.(check int) "sequence numbers unique" total (List.length seqs);
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (path :: List.init 9 (fun g -> Printf.sprintf "%s.%d" path (g + 1)))

let test_trace_concurrent_threads () =
  with_tracing (fun () ->
      let n_threads = 8 in
      let ids = Array.make n_threads "" in
      let roots = Array.make n_threads None in
      spawn_join n_threads (fun i ->
          (* each thread builds its own little span tree; ambient state
             is per thread, so the trees never cross-link *)
          Trace.with_actor (Printf.sprintf "t%d" i) (fun () ->
              let (), root =
                Trace.with_span_out (Printf.sprintf "root%d" i) (fun () ->
                    ids.(i) <-
                      Option.value ~default:"" (Trace.current_trace_id ());
                    Trace.with_span "child" (fun () -> Thread.yield ());
                    Trace.with_span "child2" (fun () -> ()))
              in
              roots.(i) <- root));
      let roots = List.filter_map Fun.id (Array.to_list roots) in
      Alcotest.(check int) "one root per thread" n_threads (List.length roots);
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check int) "children attached to own root" 2
            (List.length s.Trace.children);
          List.iter
            (fun (c : Trace.span) ->
              Alcotest.(check string) "child inherits its thread's trace id"
                s.Trace.trace_id c.Trace.trace_id)
            s.Trace.children)
        roots;
      let unique_ids =
        List.sort_uniq compare (Array.to_list ids |> List.filter (( <> ) ""))
      in
      Alcotest.(check int) "distinct trace ids per thread" n_threads
        (List.length unique_ids))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter labels" `Quick test_counter_labels;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "reset keeps handles" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "exporters" `Quick test_exporters;
          Alcotest.test_case "NaN observation guard" `Quick
            test_observe_nan_guard;
          Alcotest.test_case "cumulative bucket export" `Quick
            test_json_lines_buckets;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edges;
        ] );
      ( "promexp",
        [
          Alcotest.test_case "exposition round-trips" `Quick
            test_promexp_exposition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "closes on raise" `Quick test_span_closes_on_raise;
          Alcotest.test_case "failing child attached" `Quick
            test_failing_child_attached;
          Alcotest.test_case "set_rows annotation" `Quick test_set_rows;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "trace-id propagation" `Quick
            test_trace_id_propagation;
          Alcotest.test_case "distributed stitching" `Quick
            test_dist_trace_stitching;
          Alcotest.test_case "chrome trace export" `Quick
            test_chrome_trace_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "lines and accessors" `Quick
            test_json_lines_and_accessors;
        ] );
      ( "qlog",
        [
          Alcotest.test_case "record/load roundtrip" `Quick test_qlog_roundtrip;
          Alcotest.test_case "append vs truncate" `Quick test_qlog_append_mode;
          Alcotest.test_case "slowlog ordering" `Quick test_qlog_slowlog;
          Alcotest.test_case "ops_of_span" `Quick test_qlog_ops_of_span;
          Alcotest.test_case "engine journals queries" `Quick
            test_engine_journals_queries;
          Alcotest.test_case "dist journals attribution" `Quick
            test_dist_journals_attribution;
          Alcotest.test_case "ledger journals a raising run" `Quick
            test_ledger_failed_run;
          Alcotest.test_case "size-based rotation" `Quick test_qlog_rotation;
          Alcotest.test_case "trace-id roundtrip" `Quick
            test_qlog_trace_id_roundtrip;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "built-in and custom routes" `Quick
            test_monitor_routes;
          Alcotest.test_case "trace export route" `Quick
            test_monitor_trace_route;
        ] );
      ( "profile",
        [
          Alcotest.test_case "actual_ns on every node" `Quick
            test_profile_actual_ns;
          Alcotest.test_case "engine metrics" `Quick test_engine_metrics;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "metrics hammer" `Quick
            test_metrics_concurrent_hammer;
          Alcotest.test_case "qlog hammer" `Quick test_qlog_concurrent_hammer;
          Alcotest.test_case "trace per-thread spans" `Quick
            test_trace_concurrent_threads;
        ] );
    ]
