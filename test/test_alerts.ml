(* The operational-health layer: alert rules and their state machine,
   the per-tick windows they read from the flight recorder, runtime
   gauge sampling and the sampler's tick hook, per-span allocation attribution, journal
   file-count rotation and the hardened monitor endpoint. *)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* --- Rule parsing ------------------------------------------------------------ *)

let test_parse_forms () =
  let ok s =
    match Alerts.parse s with
    | _ -> ()
    | exception Alerts.Parse_error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok "engine_query_ns p99 > 50ms for 3";
  ok "engine_query_ns p50 >= 2us";
  ok "rate(engine_page_reads_total) / rate(engine_queries_total) > 40 for 2";
  ok "plan_drift_total increasing";
  ok "gc_heap_words > 2e6";
  ok "cache_hits_total{kind=engine} < 10 for 4 ticks";
  ok "up <= 1x";
  let _, n = Alerts.parse "gc_heap_words > 5 for 7" in
  Alcotest.(check int) "for-duration parsed" 7 n;
  let _, n = Alerts.parse "gc_heap_words > 5" in
  Alcotest.(check int) "for defaults to 1" 1 n

let test_parse_errors () =
  let bad s =
    match Alerts.parse s with
    | _ -> Alcotest.failf "%S should not parse" s
    | exception Alerts.Parse_error _ -> ()
  in
  bad "";
  bad "just_a_name";
  bad "gc_heap_words >";
  bad "gc_heap_words > banana";
  bad "gc_heap_words ~ 5";
  bad "gc_heap_words > 5 for zero";
  bad "rate( > 5";
  bad "a p99 increasing"

let test_duplicate_rule_rejected () =
  let a = Alerts.create ~tsdb:(Tsdb.create ~registry:(Metrics.create ()) ()) () in
  ignore (Alerts.add a ~name:"dup" "gc_heap_words > 5");
  (match Alerts.add a ~name:"dup" "gc_heap_words > 9" with
  | _ -> Alcotest.fail "duplicate rule name accepted"
  | exception Alerts.Parse_error _ -> ());
  Alcotest.(check bool) "remove" true (Alerts.remove a "dup");
  Alcotest.(check bool) "remove again" false (Alerts.remove a "dup")

(* --- The state machine -------------------------------------------------------- *)

(* A private registry, its store, and an evaluator over the store. *)
let fresh_store () =
  let r = Metrics.create () in
  let tsdb = Tsdb.create ~registry:r () in
  (r, tsdb, Alerts.create ~tsdb ())

let fresh () =
  let r, _, a = fresh_store () in
  (r, a)

let state_of a name = Option.get (Alerts.state a name)

let test_threshold_lifecycle () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load" in
  ignore (Alerts.add ~severity:"critical" a ~name:"hot" "load > 10 for 2");
  Metrics.set g 5.;
  Alerts.tick a;
  Alcotest.(check bool) "below: inactive" true
    (state_of a "hot" = Alerts.Inactive);
  Metrics.set g 20.;
  Alerts.tick a;
  Alcotest.(check bool) "first violation: pending" true
    (state_of a "hot" = Alerts.Pending 1);
  Alerts.tick a;
  Alcotest.(check bool) "second violation: firing" true
    (state_of a "hot" = Alerts.Firing);
  Alcotest.(check int) "firing list" 1 (List.length (Alerts.firing a));
  let alerts_gauge =
    Metrics.gauge ~registry:r
      ~labels:[ ("alertname", "hot"); ("severity", "critical") ]
      "ALERTS"
  in
  Alcotest.(check (float 0.)) "ALERTS exported" 1.
    (Metrics.gauge_value alerts_gauge);
  Metrics.set g 5.;
  Alerts.tick a;
  Alcotest.(check bool) "one quiet tick resolves" true
    (state_of a "hot" = Alerts.Inactive);
  Alcotest.(check (float 0.)) "ALERTS cleared" 0.
    (Metrics.gauge_value alerts_gauge);
  let tos = List.map (fun tr -> tr.Alerts.tr_to) (List.rev (Alerts.history a)) in
  Alcotest.(check (list string)) "transition history"
    [ "pending"; "firing"; "resolved" ] tos

let test_flap_never_fires () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load" in
  ignore (Alerts.add a ~name:"hot" "load > 10 for 2");
  (* alternate violation and quiet: the for-duration absorbs the flap *)
  for _ = 1 to 4 do
    Metrics.set g 20.;
    Alerts.tick a;
    Alcotest.(check bool) "pending only" true
      (state_of a "hot" = Alerts.Pending 1);
    Metrics.set g 5.;
    Alerts.tick a;
    Alcotest.(check bool) "back to inactive" true
      (state_of a "hot" = Alerts.Inactive)
  done;
  Alcotest.(check bool) "never fired" true
    (List.for_all (fun tr -> tr.Alerts.tr_to <> "firing") (Alerts.history a))

let test_for_boundary () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load" in
  ignore (Alerts.add a ~name:"hot" "load > 10 for 3");
  Metrics.set g 20.;
  Alerts.tick a;
  Alerts.tick a;
  Alcotest.(check bool) "two ticks: still pending" true
    (state_of a "hot" = Alerts.Pending 2);
  Alerts.tick a;
  Alcotest.(check bool) "exactly [for] ticks fires" true
    (state_of a "hot" = Alerts.Firing)

let test_silence_suppresses_export_only () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load" in
  ignore (Alerts.add a ~name:"hot" "load > 10");
  Alcotest.(check bool) "silence unknown rule" false
    (Alerts.silence a "nope" true);
  Alcotest.(check bool) "silence" true (Alerts.silence a "hot" true);
  Metrics.set g 20.;
  Alerts.tick a;
  Alcotest.(check bool) "state machine still runs" true
    (state_of a "hot" = Alerts.Firing);
  Alcotest.(check int) "still reported firing" 1
    (List.length (Alerts.firing a));
  let alerts_gauge =
    Metrics.gauge ~registry:r
      ~labels:[ ("alertname", "hot"); ("severity", "warn") ]
      "ALERTS"
  in
  Alcotest.(check (float 0.)) "export suppressed" 0.
    (Metrics.gauge_value alerts_gauge);
  Alcotest.(check bool) "unsilence" true (Alerts.silence a "hot" false);
  Alerts.tick a;
  Alcotest.(check (float 0.)) "export restored" 1.
    (Metrics.gauge_value alerts_gauge)

let test_rate_rule () =
  let r, a = fresh () in
  let c = Metrics.counter ~registry:r "hits_total" in
  ignore (Alerts.add a ~name:"burst" "rate(hits_total) > 5");
  Metrics.add c 100;
  Alerts.tick a;
  (* a counter first seen at a tick counts its whole value, as in the
     store's windows *)
  Alcotest.(check bool) "first sight counts its whole value" true
    (state_of a "burst" = Alerts.Firing);
  Alcotest.(check (option (float 0.))) "first-sight value" (Some 100.)
    (Alerts.last_value a "burst");
  Metrics.add c 10;
  Alerts.tick a;
  Alcotest.(check bool) "delta over threshold fires" true
    (state_of a "burst" = Alerts.Firing);
  Alcotest.(check (option (float 0.))) "value is the delta" (Some 10.)
    (Alerts.last_value a "burst");
  Alerts.tick a;
  Alcotest.(check bool) "quiet tick resolves" true
    (state_of a "burst" = Alerts.Inactive)

let test_quantile_window_resolves () =
  let r, a = fresh () in
  let h = Metrics.histogram ~registry:r "lat_ns" in
  ignore (Alerts.add a ~name:"slow" "lat_ns p99 > 1000");
  for _ = 1 to 50 do
    Metrics.observe h 100_000.
  done;
  Alerts.tick a;
  Alcotest.(check bool) "slow window fires" true
    (state_of a "slow" = Alerts.Firing);
  (* nothing new observed: the per-tick window is empty, so the alert
     resolves instead of ringing forever on the cumulative histogram *)
  Alerts.tick a;
  Alcotest.(check bool) "quiet window resolves" true
    (state_of a "slow" = Alerts.Inactive);
  for _ = 1 to 50 do
    Metrics.observe h 1.
  done;
  Alerts.tick a;
  Alcotest.(check bool) "fast window stays quiet" true
    (state_of a "slow" = Alerts.Inactive)

let test_increasing_rule () =
  let r, a = fresh () in
  let c = Metrics.counter ~registry:r "drift_total" in
  ignore (Alerts.add a ~name:"drift" "drift_total increasing");
  Alerts.tick a;
  Alcotest.(check bool) "first sight quiet" true
    (state_of a "drift" = Alerts.Inactive);
  Metrics.incr c;
  Alerts.tick a;
  Alcotest.(check bool) "growth fires" true
    (state_of a "drift" = Alerts.Firing);
  Alerts.tick a;
  Alcotest.(check bool) "plateau resolves" true
    (state_of a "drift" = Alerts.Inactive)

let test_ratio_zero_denominator () =
  let r, a = fresh () in
  let num = Metrics.counter ~registry:r "reads_total" in
  let _den = Metrics.counter ~registry:r "queries_total" in
  ignore (Alerts.add a ~name:"amp" "rate(reads_total) / rate(queries_total) > 2");
  Alerts.tick a;
  Metrics.add num 100;
  (* reads grow but no queries at all: the ratio is undefined, which
     must read as "not in violation", not a division crash *)
  Alerts.tick a;
  Alcotest.(check bool) "zero denominator never violates" true
    (state_of a "amp" = Alerts.Inactive)

let test_clear_and_json () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load" in
  ignore (Alerts.add a ~name:"hot" "load > 10");
  Metrics.set g 20.;
  Alerts.tick a;
  let doc = Alerts.to_json a in
  Alcotest.(check (float 0.)) "firing count in json" 1.
    (Json.to_float (Json.member "firing" doc));
  Alcotest.(check int) "rules array" 1
    (List.length (Json.arr (Json.member "rules" doc)));
  Alerts.clear a;
  Alcotest.(check int) "clear drops rules" 0 (List.length (Alerts.rules a));
  Alcotest.(check int) "clear drops history" 0
    (List.length (Alerts.history a))

let test_install_defaults () =
  let _, a = fresh () in
  Alerts.install_defaults ~t:a ();
  let n = List.length (Alerts.rules a) in
  Alcotest.(check bool) "stock rules installed" true (n >= 3);
  Alerts.install_defaults ~t:a ();
  Alcotest.(check int) "idempotent" n (List.length (Alerts.rules a))

(* --- One window: per-tick sources read the store ------------------------------ *)

(* Per-tick and windowed quantiles go through one estimator, so on one
   window of data they agree. *)
let test_tick_and_window_quantiles_agree () =
  let r, a = fresh () in
  let h = Metrics.histogram ~registry:r "lat_ns" in
  ignore (Alerts.add a ~name:"tick" "lat_ns p50 > 0");
  ignore (Alerts.add a ~name:"window" "lat_ns p50 over(60s) > 0");
  List.iter (Metrics.observe h) [ 1100.; 1200.; 1300. ];
  Alerts.tick a;
  let v name = Option.get (Alerts.last_value a name) in
  Alcotest.(check (float 1e-9)) "p50 = p50 over(60s)" (v "window") (v "tick");
  Alcotest.(check (float 0.01)) "ceil-rank interpolation" 1706.67 (v "tick")

(* The evaluator reads the registry its store samples: a private
   registry's rule and its over(60s) form agree. *)
let test_private_registry_windows () =
  let r, a = fresh () in
  let g = Metrics.gauge ~registry:r "load_g" in
  ignore (Alerts.add a ~name:"live" "load_g > 5");
  ignore (Alerts.add a ~name:"window" "load_g over(60s) > 5");
  Metrics.set g 10.;
  Alerts.tick a;
  Alcotest.(check bool) "live rule fires" true
    (state_of a "live" = Alerts.Firing);
  Alcotest.(check bool) "windowed rule fires too" true
    (state_of a "window" = Alerts.Firing)

let test_rate_after_reset () =
  let r, a = fresh () in
  let c = Metrics.counter ~registry:r "c_total" in
  ignore (Alerts.add a ~name:"burst" "rate(c_total) > 1e9");
  Metrics.add c 100;
  Alerts.tick a;
  Metrics.reset r;
  Metrics.add c 50;
  Alerts.tick a;
  Alcotest.(check (option (float 0.))) "a reset restarts from the new value"
    (Some 50.) (Alerts.last_value a "burst")

(* Other samplers of the same store (a sampler thread, a second
   evaluator) split a tick's increments across several windows; the
   tick merges all of them, and two ticks in a row split by window
   number, not by clock. *)
let test_interleaved_samples () =
  let r, tsdb, a = fresh_store () in
  let c = Metrics.counter ~registry:r "c_total" in
  let h = Metrics.histogram ~registry:r "lat_ns" in
  ignore (Alerts.add a ~name:"rate" "rate(c_total) > 1e9");
  ignore (Alerts.add a ~name:"p99" "lat_ns p99 > 1e12");
  Metrics.add c 5;
  Metrics.observe h 10.;
  Tsdb.sample tsdb;
  Metrics.add c 7;
  Tsdb.sample tsdb;
  Metrics.add c 3;
  Metrics.observe h 5000.;
  Alerts.tick a;
  Alcotest.(check (option (float 0.))) "every increment since creation"
    (Some 15.) (Alerts.last_value a "rate");
  Alcotest.(check bool) "quantile merges the interleaved windows" true
    (Option.get (Alerts.last_value a "p99") > 4096.);
  Metrics.add c 4;
  Alerts.tick a;
  Alcotest.(check (option (float 0.))) "back-to-back ticks split exactly"
    (Some 4.) (Alerts.last_value a "rate");
  Alerts.tick a;
  Alcotest.(check (option (float 0.))) "quiet tick reads zero" (Some 0.)
    (Alerts.last_value a "rate")

(* --- Runtime gauges ------------------------------------------------------------ *)

let test_runtime_sample () =
  let value name = Metrics.gauge_value (Metrics.gauge name) in
  Metrics.set (Metrics.gauge "gc_live_words") 0.;
  (* any store's sample refreshes the runtime gauges first *)
  Tsdb.sample (Tsdb.create ~registry:(Metrics.create ()) ());
  Alcotest.(check bool) "live words on every sample" true
    (value "gc_live_words" > 0.);
  Runtime.sample ();
  Alcotest.(check bool) "uptime >= 0" true (value "process_uptime_seconds" >= 0.);
  Alcotest.(check bool) "allocated > 0" true
    (value "process_allocated_bytes" > 0.);
  Alcotest.(check bool) "heap words > 0" true (value "gc_heap_words" > 0.);
  Alcotest.(check bool) "top heap >= heap" true
    (value "gc_top_heap_words" >= value "gc_heap_words");
  Alcotest.(check bool) "live words > 0" true (value "gc_live_words" > 0.);
  Alcotest.(check bool) "minor collections >= 0" true
    (value "gc_minor_collections" >= 0.)

(* The sampler thread runs its hook in place of a bare sample: an
   alert tick per period, one window per tick. *)
let test_sampler_tick_hook () =
  let r = Metrics.create () in
  let tsdb = Tsdb.create ~registry:r ~resolution_s:0.01 () in
  let a = Alerts.create ~tsdb () in
  Tsdb.start ~tick:(fun () -> Alerts.tick a) tsdb;
  let deadline = Unix.gettimeofday () +. 5. in
  while Alerts.ticks a < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Tsdb.stop tsdb;
  Tsdb.stop tsdb (* idempotent *);
  Alcotest.(check bool) "hook ran" true (Alerts.ticks a >= 3);
  Alcotest.(check bool) "stopped" false (Tsdb.running tsdb);
  let ticks = Alerts.ticks a in
  Alcotest.(check int) "one window per period (plus creation's)" (ticks + 1)
    (Tsdb.window_count tsdb);
  Thread.delay 0.05;
  Alcotest.(check int) "stopped sampler stays stopped" ticks (Alerts.ticks a)

(* --- Allocation attribution ----------------------------------------------------- *)

let test_span_alloc_nesting () =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled was)
    (fun () ->
      let (), span =
        Trace.with_span_out "parent" (fun () ->
            let keep = ref [] in
            Trace.with_span "child" (fun () ->
                (* ~80kB retained so the child's delta is visibly > 0 *)
                keep := List.init 10 (fun _ -> Bytes.create 8192));
            ignore (Sys.opaque_identity !keep))
      in
      match span with
      | None -> Alcotest.fail "no span captured"
      | Some parent ->
          let child = List.hd parent.Trace.children in
          Alcotest.(check bool) "child allocated" true
            (child.Trace.alloc_bytes > 8192);
          Alcotest.(check bool) "parent is inclusive of child" true
            (parent.Trace.alloc_bytes >= child.Trace.alloc_bytes))

(* The meter counts the minor heap to the word, collection or not:
   1000 list cells are 24,000 bytes of allocation.  A delta of the
   stdlib's allocated-bytes count read about an eighth of it. *)
let test_span_alloc_exact () =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled was)
    (fun () ->
      match
        snd
          (Trace.with_span_out "list" (fun () ->
               ignore (Sys.opaque_identity (List.init 1000 Fun.id))))
      with
      | None -> Alcotest.fail "no span captured"
      | Some span ->
          Alcotest.(check bool)
            (Printf.sprintf "%d B >= 24000 B" span.Trace.alloc_bytes)
            true
            (span.Trace.alloc_bytes >= 24_000))

(* --- Qlog file-count rotation ---------------------------------------------------- *)

let temp_journal () =
  Filename.temp_file "ndq_alerts_journal" ".jsonl"

let test_qlog_max_files () =
  let path = temp_journal () in
  let gen n = path ^ "." ^ string_of_int n in
  Qlog.enable ~append:false ~max_bytes:300 ~max_files:3 path;
  Alcotest.(check int) "max_files exposed" 3 (Qlog.max_files ());
  Alcotest.(check (option int)) "max_bytes exposed" (Some 300)
    (Qlog.max_bytes ());
  for i = 1 to 60 do
    ignore
      (Qlog.record
         ~query:(Printf.sprintf "( ? sub ? id=%d)" i)
         ~fingerprint:"f" ~result_count:i ~reads:0 ~writes:0 ~wall_ns:0
         ~outcome:Qlog.Ok ())
  done;
  Qlog.disable ();
  Alcotest.(check int) "max_files resets" 1 (Qlog.max_files ());
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "generation .%d kept" n)
        true
        (Sys.file_exists (gen n)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "oldest generation deleted" false
    (Sys.file_exists (gen 4));
  (* every kept generation still parses; the newest event is in the
     live file, or in generation .1 right after a rotating append *)
  let live = Qlog.load path in
  let newest =
    match List.rev live with
    | ev :: _ -> ev
    | [] -> List.hd (List.rev (Qlog.load (gen 1)))
  in
  Alcotest.(check int) "newest event survives rotation" 60 newest.Qlog.seq;
  List.iter
    (fun n -> Alcotest.(check bool) "rotated parses" true (Qlog.load (gen n) <> []))
    [ 1; 2; 3 ];
  List.iter (fun n -> Sys.remove (gen n)) [ 1; 2; 3 ];
  Sys.remove path

(* --- Monitor hardening ------------------------------------------------------------ *)

let test_monitor_alerts_route () =
  Alerts.install_defaults ();
  let m = Testkit.start_monitor () in
  Fun.protect
    ~finally:(fun () -> Srv.stop m)
    (fun () ->
      let port = Srv.port m in
      let status, body = Monitor.get ~port "/alerts" in
      Alcotest.(check int) "alerts 200" 200 status;
      let doc = Json.of_string body in
      Alcotest.(check bool) "rules listed" true
        (Json.arr (Json.member "rules" doc) <> []);
      Alcotest.(check (float 0.)) "nothing firing" 0.
        (Json.to_float (Json.member "firing" doc));
      let status, body = Monitor.get ~port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 status;
      Alcotest.(check bool) "healthz reports alerts" true
        (contains body "alerts_firing");
      let _, metrics = Monitor.get ~port "/metrics" in
      Alcotest.(check bool) "self metrics labeled by route" true
        (contains metrics "monitor_requests_total{route=\"/alerts\"");
      Alcotest.(check bool) "request latency histogram" true
        (contains metrics "monitor_request_ns"))

let test_monitor_slow_client_cannot_wedge () =
  let m = Testkit.start_monitor () in
  Fun.protect
    ~finally:(fun () -> Srv.stop m)
    (fun () ->
      let port = Srv.port m in
      (* a client that connects and never sends its request line must
         not keep the others from being served *)
      let stalled = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect stalled
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect
        ~finally:(fun () -> Unix.close stalled)
        (fun () ->
          let results = Array.make 4 (-1) in
          let clients =
            List.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    let status, _ = Monitor.get ~port "/healthz" in
                    results.(i) <- status)
                  ())
          in
          List.iter Thread.join clients;
          Array.iteri
            (fun i status ->
              Alcotest.(check int)
                (Printf.sprintf "client %d served despite the stall" i)
                200 status)
            results))

let () =
  Alcotest.run "alerts"
    [
      ( "parser",
        [
          Alcotest.test_case "accepted forms" `Quick test_parse_forms;
          Alcotest.test_case "rejected forms" `Quick test_parse_errors;
          Alcotest.test_case "duplicate names" `Quick
            test_duplicate_rule_rejected;
        ] );
      ( "state machine",
        [
          Alcotest.test_case "threshold lifecycle" `Quick
            test_threshold_lifecycle;
          Alcotest.test_case "flap never fires" `Quick test_flap_never_fires;
          Alcotest.test_case "for-duration boundary" `Quick test_for_boundary;
          Alcotest.test_case "silence" `Quick
            test_silence_suppresses_export_only;
          Alcotest.test_case "rate rule" `Quick test_rate_rule;
          Alcotest.test_case "quantile window resolves" `Quick
            test_quantile_window_resolves;
          Alcotest.test_case "increasing rule" `Quick test_increasing_rule;
          Alcotest.test_case "ratio zero denominator" `Quick
            test_ratio_zero_denominator;
          Alcotest.test_case "clear and json" `Quick test_clear_and_json;
          Alcotest.test_case "install_defaults" `Quick test_install_defaults;
        ] );
      ( "one window",
        [
          Alcotest.test_case "tick and over() quantiles agree" `Quick
            test_tick_and_window_quantiles_agree;
          Alcotest.test_case "private registry windows" `Quick
            test_private_registry_windows;
          Alcotest.test_case "rate after reset" `Quick test_rate_after_reset;
          Alcotest.test_case "interleaved samples" `Quick
            test_interleaved_samples;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "sample fills gauges" `Quick test_runtime_sample;
          Alcotest.test_case "sampler tick hook" `Quick test_sampler_tick_hook;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "nested span alloc" `Quick test_span_alloc_nesting;
          Alcotest.test_case "span alloc is exact" `Quick test_span_alloc_exact;
        ] );
      ( "qlog",
        [ Alcotest.test_case "max_files rotation" `Quick test_qlog_max_files ] );
      ( "monitor",
        [
          Alcotest.test_case "/alerts route + self metrics" `Quick
            test_monitor_alerts_route;
          Alcotest.test_case "slow client cannot wedge" `Quick
            test_monitor_slow_client_cannot_wedge;
        ] );
    ]
