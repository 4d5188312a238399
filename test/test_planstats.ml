(* Tests for the plan-quality observatory: q-error arithmetic, bucket
   boundaries, calibration persistence, the online==offline rebuild
   guarantee, and the /planstats, /workload, HEAD and 405 handling of
   the server's introspection routes. *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let temp_file suffix =
  let path = Filename.temp_file "ndq_planstats" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* --- q-error ------------------------------------------------------------------- *)

let feq = Alcotest.(check (float 1e-9))

let test_qerror_edges () =
  feq "exact" 1.0 (Planstats.qerror ~est:5 ~act:5);
  feq "both zero" 1.0 (Planstats.qerror ~est:0 ~act:0);
  feq "zero estimate" 10.0 (Planstats.qerror ~est:0 ~act:10);
  feq "zero actual" 7.0 (Planstats.qerror ~est:7 ~act:0);
  feq "underestimate" 4.0 (Planstats.qerror ~est:2 ~act:8);
  feq "overestimate" 4.0 (Planstats.qerror ~est:8 ~act:2);
  feq "symmetric"
    (Planstats.qerror ~est:3 ~act:17)
    (Planstats.qerror ~est:17 ~act:3);
  Alcotest.(check bool) "never below 1" true
    (Planstats.qerror ~est:1 ~act:1 >= 1.0)

let test_bucket_boundaries () =
  List.iter
    (fun (rows, bucket) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket of %d" rows)
        bucket
        (Planstats.bucket_of_rows rows))
    [
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (1025, 10);
    ]

(* --- Calibration persistence --------------------------------------------------- *)

let mk_event ?est_card ?est_reads ?est_writes ~card ~reads ~writes () =
  Qlog.record ?est_card ?est_reads ?est_writes ~query:"( ? sub ? tag=?)"
    ~fingerprint:"fp" ~result_count:card ~reads ~writes ~wall_ns:1_000
    ~outcome:Qlog.Ok ()

let test_save_load_merge () =
  let events =
    [
      mk_event ~est_card:4 ~est_reads:8 ~est_writes:0 ~card:8 ~reads:4
        ~writes:0 ();
      mk_event ~est_card:100 ~est_reads:2 ~est_writes:1 ~card:10 ~reads:2
        ~writes:2 ();
      mk_event ~est_card:4 ~card:5 ~reads:3 ~writes:0 ();
    ]
  in
  let t = Planstats.of_events events in
  Alcotest.(check int) "events folded" 3 (Planstats.events t);
  let path = temp_file ".jsonl" in
  let n = Planstats.save t path in
  Alcotest.(check bool) "cells saved" true (n > 0);
  let loaded = Planstats.load path in
  Alcotest.(check string) "load reproduces saved bytes"
    (Planstats.save_lines t) (Planstats.save_lines loaded);
  let m = Planstats.create () in
  Planstats.merge ~into:m loaded;
  Alcotest.(check string) "merge into empty is the identity"
    (Planstats.save_lines t) (Planstats.save_lines m);
  Planstats.merge ~into:m loaded;
  Alcotest.(check bool) "second merge doubles the counts" true
    (Planstats.save_lines m <> Planstats.save_lines t);
  (* a doubled store still round-trips *)
  let path2 = temp_file ".jsonl" in
  ignore (Planstats.save m path2);
  Alcotest.(check string) "doubled store round-trips"
    (Planstats.save_lines m)
    (Planstats.save_lines (Planstats.load path2))

(* --- Online == offline --------------------------------------------------------- *)

(* The load-bearing property behind the CI gate: a store fed online by
   the Qlog.record hook and a store rebuilt afterwards from the journal
   file must hold identical aggregates — identical saved bytes. *)
let test_online_offline_parity () =
  let path = temp_file ".jsonl" in
  Qlog.enable ~append:false path;
  let online = Planstats.create () in
  Planstats.attach online;
  Fun.protect
    ~finally:(fun () ->
      Planstats.detach online;
      Qlog.disable ())
    (fun () ->
      let instance = Dif_gen.karily ~fanout:4 ~size:400 () in
      let eng = Engine.create ~block:16 instance in
      List.iter
        (fun q -> ignore (Engine.eval_entries eng (Qparser.of_string q)))
        [
          "( ? sub ? tag=even)";
          "(& ( ? sub ? tag=odd) ( ? sub ? priority>=1))";
          "(g (d ( ? sub ? tag=even) ( ? sub ? tag=odd)) min(priority) >= 0)";
          "(- ( ? sub ? priority>=1) ( ? sub ? tag=even))";
        ]);
  let offline = Planstats.of_events (Qlog.load path) in
  Alcotest.(check bool) "events flowed online" true
    (Planstats.events online > 0);
  Alcotest.(check int) "same event count" (Planstats.events online)
    (Planstats.events offline);
  Alcotest.(check string) "identical calibration bytes"
    (Planstats.save_lines online)
    (Planstats.save_lines offline);
  (* build = of_events over the same file *)
  let rebuilt = Planstats.create () in
  let n = Planstats.build rebuilt path in
  Alcotest.(check int) "build folds every line" (Planstats.events online) n;
  Alcotest.(check string) "build matches online"
    (Planstats.save_lines online)
    (Planstats.save_lines rebuilt)

(* --- Drift --------------------------------------------------------------------- *)

let test_drift_detection () =
  (* baseline: near-exact estimates; live store: 8x over-estimates *)
  let base =
    Planstats.of_events
      (List.init 8 (fun _ -> mk_event ~est_card:10 ~card:10 ~reads:1 ~writes:0 ()))
  in
  let live = Planstats.create () in
  Planstats.set_baseline live base;
  List.iter (fun ev -> Planstats.note_event live ev)
    (List.init 64 (fun _ -> mk_event ~est_card:80 ~card:10 ~reads:1 ~writes:0 ()));
  match Planstats.drift live with
  | [ (op, recent, baseline) ] ->
      Alcotest.(check string) "drifting class" "query" op;
      Alcotest.(check bool) "recent >> baseline" true (recent > baseline *. 2.)
  | l -> Alcotest.failf "expected 1 drift note, got %d" (List.length l)

(* --- Monitor routes, HEAD and 405 ---------------------------------------------- *)

let header headers name =
  match List.assoc_opt name headers with
  | Some v -> v
  | None -> Alcotest.failf "missing %s header" name

let check_content_length headers body =
  Alcotest.(check string)
    "content-length matches body"
    (string_of_int (String.length body))
    (header headers "content-length")

let test_monitor_planstats_routes () =
  (* route bodies come from the default store; make sure it has rows *)
  Planstats.clear Planstats.default;
  Planstats.note_event Planstats.default
    (mk_event ~est_card:4 ~card:8 ~reads:2 ~writes:0 ());
  let m = Testkit.start_monitor () in
  Fun.protect
    ~finally:(fun () -> Srv.stop m)
    (fun () ->
      let port = Srv.port m in
      let status, headers, body = Monitor.request ~port "/planstats" in
      Alcotest.(check int) "/planstats 200" 200 status;
      Alcotest.(check string) "json" "application/json"
        (header headers "content-type");
      check_content_length headers body;
      Alcotest.(check bool) "has classes" true (contains body "\"classes\"");
      Alcotest.(check bool) "has calibration" true
        (contains body "\"calibration\"");
      let status, headers, body = Monitor.request ~port "/workload" in
      Alcotest.(check int) "/workload 200" 200 status;
      check_content_length headers body;
      Alcotest.(check bool) "has rows" true (contains body "\"rows\""))

(* GET/HEAD/405 on the routes, against a monitor-only server and a
   serving one: one router answers both. *)
let check_head_and_405 srv =
  let port = Srv.port srv in
  (* HEAD = GET minus the body, Content-Length preserved *)
  let gstatus, gheaders, gbody = Monitor.request ~port "/healthz" in
  let hstatus, hheaders, hbody =
    Monitor.request ~meth:"HEAD" ~port "/healthz"
  in
  Alcotest.(check int) "HEAD status matches GET" gstatus hstatus;
  Alcotest.(check string) "HEAD body empty" "" hbody;
  Alcotest.(check bool) "GET body nonempty" true (String.length gbody > 0);
  Alcotest.(check string) "HEAD advertises GET's length"
    (header gheaders "content-length")
    (header hheaders "content-length");
  let status, headers, body = Monitor.request ~meth:"HEAD" ~port "/" in
  Alcotest.(check int) "HEAD / 200" 200 status;
  Alcotest.(check string) "HEAD / body empty" "" body;
  Alcotest.(check bool) "HEAD / has a length" true
    (int_of_string (header headers "content-length") > 0);
  (* errors carry Content-Length too, on both methods *)
  let status, headers, body = Monitor.request ~port "/nope" in
  Alcotest.(check int) "GET 404" 404 status;
  check_content_length headers body;
  let status, headers, body = Monitor.request ~meth:"HEAD" ~port "/nope" in
  Alcotest.(check int) "HEAD 404" 404 status;
  Alcotest.(check string) "404 HEAD body empty" "" body;
  Alcotest.(check bool) "404 HEAD has a length" true
    (int_of_string (header headers "content-length") > 0);
  (* anything but GET/HEAD is 405 *)
  let status, headers, body = Monitor.request ~meth:"POST" ~port "/metrics" in
  Alcotest.(check int) "POST 405" 405 status;
  check_content_length headers body;
  Alcotest.(check bool) "405 names the allowed methods" true
    (contains body "GET")

let test_monitor_head_and_405 () =
  let m = Testkit.start_monitor () in
  Fun.protect ~finally:(fun () -> Srv.stop m) (fun () -> check_head_and_405 m)

let test_serving_head_and_405 () =
  let instance =
    Dif_gen.generate ~params:{ Dif_gen.default_params with size = 50 } ()
  in
  let srv =
    Srv.start ~workers:1 ~make_engine:(fun () -> Engine.create instance) ()
  in
  Fun.protect
    ~finally:(fun () -> Srv.stop srv)
    (fun () ->
      check_head_and_405 srv;
      (* the query route keeps taking POST *)
      let status, _, body =
        Monitor.request ~meth:"POST" ~body:"( ? sub ? id=* )"
          ~port:(Srv.port srv) "/query"
      in
      Alcotest.(check int) "POST /query 200" 200 status;
      Alcotest.(check bool) "query trailer" true (contains body "# status=ok"))

let () =
  Alcotest.run "planstats"
    [
      ( "qerror",
        [
          Alcotest.test_case "edge cases" `Quick test_qerror_edges;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "save/load/merge" `Quick test_save_load_merge;
          Alcotest.test_case "online == offline" `Quick
            test_online_offline_parity;
          Alcotest.test_case "drift detection" `Quick test_drift_detection;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "planstats routes" `Quick
            test_monitor_planstats_routes;
          Alcotest.test_case "HEAD and 405" `Quick test_monitor_head_and_405;
          Alcotest.test_case "HEAD and 405 while serving" `Quick
            test_serving_head_and_405;
        ] );
    ]
