(* The benchmark harness: regenerates every experiment of EXPERIMENTS.md.

     dune exec bench/main.exe              run everything (E1-E15 + micro)
     dune exec bench/main.exe e6 e9        run selected experiments
     dune exec bench/main.exe bechamel     run only the micro-benchmarks

   Flags:
     --monitor PORT   serve live introspection during the run and scrape
                      the harness's own /metrics after each experiment
                      (the snapshots land in the results file)
     --journal PATH   query-journal path (default _build/BENCH_journal.jsonl)
     --out PATH       results path (default BENCH_results.json)
     --mode M         operator-boundary handling for engine-level
                      experiments: streaming (default) or materialized *)

let ensure_parent path =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let monitor_port = ref None
  and journal = ref "_build/BENCH_journal.jsonl"
  and out = ref "BENCH_results.json" in
  let rec parse = function
    | "--monitor" :: p :: tl ->
        monitor_port := int_of_string_opt p;
        parse tl
    | "--journal" :: p :: tl ->
        journal := p;
        parse tl
    | "--out" :: p :: tl ->
        out := p;
        parse tl
    | "--mode" :: m :: tl ->
        (match m with
        | "streaming" -> Util.eval_mode := Engine.Streaming
        | "materialized" -> Util.eval_mode := Engine.Materialized
        | _ ->
            Fmt.epr "bad --mode %S (streaming|materialized)@." m;
            exit 2);
        parse tl
    | a :: tl -> a :: parse tl
    | [] -> []
  in
  let args = parse args in
  let run_micro = args = [] || List.mem "bechamel" args in
  let selected =
    match List.filter (fun a -> a <> "bechamel") args with
    | [] -> List.map fst Experiments.all
    | picks -> picks
  in
  Fmt.pr
    "Querying Network Directories — experiment harness (blocking factor B = \
     %d)@."
    Util.block;
  let monitor =
    match !monitor_port with
    | None -> None
    | Some port ->
        let m = Monitor.start ~port () in
        (* The flight recorder samples while the monitor serves, so
           /range and /dashboard have series to draw mid-run. *)
        Tsdb.start Tsdb.default;
        Fmt.pr "monitoring on http://127.0.0.1:%d/@." (Monitor.port m);
        Some m
  in
  (* Journal every engine query of the run; at threshold 0 each one is
     "slow", so the slowlog retains the costliest captures. *)
  ensure_parent !journal;
  Qlog.enable ~append:false !journal;
  Qlog.set_threshold_ns 0;
  (* Feed the plan-quality store online, so /planstats and /workload
     serve live numbers during a monitored run and the end-of-run
     artifacts below reflect the whole workload. *)
  Planstats.attach Planstats.default;
  (* The stock service-health rules, ticked after each experiment so a
     monitored run serves live states on /alerts and exports the ALERTS
     series; a healthy run ends with zero firing (CI asserts this). *)
  Alerts.install_defaults ();
  List.iter
    (fun id ->
      (match List.assoc_opt id Experiments.all with
      | Some f -> f ()
      | None -> Fmt.epr "unknown experiment %S (e1..e15, bechamel)@." id);
      Alerts.tick Alerts.default;
      (* Scrape our own endpoint mid-run, like an external collector
         would, and keep the snapshot next to the result rows. *)
      match monitor with
      | Some m -> (
          match Monitor.get ~port:(Monitor.port m) "/metrics" with
          | 200, body -> Telemetry.snapshot ~after:id body
          | status, _ ->
              Fmt.epr "monitor scrape after %s failed with HTTP %d@." id status
          | exception Unix.Unix_error (e, _, _) ->
              Fmt.epr "monitor scrape after %s failed: %s@." id
                (Unix.error_message e))
      | None -> ())
    selected;
  if run_micro then Bechamel.run ();
  Telemetry.write !out;
  let slowlog = Filename.concat (Filename.dirname !journal) "BENCH_slow_queries.jsonl" in
  ensure_parent slowlog;
  let captures = Qlog.write_slowlog slowlog in
  Qlog.disable ();
  (* Plan-quality artifacts: the q-error/workload report CI gates on,
     and the calibration cells an offline rebuild of the journal must
     reproduce byte for byte. *)
  let ps = Planstats.default in
  let planstats_out = "BENCH_planstats.json" in
  let oc = open_out planstats_out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("planstats", Planstats.to_json ps);
            ("workload", Planstats.workload_json ps);
          ]));
  output_char oc '\n';
  close_out oc;
  let calibration = Filename.concat (Filename.dirname !journal) "BENCH_calibration.jsonl" in
  ensure_parent calibration;
  let cells = Planstats.save ps calibration in
  Fmt.pr "wrote plan-quality report to %s (%d events, %d calibration cells in %s)@."
    planstats_out (Planstats.events ps) cells calibration;
  (if Tsdb.running Tsdb.default then begin
     Tsdb.stop Tsdb.default;
     Tsdb.save Tsdb.default "BENCH_tsdb.json";
     Fmt.pr "wrote %d flight-recorder windows to BENCH_tsdb.json@."
       (Tsdb.window_count Tsdb.default)
   end);
  Option.iter Monitor.stop monitor;
  Fmt.pr "wrote %d slow-query captures to %s (journal: %s)@." captures slowlog
    !journal;
  Fmt.pr "@.done.@."
