(* ndqsh — an interactive query shell over a network directory.

   Load one of the built-in directories (the reconstructed paper figures,
   or seeded synthetic ones), then type queries in the concrete syntax of
   Figures 7-10, or LDAP URL queries prefixed with "ldap:".  Meta
   commands start with ':'.

     dune exec bin/ndqsh.exe -- --directory qos
     dune exec bin/ndqsh.exe -- --directory random --size 5000 -e '( ? sub ? priority>=9)'
*)

open Ndq

type state = {
  mutable directory : Directory.t;
  mutable engine : Engine.t;
  mutable engine_stale : bool;  (* make a new engine before the next use *)
  mutable block : int;
  mutable verbose : bool;
  mutable cache : Cache.t;  (* survives engine rebuilds, off by default *)
  mutable cache_on : bool;
  mutable server : Srv.t option;  (* the listener: queries + introspection *)
  obs : Obs.t;  (* the stores :alerts, :planstats, :tsdb and the server read *)
  mutable mode : Engine.mode;  (* operator-boundary handling *)
  mutable planner : Engine.planner;  (* access-path policy *)
  mutable last_trace : Trace.span option;  (* root of the last traced query *)
}

(* Runtime artifacts (journals, slowlogs) default under _build/ so they
   never land in the working tree. *)
let default_journal = "_build/ndq_journal.jsonl"

let ensure_parent path =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* The engine watches the directory, so updates patch its indexes in
   place and its path counters survive them; the result cache is
   attached to the same hooks.  A new engine is made only when a
   setting it is built with changes (a new directory, the cache). *)
let engine st =
  if st.engine_stale then begin
    st.engine <-
      Engine.create ~block:st.block ~mode:st.mode ~planner:st.planner
        ?result_cache:(if st.cache_on then Some st.cache else None)
        ~directory:st.directory (Directory.instance st.directory);
    (* journaled queries feed the shell's plan-quality store, and the
       planner reads its bias cells back: the self-tuning loop *)
    Engine.set_calibration st.engine (Some st.obs.Obs.planstats);
    st.engine_stale <- false
  end;
  st.engine

let invalidate_engine st = st.engine_stale <- true

let load_directory kind size seed =
  match kind with
  | "figure11" | "tops-fig" -> Tops.figure_11 ()
  | "figure12" | "qos-fig" -> Qos.figure_12 ()
  | "qos" ->
      Qos.generate
        ~params:{ Qos.default_gen with seed; n_policies = max 1 (size / 6) }
        ()
  | "tops" ->
      Tops.generate
        ~params:{ Tops.default_gen with seed; subscribers = max 1 (size / 13) }
        ()
  | "random" ->
      Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size } ()
  | other ->
      Fmt.epr "unknown directory %S (try figure11, figure12, qos, tops, random)@." other;
      exit 2

let help () =
  Fmt.pr
    "@[<v>Queries:@,\
    \  (dc=att, dc=com ? sub ? surName=jagadish)        atomic (L0)@,\
    \  (& Q Q)  (| Q Q)  (- Q Q)                        boolean (L0)@,\
    \  (p Q Q) (c Q Q) (a Q Q) (d Q Q) (ac Q Q Q) (dc Q Q Q)   hierarchy (L1)@,\
    \  (g Q min(a) = min(min(a)))  (c Q Q count($2) > 3)       aggregates (L2)@,\
    \  (vd Q Q attr)  (dv Q Q attr [aggfilter])                references (L3)@,\
    \  ldap:///<base>?<scope>?(filter)                  LDAP baseline@,\
     Commands:@,\
    \  :schema          show the schema@,\
    \  :entry <dn>      show one entry@,\
    \  :roots           show the forest roots@,\
    \  :size            number of entries@,\
    \  :verbose         toggle printing full entries@,\
    \  :stats           show accumulated io counters@,\
    \  :stats reset     reset io counters, metrics and retained traces@,\
    \  :reset           reset io counters@,\
    \  :metrics [json]  show the metrics registry (text or JSON lines)@,\
    \  :trace on|off    toggle span tracing of queries@,\
    \  :trace last      show the span tree of the last traced query@,\
    \  :journal on|off|<path>   journal every query as JSON lines@,\
    \                   (on = _build/ndq_journal.jsonl)@,\
    \  :slowlog [n]     show the n slowest journaled queries Tail retains@,\
    \                   (threshold: :tail threshold <ms>, default 50)@,\
    \  :replay <path>   re-run a journal, diffing result counts and io@,\
    \                   (ends with an estimate-accuracy summary)@,\
    \  :planstats       q-error summary of the plan-quality store@,\
    \  :planstats build <journal>   rebuild the store from a journal@,\
    \  :planstats save|load <path>  persist / merge calibration cells@,\
    \  :planstats baseline <path>   load a drift-detection baseline@,\
    \  :planstats drift show drift notes;  :planstats clear  reset@,\
    \  :workload [n]    top plans by total wall time@,\
    \  :cache on|off    toggle the semantic query-result cache@,\
    \  :cache stats     hit/miss/stale counters and residency@,\
    \  :cache clear     drop every cached result@,\
    \  :cache budget <pages>    set the cache's page budget@,\
    \  :cache threshold <io>    min evaluation io to admit a result@,\
    \  :serve <port> [workers <n>] [queue <n>]   start the server: HTTP@,\
    \                   /query + line protocol on a worker pool with a@,\
    \                   bounded admission queue (0 = free port), and@,\
    \                   /metrics /healthz /slowlog /trace /planstats@,\
    \                   /workload /cache /alerts /tail /range@,\
    \                   /dashboard on the same port (also starts the@,\
    \                   tsdb sampler, which ticks the alert rules)@,\
    \  :serve off       stop the server@,\
    \  :monitor <port>|off   :serve <port> workers 0 | :serve off@,\
    \  :alerts          rule states (pending/firing) and last values@,\
    \  :alerts rules    the installed rule expressions@,\
    \  :alerts history [n]      recent state transitions@,\
    \  :alerts silence <name> [off]   mute/unmute an alert's export@,\
    \  :alerts tick     take a tsdb sample + evaluate rules, by hand@,\
    \  :tail            tail-sampled traces (slow/errored/shed/deadline@,\
    \                   always kept, plus a seeded 1-in-N baseline)@,\
    \  :tail threshold <ms> | sample <n> | budget <spans> | clear@,\
    \  :tsdb            flight-recorder status (windows, series held)@,\
    \  :tsdb save <path>        write the recorded windows (JSON lines)@,\
    \  :tsdb on|off     start/stop the tsdb sampler (and alert@,\
    \                   ticks) by hand@,\
    \  :top [n]         live metrics view (n one-second refreshes;@,\
    \                   sparklines when the flight recorder has data)@,\
    \  :mode streaming|materialized   operator-boundary handling@,\
    \                   (streaming pipelines the whole tree; default)@,\
    \  :planner auto|force index|force scan   access-path policy@,\
    \                   (auto = cost-based + calibrated; default)@,\
    \  :planner paths   how many atomics each path served@,\
    \  :explain <query> estimated vs measured plan (est io split into@,\
    \                   reads+writes, with the writes streaming saves)@,\
    \  :add <ldif>      add one entry (dn: ...; attr: value; ...)@,\
    \  :delete <dn>     delete a leaf entry ( :deltree for subtrees )@,\
    \  :set <dn> ; <attr> <value>   add an attribute value@,\
    \  :save <file>     write the directory as LDIF@,\
    \  :load <file>     replace the directory from LDIF@,\
    \  :help            this text@,\
    \  :quit            leave@]@."

let show_result st entries =
  Fmt.pr "%d entries@." (List.length entries);
  List.iter
    (fun e ->
      if st.verbose then Fmt.pr "%a@.@." Entry.pp e
      else Fmt.pr "  %a@." Dn.pp (Entry.dn e))
    entries;
  Fmt.pr "io: %a@." Io_stats.pp (Engine.stats (engine st))

let parse_dn st text =
  Dn.of_string_with
    ~lookup:(Schema.attr_type (Directory.schema st.directory))
    (String.trim text)

let run_query st line =
  let eng = engine st in
  let schema = Directory.schema st.directory in
  try
    (* One root span per shell query: parse and execute become children,
       so :trace last shows the full pipeline. *)
    let (), span =
      Trace.with_span_out ~detail:line ~stats:(Engine.stats eng) "query"
        (fun () ->
          if String.length line >= 5 && String.sub line 0 5 = "ldap:" then begin
            let q =
              Trace.with_span ~detail:line "parse" (fun () ->
                  Ldap.of_string ~schema line)
            in
            (* evaluate via the L0 translation so the same engine serves it *)
            let entries = Engine.eval_entries eng (Ldap.to_l0 q) in
            show_result st entries
          end
          else begin
            let q =
              Trace.with_span ~detail:line "parse" (fun () ->
                  Qparser.of_string ~schema line)
            in
            (match Lang.check q with
            | Ok () -> ()
            | Error errs ->
                List.iter (fun e -> Fmt.pr "warning: %a@." Lang.pp_error e) errs);
            Fmt.pr "[%s] " (Lang.level_to_string (Lang.level q));
            let entries = Engine.eval_entries eng q in
            show_result st entries
          end)
    in
    Option.iter (fun sp -> st.last_trace <- Some sp) span
  with
  | Qparser.Parse_error m -> Fmt.pr "parse error: %s@." m
  | Ldap.Parse_error m -> Fmt.pr "ldap parse error: %s@." m
  | Afilter.Parse_error m -> Fmt.pr "filter parse error: %s@." m
  | Dn.Parse_error m -> Fmt.pr "dn parse error: %s@." m

let report_update st = function
  | Ok () -> Fmt.pr "ok (%d entries)@." (Directory.size st.directory)
  | Error e -> Fmt.pr "rejected: %a@." Directory.pp_error e

(* Re-execute a recorded journal against the current build and diff
   what changed: result counts (a correctness regression) and I/O cost
   (a performance shift).  Journaled failures are skipped; queries that
   no longer parse or now fail are reported as errors. *)
let replay st path =
  match Qlog.load path with
  | exception Sys_error m -> Fmt.pr "%s@." m
  | exception Json.Parse_error m -> Fmt.pr "bad journal %s: %s@." path m
  | events ->
      let eng = engine st in
      let schema = Directory.schema st.directory in
      let stats = Engine.stats eng in
      (* Don't journal the replay itself (least surprise, and replaying
         a journal into itself would never terminate the diff). *)
      let journal_was = Qlog.path () in
      Qlog.disable ();
      Fun.protect
        ~finally:(fun () ->
          match journal_was with Some p -> Qlog.enable p | None -> ())
        (fun () ->
          let total = ref 0
          and count_diffs = ref 0
          and io_diffs = ref 0
          and errors = ref 0 in
          List.iter
            (fun (ev : Qlog.event) ->
              match ev.Qlog.outcome with
              | Qlog.Failed _ -> ()
              | Qlog.Ok -> (
                  incr total;
                  let reads0 = stats.Io_stats.page_reads
                  and writes0 = stats.Io_stats.page_writes in
                  match
                    Engine.eval eng (Qparser.of_string ~schema ev.Qlog.query)
                  with
                  | exception e ->
                      incr errors;
                      Fmt.pr "#%d now fails (%s): %s@." ev.Qlog.seq
                        (Printexc.to_string e) ev.Qlog.query
                  | out ->
                      let n = Ext_list.length out in
                      let reads = stats.Io_stats.page_reads - reads0
                      and writes = stats.Io_stats.page_writes - writes0 in
                      if n <> ev.Qlog.result_count then begin
                        incr count_diffs;
                        Fmt.pr "#%d result count %d -> %d: %s@." ev.Qlog.seq
                          ev.Qlog.result_count n ev.Qlog.query
                      end;
                      if reads <> ev.Qlog.reads || writes <> ev.Qlog.writes
                      then begin
                        incr io_diffs;
                        Fmt.pr "#%d io %d+%d -> %d+%d: %s@." ev.Qlog.seq
                          ev.Qlog.reads ev.Qlog.writes reads writes
                          ev.Qlog.query
                      end))
            events;
          Fmt.pr
            "replayed %d queries from %s: %d result-count diffs, %d io \
             diffs, %d errors@."
            !total path !count_diffs !io_diffs !errors;
          (* How good were the planner's estimates when the journal was
             recorded?  Folded from the journal itself, not the re-run,
             so the summary describes the recorded workload. *)
          let ps = Planstats.of_events events in
          if Planstats.events ps > 0 then begin
            Fmt.pr "estimate accuracy (recorded estimates vs actuals):@.";
            Fmt.pr "%a" Planstats.pp_summary ps
          end)

(* Per-route totals of the serving front-end's request counter, summed
   over the status label, for the :top dashboard. *)
let srv_route_totals () =
  match
    List.find_opt
      (fun f -> f.Metrics.fv_name = "srv_requests_total")
      (Metrics.export Metrics.default)
  with
  | None -> []
  | Some f ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (labels, v) ->
          let route =
            Option.value ~default:"?" (List.assoc_opt "route" labels)
          in
          let n = match v with Metrics.V_counter c -> c | _ -> 0 in
          Hashtbl.replace tbl route
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl route)))
        f.Metrics.fv_series;
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* A unicode sparkline over the flight recorder's trailing minute —
   the :top counterpart of the dashboard's SVG panels.  Empty when the
   tsdb sampler has recorded nothing for the metric, so :top looks
   unchanged until :monitor or :serve starts the sampler. *)
let spark st ?(scale = 1.) ?(unit = "") name agg =
  let pts = Tsdb.range st.obs.Obs.tsdb ~window_s:60. ~step_s:2. ~agg name in
  let vals = List.filter_map snd pts in
  if vals = [] then ""
  else begin
    let lo = List.fold_left Float.min infinity vals
    and hi = List.fold_left Float.max neg_infinity vals in
    let glyphs = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                    "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]
    in
    let buf = Buffer.create 64 in
    List.iter
      (fun (_, v) ->
        match v with
        | None -> Buffer.add_char buf ' '
        | Some v ->
            let t =
              if hi -. lo < 1e-12 then 0.5 else (v -. lo) /. (hi -. lo)
            in
            Buffer.add_string buf glyphs.(min 7 (int_of_float (t *. 8.))))
      pts;
    Printf.sprintf "  %s hi=%.3g%s" (Buffer.contents buf) (hi /. scale) unit
  end

(* The :top live view: a compact dashboard over the default registry
   (the same numbers /metrics exposes), refreshed in place. *)
let show_top st frames =
  let prev_routes = ref (srv_route_totals ()) in
  let frame i =
    if frames > 1 then Fmt.pr "\027[2J\027[H";
    let queries =
      Metrics.counter_value (Metrics.counter "engine_queries_total")
      + Metrics.counter_value (Metrics.counter "dist_queries_total")
    in
    let lat = Metrics.histogram "engine_query_ns" in
    let reads = Metrics.counter_value (Metrics.counter "engine_page_reads_total")
    and writes =
      Metrics.counter_value (Metrics.counter "engine_page_writes_total")
    in
    Fmt.pr "ndq top  (frame %d/%d)@." (i + 1) frames;
    Fmt.pr "  queries   %d total@." queries;
    Fmt.pr "  latency   n=%d  p50=%a  p99=%a%s@."
      (Metrics.histogram_count lat)
      Mclock.pp_ns
      (int_of_float (Metrics.quantile lat 0.5))
      Mclock.pp_ns
      (int_of_float (Metrics.quantile lat 0.99))
      (spark st ~scale:1e6 ~unit:"ms" "engine_query_ns" (Tsdb.Quantile 0.99));
    Fmt.pr "  io        reads=%d writes=%d%s@." reads writes
      (spark st ~unit:"/s" "engine_page_reads_total" Tsdb.Rate);
    (let pi, ps, pc = Engine.path_counts st.engine in
     Fmt.pr "  planner   %s  paths: index=%d scan=%d cache=%d@."
       (match st.planner with
       | Engine.Auto -> "auto"
       | Engine.Force_index -> "force index"
       | Engine.Force_scan -> "force scan")
       pi ps pc);
    Fmt.pr "  cache     %s  %a@."
      (if st.cache_on then "on" else "off")
      Cache.pp st.cache;
    Fmt.pr "  slowlog   %d slow queries (threshold %a)@."
      (List.length (Tail.slowlog 64))
      Mclock.pp_ns (Tail.slow_threshold_ns ());
    Fmt.pr "  journal   %s@."
      (match Qlog.path () with Some p -> p | None -> "off");
    (match st.server with
    | None -> Fmt.pr "  serving   off@."
    | Some srv ->
        Fmt.pr "  serving   port=%d workers=%d queue=%d/%d sessions=%d shed=%d%s@."
          (Srv.port srv) (Srv.workers srv) (Srv.queue_depth srv)
          (Srv.queue_capacity srv) (Srv.session_count srv)
          (Metrics.counter_value (Metrics.counter "srv_shed_total"))
          (spark st ~scale:1e6 ~unit:"ms" "srv_request_ns" (Tsdb.Quantile 0.99));
        let now = srv_route_totals () in
        List.iter
          (fun (route, n) ->
            let before =
              Option.value ~default:0 (List.assoc_opt route !prev_routes)
            in
            if i > 0 then
              Fmt.pr "    route %-9s %6d total  %4d req/s@." route n
                (max 0 (n - before))
            else Fmt.pr "    route %-9s %6d total@." route n)
          now;
        prev_routes := now)
  in
  for i = 0 to frames - 1 do
    if i > 0 then Unix.sleepf 1.0;
    frame i
  done

(* The shell's one clock: the flight recorder's sampler thread, whose
   period ticks the alert evaluator (an alert tick takes the period's
   one sample, runtime gauges included). *)
let start_sampler st =
  Tsdb.start ~tick:(fun () -> Alerts.tick st.obs.Obs.alerts) st.obs.Obs.tsdb

(* The flight recorder samples whenever the server runs (/range,
   /dashboard and /alerts feed on it).  When the server stops, so does
   the sampler thread; ndqsh exits with no thread left behind. *)
let sync_tsdb st =
  if st.server <> None then start_sampler st
  else Tsdb.stop st.obs.Obs.tsdb

let stop_server st =
  let stopped =
    match st.server with
    | None -> false
    | Some s ->
        Srv.stop s;
        st.server <- None;
        true
  in
  sync_tsdb st;
  stopped

(* The serving workers each build their own engine over the directory's
   instance at start time — updates made at the shell afterwards are
   not visible to them until :serve is restarted (the instance itself
   is immutable, so concurrent serving needs no locks).  Zero workers
   is the monitor-only server. *)
let start_server st ~port ~workers ~queue =
  ignore (stop_server st);
  let instance = Directory.instance st.directory in
  let block = st.block and mode = st.mode in
  match
    Srv.start ~obs:st.obs ~workers ~queue ~port
      ~make_engine:(fun () -> Engine.create ~block ~mode instance)
      ()
  with
  | s ->
      (* /cache lives above lib/obs, so the shell registers it. *)
      Srv.add_handler s "cache" (fun path ->
          if path = "/cache" then
            Some
              (Monitor.respond ~content_type:"application/json"
                 (Json.to_string (Cache.stats_json st.cache)))
          else None);
      st.server <- Some s;
      sync_tsdb st;
      if workers = 0 then
        Fmt.pr
          "monitoring on http://127.0.0.1:%d/ (no workers, queries are shed; \
           :monitor off to stop)@."
          (Srv.port s)
      else
        Fmt.pr
          "serving on http://127.0.0.1:%d/ (%d workers, queue %d; HTTP /query \
           + line protocol + introspection; :serve off to stop)@."
          (Srv.port s) workers queue
  | exception Unix.Unix_error (e, _, _) ->
      Fmt.pr "cannot listen on port %d: %s@." port (Unix.error_message e)

(* [workers <n>] [queue <n>] in either order after :serve <port>. *)
let rec parse_serve_opts ~workers ~queue = function
  | [] -> Some (workers, queue)
  | "workers" :: n :: rest -> (
      match int_of_string_opt n with
      | Some w when w >= 0 -> parse_serve_opts ~workers:w ~queue rest
      | _ -> None)
  | "queue" :: n :: rest -> (
      match int_of_string_opt n with
      | Some q when q > 0 -> parse_serve_opts ~workers ~queue:q rest
      | _ -> None)
  | _ -> None

let run_command st line =
  let instance = Directory.instance st.directory in
  match String.split_on_char ' ' line with
  | ":help" :: _ -> help ()
  | ":schema" :: _ -> Fmt.pr "%a@." Schema.pp (Instance.schema instance)
  | ":size" :: _ -> Fmt.pr "%d entries@." (Instance.size instance)
  | ":roots" :: _ ->
      List.iter (fun e -> Fmt.pr "  %a@." Dn.pp (Entry.dn e)) (Instance.roots instance)
  | ":verbose" :: _ ->
      st.verbose <- not st.verbose;
      Fmt.pr "verbose = %b@." st.verbose
  | ":stats" :: "reset" :: _ ->
      Engine.reset_stats (engine st);
      Metrics.reset Metrics.default;
      Tail.clear ();
      st.last_trace <- None;
      Fmt.pr "io counters, metrics and traces reset@."
  | ":stats" :: _ -> Fmt.pr "%a@." Io_stats.pp (Engine.stats (engine st))
  | ":reset" :: _ ->
      Engine.reset_stats (engine st);
      Fmt.pr "counters reset@."
  | ":metrics" :: "json" :: _ -> print_string (Metrics.to_json_lines Metrics.default)
  | ":metrics" :: _ -> Fmt.pr "%a" Metrics.pp Metrics.default
  | ":trace" :: "on" :: _ ->
      Trace.set_enabled true;
      Fmt.pr "tracing on@."
  | ":trace" :: "off" :: _ ->
      Trace.set_enabled false;
      Fmt.pr "tracing off@."
  | ":trace" :: "last" :: _ -> (
      match st.last_trace with
      | Some span -> Fmt.pr "%a@." Trace.pp_span span
      | None -> Fmt.pr "no trace recorded (try :trace on, then a query)@.")
  | ":trace" :: _ ->
      Fmt.pr "tracing is %s (usage: :trace on|off|last)@."
        (if Trace.enabled () then "on" else "off")
  | ":journal" :: "on" :: _ ->
      ensure_parent default_journal;
      Qlog.enable default_journal;
      Fmt.pr "journaling to %s@." default_journal
  | ":journal" :: "off" :: _ ->
      Qlog.disable ();
      Fmt.pr "journal off@."
  | ":journal" :: path :: _ when path <> "" ->
      ensure_parent path;
      Qlog.enable path;
      Fmt.pr "journaling to %s@." path
  | ":journal" :: _ -> (
      match Qlog.path () with
      | Some p -> Fmt.pr "journaling to %s (usage: :journal on|off|<path>)@." p
      | None -> Fmt.pr "journal is off (usage: :journal on|off|<path>)@.")
  | ":slowlog" :: rest -> (
      let n =
        match rest with
        | s :: _ -> Option.value ~default:10 (int_of_string_opt s)
        | [] -> 10
      in
      match Tail.slowlog n with
      | [] ->
          Fmt.pr
            "no slow queries retained (threshold %a; enable the journal with \
             :journal on)@."
            Mclock.pp_ns (Tail.slow_threshold_ns ())
      | events ->
          let indented text =
            List.iter
              (fun l -> if l <> "" then Fmt.pr "    %s@." l)
              (String.split_on_char '\n' text)
          in
          List.iter
            (fun (_, (ev : Qlog.event)) ->
              Fmt.pr "%a@." Qlog.pp_event ev;
              match ev.Qlog.capture with
              | None -> ()
              | Some c ->
                  if c.Qlog.span_text <> "" then begin
                    Fmt.pr "  spans:@.";
                    indented c.Qlog.span_text
                  end;
                  if c.Qlog.plan_text <> "" then begin
                    Fmt.pr "  plan:@.";
                    indented c.Qlog.plan_text
                  end)
            events)
  | ":replay" :: path :: _ -> replay st path
  | ":planstats" :: "build" :: path :: _ -> (
      let ps = st.obs.Obs.planstats in
      Planstats.clear ps;
      match Planstats.build ps path with
      | n -> Fmt.pr "rebuilt from %d events of %s@." n path
      | exception Sys_error m -> Fmt.pr "%s@." m
      | exception Json.Parse_error m -> Fmt.pr "bad journal %s: %s@." path m)
  | ":planstats" :: "save" :: path :: _ -> (
      match Planstats.save st.obs.Obs.planstats path with
      | n -> Fmt.pr "wrote %d calibration cells to %s@." n path
      | exception Sys_error m -> Fmt.pr "%s@." m)
  | ":planstats" :: "load" :: path :: _ -> (
      match Planstats.load path with
      | loaded ->
          Planstats.merge ~into:st.obs.Obs.planstats loaded;
          Fmt.pr "merged calibration from %s@." path
      | exception Sys_error m -> Fmt.pr "%s@." m
      | exception Json.Parse_error m ->
          Fmt.pr "bad calibration %s: %s@." path m)
  | ":planstats" :: "baseline" :: path :: _ -> (
      match Planstats.load path with
      | b ->
          Planstats.set_baseline st.obs.Obs.planstats b;
          Fmt.pr "drift baseline loaded from %s@." path
      | exception Sys_error m -> Fmt.pr "%s@." m
      | exception Json.Parse_error m ->
          Fmt.pr "bad calibration %s: %s@." path m)
  | ":planstats" :: "drift" :: _ ->
      Fmt.pr "%a" Planstats.pp_drift st.obs.Obs.planstats
  | ":planstats" :: "clear" :: _ ->
      Planstats.clear st.obs.Obs.planstats;
      Fmt.pr "plan-quality store cleared@."
  | ":planstats" :: _ ->
      if Planstats.events st.obs.Obs.planstats = 0 then
        Fmt.pr
          "no plan-quality observations (run journaled queries, or \
           :planstats build <journal>)@."
      else Fmt.pr "%a" Planstats.pp_summary st.obs.Obs.planstats
  | ":workload" :: rest ->
      let top =
        match rest with
        | s :: _ -> max 1 (Option.value ~default:20 (int_of_string_opt s))
        | [] -> 20
      in
      if Planstats.events st.obs.Obs.planstats = 0 then
        Fmt.pr "no workload observations (run journaled queries first)@."
      else Fmt.pr "%a" (Planstats.pp_workload ~top) st.obs.Obs.planstats
  | ":cache" :: "on" :: _ ->
      st.cache_on <- true;
      invalidate_engine st;
      Fmt.pr "result cache on (budget %d pages, admission io>=%d)@."
        (Cache.budget_pages st.cache)
        (Cache.admit_min_io st.cache)
  | ":cache" :: "off" :: _ ->
      st.cache_on <- false;
      invalidate_engine st;
      Fmt.pr "result cache off (entries kept; :cache clear to drop)@."
  | ":cache" :: "stats" :: _ ->
      Fmt.pr "@[<v>result cache %s@,%a@]@."
        (if st.cache_on then "on" else "off")
        Cache.pp st.cache
  | ":cache" :: "clear" :: _ ->
      Cache.clear st.cache;
      Fmt.pr "result cache cleared@."
  | ":cache" :: "budget" :: n :: _ -> (
      match int_of_string_opt n with
      | Some v when v >= 0 ->
          Cache.set_budget_pages st.cache v;
          Fmt.pr "result-cache budget = %d pages@." v
      | _ -> Fmt.pr "usage: :cache budget <pages>@.")
  | ":cache" :: "threshold" :: n :: _ -> (
      match int_of_string_opt n with
      | Some v ->
          Cache.set_admit_min_io st.cache v;
          Fmt.pr "result-cache admission threshold = io>=%d@." v
      | _ -> Fmt.pr "usage: :cache threshold <io>@.")
  | ":cache" :: _ ->
      Fmt.pr
        "result cache is %s (usage: :cache \
         on|off|stats|clear|budget <pages>|threshold <io>)@."
        (if st.cache_on then "on" else "off")
  | ":monitor" :: port :: _ when int_of_string_opt port <> None ->
      start_server st
        ~port:(Option.get (int_of_string_opt port))
        ~workers:0 ~queue:64
  | (":serve" | ":monitor") :: "off" :: _ ->
      if stop_server st then Fmt.pr "serving stopped@."
      else Fmt.pr "serving is not running@."
  | ":serve" :: port :: rest when int_of_string_opt port <> None -> (
      match parse_serve_opts ~workers:4 ~queue:64 rest with
      | Some (workers, queue) ->
          start_server st
            ~port:(Option.get (int_of_string_opt port))
            ~workers ~queue
      | None -> Fmt.pr "usage: :serve <port> [workers <n>] [queue <n>]@.")
  | (":serve" | ":monitor") :: _ ->
      Fmt.pr "serving is %s (usage: :serve <port> [workers <n>] [queue <n>]|off)@."
        (match st.server with
        | Some s ->
            Printf.sprintf "on 127.0.0.1:%d (%d workers, queue %d/%d)"
              (Srv.port s) (Srv.workers s) (Srv.queue_depth s)
              (Srv.queue_capacity s)
        | None -> "off")
  | ":alerts" :: "rules" :: _ ->
      let a = st.obs.Obs.alerts in
      (match Alerts.rules a with
      | [] -> Fmt.pr "no alert rules installed@."
      | rules ->
          List.iter
            (fun (r : Alerts.rule) ->
              Fmt.pr "%s [%s]: %s@." r.Alerts.name r.Alerts.severity
                r.Alerts.text)
            rules)
  | ":alerts" :: "history" :: rest ->
      let a = st.obs.Obs.alerts in
      let n =
        match rest with
        | s :: _ -> max 1 (Option.value ~default:20 (int_of_string_opt s))
        | [] -> 20
      in
      (match Alerts.history a with
      | [] -> Fmt.pr "no alert transitions yet@."
      | trs ->
          List.iteri
            (fun i tr -> if i < n then Fmt.pr "%a@." Alerts.pp_transition tr)
            trs)
  | ":alerts" :: "silence" :: name :: rest ->
      let a = st.obs.Obs.alerts in
      let on =
        match rest with "off" :: _ -> false | _ -> not (Alerts.is_silenced a name)
      in
      if Alerts.silence a name on then
        Fmt.pr "%s %s@." name (if on then "silenced" else "unsilenced")
      else Fmt.pr "no alert rule named %s@." name
  | ":alerts" :: "tick" :: _ ->
      Alerts.tick st.obs.Obs.alerts;
      Fmt.pr "tick %d: %d firing@."
        (Alerts.ticks st.obs.Obs.alerts)
        (List.length (Alerts.firing st.obs.Obs.alerts))
  | ":alerts" :: _ ->
      let a = st.obs.Obs.alerts in
      (match Alerts.rules a with
      | [] ->
          Fmt.pr
            "no alert rules installed (usage: :alerts \
             [list|rules|history [n]|silence <name> [off]|tick])@."
      | rules ->
          Fmt.pr "@[<v>tick %d, %d firing@," (Alerts.ticks a)
            (List.length (Alerts.firing a));
          List.iter (fun r -> Fmt.pr "%a@," (Alerts.pp_rule a) r) rules;
          Fmt.pr "@]")
  | ":tail" :: "threshold" :: v :: _ -> (
      match float_of_string_opt v with
      | Some ms when ms >= 0. ->
          Tail.set_slow_threshold_ns (int_of_float (ms *. 1e6));
          Fmt.pr "slow-query threshold = %gms@." ms
      | _ -> Fmt.pr "usage: :tail threshold <ms>@.")
  | ":tail" :: "sample" :: v :: _ -> (
      match int_of_string_opt v with
      | Some n when n >= 0 ->
          Tail.set_sample_every n;
          Fmt.pr "tail baseline sample = %s@."
            (if n = 0 then "off" else Printf.sprintf "1-in-%d" n)
      | _ -> Fmt.pr "usage: :tail sample <n>   (0 disables the baseline)@.")
  | ":tail" :: "budget" :: v :: _ -> (
      match int_of_string_opt v with
      | Some n when n > 0 ->
          Tail.set_budget_spans n;
          Fmt.pr "tail budget = %d spans@." n
      | _ -> Fmt.pr "usage: :tail budget <spans>@.")
  | ":tail" :: "clear" :: _ ->
      Tail.clear ();
      Fmt.pr "tail store cleared@."
  | ":tail" :: _ ->
      let rs = Tail.retained () in
      Fmt.pr "tail: %d traces, %d/%d spans; slow>=%a, baseline %s@."
        (List.length rs) (Tail.retained_spans ()) (Tail.budget_spans ())
        Mclock.pp_ns (Tail.slow_threshold_ns ())
        (match Tail.sample_every () with
        | 0 -> "off"
        | n -> Printf.sprintf "1-in-%d" n);
      List.iteri
        (fun i r ->
          if i < 10 then
            Fmt.pr "  %-18s %-8s %-6s %a  %d spans@." r.Tail.r_trace_id
              (Tail.reason_to_string r.Tail.r_reason)
              r.Tail.r_origin Mclock.pp_ns r.Tail.r_wall_ns
              (Trace.span_count r.Tail.r_span))
        rs;
      if List.length rs > 10 then
        Fmt.pr "  ... %d more (/tail shows them all)@." (List.length rs - 10)
  | ":tsdb" :: "save" :: path :: _ ->
      ensure_parent path;
      Tsdb.save st.obs.Obs.tsdb path;
      Fmt.pr "wrote %d windows to %s@." (Tsdb.window_count st.obs.Obs.tsdb) path
  | ":tsdb" :: "on" :: _ ->
      start_sampler st;
      Fmt.pr "tsdb sampler on (%.3gs resolution)@."
        (Tsdb.resolution_s st.obs.Obs.tsdb)
  | ":tsdb" :: "off" :: _ ->
      Tsdb.stop st.obs.Obs.tsdb;
      Fmt.pr "tsdb sampler off@."
  | ":tsdb" :: _ ->
      let t = st.obs.Obs.tsdb in
      let series = Tsdb.series t in
      Fmt.pr "tsdb: sampler %s, %d/%d windows at %.3gs resolution, %d series@."
        (if Tsdb.running t then "running" else "stopped")
        (Tsdb.window_count t) (Tsdb.capacity t) (Tsdb.resolution_s t)
        (List.length series);
      List.iter (fun (n, k) -> Fmt.pr "  %-40s %s@." n k) series
  | ":top" :: rest ->
      let frames =
        match rest with
        | s :: _ -> max 1 (Option.value ~default:1 (int_of_string_opt s))
        | [] -> 1
      in
      show_top st frames
  | ":entry" :: rest -> (
      let dn_text = String.concat " " rest in
      match Instance.find instance (parse_dn st dn_text) with
      | Some e -> Fmt.pr "%a@." Entry.pp e
      | None -> Fmt.pr "no entry %s@." (String.trim dn_text)
      | exception Dn.Parse_error m -> Fmt.pr "bad dn: %s@." m)
  | ":mode" :: "streaming" :: _ ->
      st.mode <- Engine.Streaming;
      Engine.set_mode (engine st) Engine.Streaming;
      Fmt.pr "mode = streaming (operator boundaries pipeline)@."
  | ":mode" :: "materialized" :: _ ->
      st.mode <- Engine.Materialized;
      Engine.set_mode (engine st) Engine.Materialized;
      Fmt.pr "mode = materialized (every intermediate result is written)@."
  | ":mode" :: _ ->
      Fmt.pr "mode is %s (usage: :mode streaming|materialized)@."
        (match st.mode with
        | Engine.Streaming -> "streaming"
        | Engine.Materialized -> "materialized")
  | ":planner" :: rest -> (
      let set p name note =
        st.planner <- p;
        Engine.set_planner (engine st) p;
        Fmt.pr "planner = %s (%s)@." name note
      in
      match rest with
      | "auto" :: _ ->
          set Engine.Auto "auto"
            "cost-based: cheapest of index/scan/cache per atomic, calibrated, \
             boolean chains reordered"
      | "force" :: "index" :: _ | "index" :: _ ->
          set Engine.Force_index "force index" "every sub atomic probes the index"
      | "force" :: "scan" :: _ | "scan" :: _ ->
          set Engine.Force_scan "force scan" "every sub atomic scans the subtree"
      | "paths" :: _ ->
          let i, s, c = Engine.path_counts (engine st) in
          Fmt.pr "paths taken: index=%d scan=%d cache=%d@." i s c
      | _ ->
          let i, s, c = Engine.path_counts (engine st) in
          Fmt.pr
            "planner is %s (paths: index=%d scan=%d cache=%d)@,\
             usage: :planner auto|force index|force scan|paths@."
            (match st.planner with
            | Engine.Auto -> "auto"
            | Engine.Force_index -> "force index"
            | Engine.Force_scan -> "force scan")
            i s c)
  | ":explain" :: rest -> (
      let text = String.trim (String.concat " " rest) in
      match Qparser.of_string ~schema:(Instance.schema instance) text with
      | q ->
          let _, plan = Explain.profile ~mode:st.mode (engine st) q in
          Fmt.pr "%a@." Plan.pp_node plan;
          Fmt.pr "est writes saved by streaming: %d pages (mode: %s)@."
            (Plan.total_est_writes_saved plan)
            (match st.mode with
            | Engine.Streaming -> "streaming"
            | Engine.Materialized -> "materialized")
      | exception Qparser.Parse_error m -> Fmt.pr "parse error: %s@." m)
  | ":add" :: rest -> (
      (* one-line LDIF record with ';' as the line separator:
         :add dn: id=9, dc=x ; id: 9 ; objectClass: person *)
      let text =
        String.concat "
"
          (List.map String.trim
             (String.split_on_char ';' (String.concat " " rest)))
      in
      match Ldif.of_string ~schema:(Instance.schema instance) text with
      | added ->
          List.iter
            (fun e ->
              report_update st
                (Directory.add ~as_root:(Dn.depth (Entry.dn e) = 1) st.directory e))
            (Instance.to_list added)
      | exception Ldif.Parse_error m -> Fmt.pr "ldif error: %s@." m
      | exception Instance.Invalid v ->
          Fmt.pr "invalid: %a@." Instance.pp_violation v)
  | ":delete" :: rest -> (
      match parse_dn st (String.concat " " rest) with
      | dn -> report_update st (Directory.delete st.directory dn)
      | exception Dn.Parse_error m -> Fmt.pr "bad dn: %s@." m)
  | ":deltree" :: rest -> (
      match parse_dn st (String.concat " " rest) with
      | dn -> report_update st (Directory.delete ~subtree:true st.directory dn)
      | exception Dn.Parse_error m -> Fmt.pr "bad dn: %s@." m)
  | ":set" :: rest -> (
      match String.split_on_char ';' (String.concat " " rest) with
      | [ dn_text; assignment ] -> (
          match
            ( parse_dn st dn_text,
              String.split_on_char ' ' (String.trim assignment)
              |> List.filter (fun s -> s <> "") )
          with
          | dn, [ attr; value ] ->
              let v =
                match Schema.attr_type (Instance.schema instance) attr with
                | Some Value.T_int -> Value.Int (int_of_string value)
                | Some Value.T_dn -> Value.Dn (parse_dn st value)
                | Some Value.T_string | None -> Value.Str value
              in
              report_update st
                (Directory.modify st.directory dn [ Directory.Add_value (attr, v) ])
          | _, _ -> Fmt.pr "usage: :set <dn> ; <attr> <value>@."
          | exception Dn.Parse_error m -> Fmt.pr "bad dn: %s@." m
          | exception Failure _ -> Fmt.pr "bad int value@.")
      | _ -> Fmt.pr "usage: :set <dn> ; <attr> <value>@.")
  | ":save" :: path :: _ ->
      Ldif.save path instance;
      Fmt.pr "wrote %d entries to %s@." (Instance.size instance) path
  | ":load" :: path :: _ -> (
      match Ldif.load path with
      | loaded ->
          st.directory <- Directory.create loaded;
          (* fresh directory, fresh hooks: re-home the cache (settings
             survive, stale entries don't) *)
          st.cache <-
            Cache.create
              ~budget_pages:(Cache.budget_pages st.cache)
              ~admit_min_io:(Cache.admit_min_io st.cache)
              ();
          Cache.attach st.cache st.directory;
          invalidate_engine st;
          Fmt.pr "loaded %d entries@." (Instance.size loaded)
      | exception Ldif.Parse_error m -> Fmt.pr "ldif error: %s@." m
      | exception Sys_error m -> Fmt.pr "%s@." m
      | exception Instance.Invalid v ->
          Fmt.pr "invalid: %a@." Instance.pp_violation v)
  | cmd :: _ -> Fmt.pr "unknown command %s (:help for help)@." cmd
  | [] -> ()

let repl st =
  help ();
  let rec loop () =
    Fmt.pr "ndq> %!";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line -> (
        let line = String.trim line in
        match line with
        | "" -> loop ()
        | ":quit" | ":q" -> ()
        | _ ->
            if line.[0] = ':' then run_command st line else run_query st line;
            loop ())
  in
  loop ()

let main kind size seed block journal monitor_port serve_port serve_workers
    serve_queue queries =
  if monitor_port <> None && serve_port <> None then begin
    Fmt.epr
      "ndqsh: --monitor and --serve both start the one server; --serve \
       already answers every introspection route@.";
    exit 2
  end;
  let dir = load_directory kind size seed in
  Fmt.pr "loaded %S: %d entries (block %d)@." kind (Instance.size dir) block;
  let directory = Directory.create dir in
  let cache = Cache.create () in
  Cache.attach cache directory;
  (* The shell's one context, over the default registry: the server
     started by --serve, --monitor or :serve reads it too. *)
  let obs = Obs.create (Tsdb.create ()) in
  (* Every journaled query feeds the plan-quality store, so
     :planstats, /planstats and /workload are live from the start. *)
  Planstats.attach obs.Obs.planstats;
  (* Stock service-health rules; :alerts and /alerts show them, the
     flight recorder's sampler ticks them while it runs. *)
  Alerts.install_defaults obs.Obs.alerts;
  let st =
    {
      directory;
      engine = Engine.create ~block ~directory dir;
      engine_stale = false;
      block;
      verbose = false;
      cache;
      cache_on = false;
      server = None;
      obs;
      mode = Engine.Streaming;
      planner = Engine.Auto;
      last_trace = None;
    }
  in
  Engine.set_calibration st.engine (Some st.obs.Obs.planstats);
  (match journal with
  | Some path ->
      ensure_parent path;
      Qlog.enable path;
      Fmt.pr "journaling to %s@." path
  | None -> ());
  Option.iter
    (fun port -> start_server st ~port ~workers:0 ~queue:serve_queue)
    monitor_port;
  Option.iter
    (fun port ->
      start_server st ~port ~workers:serve_workers ~queue:serve_queue)
    serve_port;
  (match queries with
  | [] -> repl st
  | qs ->
      List.iter
        (fun q ->
          Fmt.pr "@.ndq> %s@." q;
          if q <> "" && q.[0] = ':' then run_command st q else run_query st q)
        qs);
  (* --serve keeps the process alive past the REPL/script: in CI (or
     under nohup) stdin hits EOF immediately, but the server must keep
     answering until the process is killed or :serve off ran. *)
  (if serve_port <> None && Option.is_some st.server then begin
     Fmt.pr "serving; interrupt (Ctrl-C) or kill to exit@.%!";
     while Option.is_some st.server do
       Unix.sleepf 0.5
     done
   end);
  ignore (stop_server st)

open Cmdliner

let kind =
  Arg.(
    value
    & opt string "random"
    & info [ "d"; "directory" ] ~docv:"KIND"
        ~doc:"Directory to load: figure11, figure12, qos, tops or random.")

let size =
  Arg.(
    value & opt int 1_000
    & info [ "size" ] ~docv:"N" ~doc:"Size of generated directories.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let block =
  Arg.(
    value & opt int 64
    & info [ "block" ] ~docv:"B" ~doc:"Blocking factor (entries per page).")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:"Journal every query to $(docv) as JSON lines.")

let monitor_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "monitor" ] ~docv:"PORT"
        ~doc:
          "Serve live introspection only (/metrics, /healthz, /slowlog, \
           /trace, /planstats, /workload, /cache, ...) on 127.0.0.1:$(docv): \
           the server of $(b,--serve) with zero workers, so queries are \
           shed.  Not together with $(b,--serve), which serves the same \
           routes.")

let serve_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Start the server on 127.0.0.1:$(docv) (0 picks a free port): \
           HTTP /query plus the line protocol on a worker pool with a \
           bounded admission queue, and every introspection route.  The \
           process keeps serving after the REPL or $(b,--eval) queries \
           finish, until killed.")

let serve_workers =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker threads of the serving front-end (with $(b,--serve)); 0 \
           serves introspection only.")

let serve_queue =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission-queue bound of the serving front-end (with \
           $(b,--serve)); requests beyond it are shed with backpressure.")

let queries =
  Arg.(
    value & opt_all string []
    & info [ "e"; "eval" ] ~docv:"QUERY"
        ~doc:"Evaluate $(docv) and exit (repeatable). Without it, start a REPL.")

let cmd =
  let doc = "query shell for the network directory engine" in
  Cmd.v
    (Cmd.info "ndqsh" ~doc)
    Term.(
      const main $ kind $ size $ seed $ block $ journal $ monitor_port
      $ serve_port $ serve_workers $ serve_queue $ queries)

let () = exit (Cmd.eval cmd)
