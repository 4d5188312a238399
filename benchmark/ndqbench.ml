(* ndqbench: the repository benchmark.

     ndqbench [--workload W] [--seed K] [--seconds S] [--trace 0|1]
              [--traced] [--quick] [--out FILE] [--append] [--trace-out FILE]
     ndqbench compare A.json B.json [--bench BENCHMARK.json]
     ndqbench selftest [--bench BENCHMARK.json]

   Runs the workloads (all four unless --workload names one) over a
   directory drawn from --seed and queries drawn from a fixed template
   stream (see inputs.ml), prints every metric as `workload metric value
   unit`, and ends with one JSON line: {"correct", "attempted",
   "failed", "metrics"}.  --trace 0 (the
   default) measures the end-to-end metrics; --trace 1 makes the traced
   run and reports the per-layer ones, writing the span trees to
   --trace-out (default _build/ndqbench_trace.json) and the per-layer
   self-time table to stdout; --traced does both.  --quick runs every
   workload both ways at tiny sizes.  Each run's full record (every
   metric, ladder steps, sizes, seed, nproc, OCaml version, commit)
   goes to --out (default _build/ndqbench.json); --append adds to it.

   `compare` reads two such files (parent runs, change runs, paired in
   order per workload) and judges every end-to-end metric against its
   bound in BENCHMARK.json.  `selftest` runs --quick twice with one
   seed and checks the two runs emit every declared metric, agree on
   the deterministic counts, pass verification and leave no server
   child behind.

   Exit status: 0 when every sampled result matched [Semantics], 1 on a
   wrong result or an error, 2 on bad usage. *)

open Ndq

let workloads = [ "serve_mix"; "eval_tree"; "hot_cached"; "rw_mixed" ]

(* What BENCHMARK.json declares; the self-test holds the two equal. *)
let end_to_end =
  [
    ("throughput_qps", "ops/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("query.parse_us", "us");
    ("plan.rewrite_us", "us");
    ("plan.estimate_us", "us");
    ("plan.path_cache", "count/kq");
    ("engine.exec_p50_ms", "ms");
    ("engine.exec_p99_ms", "ms");
    ("engine.reads_per_q", "pages");
    ("engine.writes_per_q", "pages");
    ("engine.alloc_kb_per_q", "kB");
    ("op.atomic_us", "us");
    ("op.bool_us", "us");
    ("op.hier_us", "us");
    ("op.hier3_us", "us");
    ("op.gsel_us", "us");
    ("op.eref_us", "us");
    ("storage.max_resident_pages", "pages");
    ("index.build_ms", "ms");
    ("index.refreshes", "count");
    ("cache.hit_rate", "ratio");
    ("cache.stale", "count");
    ("cache.evictions", "count");
    ("cache.rejects", "count");
    ("srv.wire_stall_frac", "ratio");
    ("srv.busy", "count");
    ("srv.deadline", "count");
    ("srv.capacity_qps", "q/s");
    ("obs.trace_overhead_frac", "ratio");
    ("trace_overhead_frac", "ratio");
    ("gc.minor_per_q", "count");
    ("gc.major_per_kq", "count");
    ("gc.top_heap_mb", "MB");
  ]

(* Counts that repeat exactly for one seed: the self-test's check. *)
let deterministic =
  [ "engine.reads_per_q"; "engine.rows_per_q"; "cache.hit_rate"; "index.refreshes" ]

let declared traced = if traced then per_layer else end_to_end

let usage () =
  prerr_endline
    "usage: ndqbench [--workload W] [--seed K] [--seconds S] [--trace 0|1]\n\
    \                [--traced] [--quick] [--out FILE] [--append] [--trace-out FILE]\n\
    \       ndqbench compare A.json B.json [--bench BENCHMARK.json]\n\
    \       ndqbench selftest [--bench BENCHMARK.json]\n\
     workloads: serve_mix eval_tree hot_cached rw_mixed";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ndqbench: " ^ s); exit 1) fmt

let read_file f = In_channel.with_open_text f In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file f s =
  mkdir_p (Filename.dirname f);
  Out_channel.with_open_text f (fun oc -> Out_channel.output_string oc s)

let load_json f =
  try Json.of_string (read_file f) with
  | Sys_error e -> fail "%s" e
  | Json.Parse_error e -> fail "%s: %s" f e

(* --- Run stamps ---------------------------------------------------------------- *)

(* The checked-out commit, read from .git without running git; a
   checkout that is not a repository says "unknown". *)
let git_commit () =
  let read f = try Some (String.trim (read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with
      | Some h -> h
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some txt -> (
              match
                List.find_opt
                  (String.ends_with ~suffix:(" " ^ r))
                  (String.split_on_char '\n' txt)
              with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown")))
  | Some h -> h

(* --- One run in this process ------------------------------------------------------- *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable modes : bool list option;  (* traced? unset: as --quick says *)
  mutable quick : bool;
  mutable out : string;
  mutable append : bool;
  mutable trace_out : string;
}

let cfg_of o = if o.quick then Workloads.quick else Workloads.full ~seconds:o.seconds

let run_workload cfg ~seed ~traced = function
  | "serve_mix" -> Workloads.serve cfg ~seed ~traced
  | "eval_tree" -> Workloads.eval_tree cfg ~seed ~traced
  | "hot_cached" -> Workloads.cached cfg ~seed ~traced ~rw:false
  | "rw_mixed" -> Workloads.cached cfg ~seed ~traced ~rw:true
  | w -> fail "unknown workload %s" w

(* Time metrics that have no finite value (failures above the
   percentile) print as 1e9. *)
let finite v = if Float.is_nan v then 0. else if Float.is_finite v then v else 1e9

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Workloads.metric) ->
         ( m.Workloads.name,
           Json.Obj
             [ ("value", Json.Num (finite m.Workloads.value)); ("unit", Json.Str m.Workloads.unit_) ] ))
       ms)

let correct (r : Workloads.run) = r.Workloads.mismatches = 0 && r.Workloads.checked > 0

let record o cfg (r : Workloads.run) =
  Json.Obj
    [
      ("workload", Json.Str r.Workloads.workload);
      ("mode", Json.Str (if r.Workloads.traced then "traced" else "untraced"));
      ("seed", Json.Num (float_of_int o.seed));
      ("seconds", Json.Num cfg.Workloads.seconds);
      ("quick", Json.Bool o.quick);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.Workloads.attempted));
      ("failed", Json.Num (float_of_int (r.Workloads.failed + r.Workloads.mismatches)));
      ("checked", Json.Num (float_of_int r.Workloads.checked));
      ("mismatches", Json.Num (float_of_int r.Workloads.mismatches));
      ("metrics", metrics_json (List.rev r.Workloads.metrics));
      ("info", Json.Obj (List.rev r.Workloads.info));
    ]

(* Run exactly one workload in one mode in this process. *)
let run_single o w traced =
  let cfg = cfg_of o in
  Trace.set_enabled false;
  let r = run_workload cfg ~seed:o.seed ~traced w in
  List.iter
    (fun (m : Workloads.metric) ->
      Printf.printf "%s %s %.9g %s\n" w m.Workloads.name (finite m.Workloads.value)
        m.Workloads.unit_)
    (List.rev r.Workloads.metrics);
  Option.iter
    (fun col ->
      Format.printf "%a%!" Layers.pp_table (w, col);
      write_file o.trace_out (Chrome_trace.to_string (Layers.chrome_spans col)))
    r.Workloads.layers;
  Printf.printf "%s verified %d sampled results, %d wrong\n%!" w r.Workloads.checked
    r.Workloads.mismatches;
  record o cfg r

(* --- Result files -------------------------------------------------------------------- *)

let runs_of f = Json.arr (Json.member "runs" (load_json f))

let save o runs =
  let prior = if o.append && Sys.file_exists o.out then runs_of o.out else [] in
  write_file o.out (Json.to_string (Json.Obj [ ("runs", Json.Arr (prior @ runs)) ]) ^ "\n")

let metric_value run name =
  match Json.member name (Json.member "metrics" run) with
  | Json.Null -> None
  | m -> Some (Json.to_float (Json.member "value" m))

(* The closing line: the declared metrics of the run's mode; with
   several runs, every metric keyed workload:metric. *)
let final_line runs =
  let all_correct = List.for_all (fun r -> Json.member "correct" r = Json.Bool true) runs in
  let sum k = List.fold_left (fun n r -> n +. Json.to_float (Json.member k r)) 0. runs in
  let metrics =
    List.concat_map
      (fun run ->
        let traced = Json.str (Json.member "mode" run) = "traced" in
        let w = Json.str (Json.member "workload" run) in
        List.filter_map
          (fun (name, _) ->
            let key = if List.length runs = 1 then name else w ^ ":" ^ name in
            Option.map
              (fun _ -> (key, Json.member name (Json.member "metrics" run)))
              (metric_value run name))
          (declared traced))
      runs
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool all_correct);
         ("attempted", Json.Num (sum "attempted"));
         ("failed", Json.Num (sum "failed"));
         ("metrics", Json.Obj metrics);
       ])

(* --- Several runs: one child process each ----------------------------------------------- *)

(* Every (workload, mode) pair runs in a process of its own, so one
   run's heap never counts towards another's peak. *)
let run_children o pairs =
  let exe = Sys.executable_name in
  let traces = ref [] in
  let runs =
    List.concat_map
      (fun (w, traced) ->
        let tag = Printf.sprintf ".%s.%s" w (if traced then "traced" else "untraced") in
        let out = o.out ^ tag and trace_out = o.trace_out ^ tag in
        let args =
          [ exe; "--workload"; w; "--seed"; string_of_int o.seed; "--trace";
            (if traced then "1" else "0"); "--out"; out; "--trace-out"; trace_out ]
          @ if o.quick then [ "--quick" ] else [ "--seconds"; Printf.sprintf "%g" o.seconds ]
        in
        let pid =
          Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
        in
        (* a wrong result exits 1 but still leaves its record *)
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED (0 | 1) when Sys.file_exists out -> ()
        | _, Unix.WEXITED n -> fail "%s%s exited with %d" w tag n
        | _ -> fail "%s%s was killed" w tag);
        let rs = runs_of out in
        Sys.remove out;
        if traced && Sys.file_exists trace_out then traces := (w, trace_out) :: !traces;
        rs)
      pairs
  in
  (* one trace file, one process lane per workload *)
  if !traces <> [] then begin
    let events =
      List.concat
        (List.mapi
           (fun i (w, f) ->
             let pid = Json.Num (float_of_int (i + 1)) in
             let evs = Json.arr (Json.member "traceEvents" (load_json f)) in
             Sys.remove f;
             Json.Obj
               [
                 ("name", Json.Str "process_name"); ("ph", Json.Str "M"); ("pid", pid);
                 ("args", Json.Obj [ ("name", Json.Str w) ]);
               ]
             :: List.map
                  (function
                    | Json.Obj kv ->
                        Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, pid) else (k, v)) kv)
                    | e -> e)
                  evs)
           (List.rev !traces))
    in
    write_file o.trace_out
      (Json.to_string
         (Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]))
  end;
  runs

let main_run o =
  (match o.workload with
  | Some w when not (List.mem w workloads) -> usage ()
  | _ -> ());
  let ws = match o.workload with Some w -> [ w ] | None -> workloads in
  let modes =
    match o.modes with Some m -> m | None -> if o.quick then [ false; true ] else [ false ]
  in
  let pairs = List.concat_map (fun w -> List.map (fun m -> (w, m)) modes) ws in
  let runs =
    match pairs with
    | [ (w, traced) ] -> [ run_single o w traced ]
    | _ -> run_children o pairs
  in
  save o runs;
  print_endline (final_line runs);
  if not (List.for_all (fun r -> Json.member "correct" r = Json.Bool true) runs) then exit 1

(* --- compare ------------------------------------------------------------------------------ *)

let bench_metrics file =
  List.map
    (fun m ->
      ( Json.str (Json.member "name" m),
        Json.str (Json.member "better" m) = "higher",
        Json.to_float (Json.member "bound" m) ))
    (Json.arr (Json.member "end_to_end" (load_json file)))

let compare_files ~bench a b =
  let metrics = bench_metrics bench in
  let untraced f =
    List.filter (fun r -> Json.str (Json.member "mode" r) = "untraced") (runs_of f)
  in
  let ra = untraced a and rb = untraced b in
  let of_w rs w = List.filter (fun r -> Json.str (Json.member "workload" r) = w) rs in
  let regressions = ref 0 in
  Printf.printf "%-11s %-15s %-28s %-28s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun w ->
      let pa = of_w ra w and pb = of_w rb w in
      let pairs = min (List.length pa) (List.length pb) in
      if pairs > 0 then
        List.iter
          (fun (name, higher, bound) ->
            let vals rs =
              Array.of_list (List.filter_map (fun r -> metric_value r name) rs)
            in
            let va = vals pa and vb = vals pb in
            if Array.length va > 0 && Array.length vb > 0 then begin
              let a1, am, a3 = Bstats.quartiles va and b1, bm, b3 = Bstats.quartiles vb in
              let better x y = if higher then x > y else x < y in
              (* positive = the change is worse *)
              let worse = (if higher then am -. bm else bm -. am) /. Float.abs am in
              let n = min (Array.length va) (Array.length vb) in
              let wins = ref 0 in
              for i = 0 to n - 1 do
                if better vb.(i) va.(i) then incr wins
              done;
              let all_better =
                Array.for_all (fun y -> Array.for_all (fun x -> better y x) va) vb
              and all_worse =
                Array.for_all (fun y -> Array.for_all (fun x -> better x y) va) vb
              in
              let noisy = Bstats.spread va > bound || Bstats.spread vb > bound in
              let verdict =
                if
                  n >= 10
                  && 10 * !wins >= 9 * n
                  && better bm am
                  && Float.abs (bm -. am) > a3 -. a1
                then "win"
                else if worse > bound && ((not noisy) || all_worse) then begin
                  incr regressions;
                  Printf.sprintf "REGRESSION (bound %.0f%%)" (bound *. 100.)
                end
                else if noisy && not all_better then "unresolved (spread > bound)"
                else if n < 10 then "no claim (fewer than 10 pairs)"
                else "within bound"
              in
              let cell m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
              Printf.printf "%-11s %-15s %-28s %-28s %+7.1f%% %3d/%-2d  %s\n" w name
                (cell am a1 a3) (cell bm b1 b3)
                (100. *. (bm -. am) /. Float.abs am)
                !wins n verdict
            end)
          metrics)
    workloads;
  if !regressions > 0 then exit 1

(* --- selftest ----------------------------------------------------------------------------- *)

let selftest ~bench =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let doc = load_json bench in
  let listed key =
    List.map
      (fun m -> (Json.str (Json.member "name" m), Json.str (Json.member "unit" m)))
      (Json.arr (Json.member key doc))
  in
  if listed "end_to_end" <> end_to_end then bad "end_to_end in %s differs from the program" bench;
  if listed "per_layer" <> per_layer then bad "per_layer in %s differs from the program" bench;
  let listed_workloads =
    List.map (fun w -> Json.str (Json.member "name" w)) (Json.arr (Json.member "workloads" doc))
  in
  if listed_workloads <> workloads then bad "workloads in %s differ from the program" bench;
  let exe = Sys.executable_name in
  let dir = "_build/ndqbench-selftest" in
  mkdir_p dir;
  let once i =
    let out = Printf.sprintf "%s/run-%d.json" dir i in
    let log = Unix.openfile (out ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process exe
        [| exe; "--quick"; "--seed"; "11"; "--out"; out; "--trace-out";
           Printf.sprintf "%s/trace-%d.json" dir i |]
        Unix.stdin log Unix.stderr
    in
    let status = snd (Unix.waitpid [] pid) in
    Unix.close log;
    if status <> Unix.WEXITED 0 then bad "run %d did not exit 0 (see %s.log)" i out;
    if Sys.file_exists out then runs_of out else []
  in
  let r1 = once 1 and r2 = once 2 in
  let find rs w mode =
    List.find_opt
      (fun r ->
        Json.str (Json.member "workload" r) = w && Json.str (Json.member "mode" r) = mode)
      rs
  in
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let mode = if traced then "traced" else "untraced" in
          match (find r1 w mode, find r2 w mode) with
          | Some a, Some b ->
              List.iter
                (fun r ->
                  if Json.member "correct" r <> Json.Bool true then
                    bad "%s %s: verification did not pass" w mode;
                  List.iter
                    (fun (name, unit_) ->
                      match Json.member name (Json.member "metrics" r) with
                      | Json.Null -> bad "%s %s: no %s" w mode name
                      | m ->
                          if Json.str (Json.member "unit" m) <> unit_ then
                            bad "%s %s: %s in the wrong unit" w mode name)
                    (declared traced);
                  match Json.member "server_pid" (Json.member "info" r) with
                  | Json.Num p -> (
                      match Unix.kill (int_of_float p) 0 with
                      | () -> bad "%s %s: server child %.0f still running" w mode p
                      | exception Unix.Unix_error _ -> ())
                  | _ -> ())
                [ a; b ];
              if traced then
                List.iter
                  (fun name ->
                    if metric_value a name <> metric_value b name then
                      bad "%s: %s differs between two runs of one seed" w name)
                  deterministic
          | _ -> bad "%s %s: missing run" w mode)
        [ false; true ])
    workloads;
  match !problems with
  | [] ->
      Printf.printf "ndqbench selftest: ok (%d workloads, both modes, twice)\n"
        (List.length workloads)
  | ps ->
      List.iter (fun p -> prerr_endline ("ndqbench selftest: " ^ p)) (List.rev ps);
      exit 1

(* --- Entry ---------------------------------------------------------------------------------- *)

let () =
  (* a vanished peer must surface as an error, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* interrupted runs still reap their server child (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let float_arg v = match float_of_string_opt v with Some x when x > 0. -> x | _ -> usage () in
  let bench_of = function [] -> "BENCHMARK.json" | [ "--bench"; f ] -> f | _ -> usage () in
  match args with
  | "--serve-child" :: rest ->
      let seed = ref 0 and size = ref 0 and setups = ref 1 in
      let rec parse = function
        | [] -> ()
        | "--seed" :: v :: r -> seed := int_arg v; parse r
        | "--size" :: v :: r -> size := int_arg v; parse r
        | "--setups" :: v :: r -> setups := int_arg v; parse r
        | _ -> usage ()
      in
      parse rest;
      Served.child_main ~seed:!seed ~size:!size ~setups:!setups
  | "compare" :: a :: b :: rest -> compare_files ~bench:(bench_of rest) a b
  | "selftest" :: rest -> selftest ~bench:(bench_of rest)
  | _ ->
      let o =
        {
          workload = None;
          seed = 1;
          seconds = 20.;
          modes = None;
          quick = false;
          out = "_build/ndqbench.json";
          append = false;
          trace_out = "_build/ndqbench_trace.json";
        }
      in
      let rec parse = function
        | [] -> ()
        | "--workload" :: v :: r -> o.workload <- Some v; parse r
        | "--seed" :: v :: r -> o.seed <- int_arg v; parse r
        | "--seconds" :: v :: r -> o.seconds <- float_arg v; parse r
        | "--trace" :: "0" :: r -> o.modes <- Some [ false ]; parse r
        | "--trace" :: "1" :: r -> o.modes <- Some [ true ]; parse r
        | "--traced" :: r -> o.modes <- Some [ false; true ]; parse r
        | "--quick" :: r -> o.quick <- true; parse r
        | "--out" :: v :: r -> o.out <- v; parse r
        | "--append" :: r -> o.append <- true; parse r
        | "--trace-out" :: v :: r -> o.trace_out <- v; parse r
        | _ -> usage ()
      in
      parse args;
      main_run o
