(* The open-loop load generator for the serving front-end (E28).

     dune exec bench/loadgen.exe -- [options]

   Options:
     --rate R        arrivals per second                (default 200)
     --duration S    seconds of load                    (default 5)
     --clients N     persistent line-protocol conns     (default 8)
     --port P        attach to a running server (else one is spawned
                     in-process over a fresh synthetic instance)
     --workers N     spawned server's worker pool       (default 4)
     --queue N       spawned server's admission queue   (default 64)
     --deadline MS   spawned server's request budget    (default 5000)
     --seed K        instance + query-mix seed          (default 7)
     --size N        synthetic instance size            (default 2000)
     --label L       run label in the output            (default "load")
     --out FILE      output document                    (default BENCH_load.json)
     --append        add this run to FILE's runs instead of rewriting
     --tsdb FILE     record a 0.25s-resolution flight-recorder series
                     during the run and save it to FILE; the run output
                     gains a "tsdb" sub-object (p99 series, resident
                     page band, tail-sampling counts, exemplar join)
     --tail-threshold MS   tail-retention slow threshold (default 50)

   Open loop: arrival k is *scheduled* at t0 + k/R regardless of how
   the server is doing, and its latency is measured from that
   scheduled instant to completion — a stalled server accrues the wait
   (no coordinated omission).  Arrivals are dealt round-robin to the
   client connections; each connection pipelines strictly, so a slow
   response delays that connection's later arrivals and the measured
   latency absorbs the delay, as it should.

   The run reports sustained QPS (completions over the measured span),
   exact p50/p95/p99/max latencies over completed requests, counts per
   terminal status, and the peak admission-queue depth sampled from
   the server's /healthz while the load ran.  Against a spawned server
   it also prints where the time went: the server's srv_stage_ns
   stages (queue, parse, execute, write, other) as p50/p99 and as a
   share of srv_request_ns, then the wire+client residual — each
   request's latency from its due time minus the server wall time its
   trailer reports. *)

open Ndq

let rate = ref 200.
let duration = ref 5.
let clients = ref 8
let port = ref 0
let workers = ref 4
let queue = ref 64
let deadline_ms = ref 5_000
let seed = ref 7
let size = ref 2_000
let label = ref "load"
let out = ref "BENCH_load.json"
let append = ref false
let tsdb_out = ref ""

let usage () =
  prerr_endline
    "usage: loadgen [--rate R] [--duration S] [--clients N] [--port P]\n\
    \               [--workers N] [--queue N] [--deadline MS] [--seed K]\n\
    \               [--size N] [--label L] [--out FILE] [--append]\n\
    \               [--tsdb FILE] [--tail-threshold MS]";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--rate" :: v :: rest ->
      rate := float_of_string v;
      parse_args rest
  | "--duration" :: v :: rest ->
      duration := float_of_string v;
      parse_args rest
  | "--clients" :: v :: rest ->
      clients := int_of_string v;
      parse_args rest
  | "--port" :: v :: rest ->
      port := int_of_string v;
      parse_args rest
  | "--workers" :: v :: rest ->
      workers := int_of_string v;
      parse_args rest
  | "--queue" :: v :: rest ->
      queue := int_of_string v;
      parse_args rest
  | "--deadline" :: v :: rest ->
      deadline_ms := int_of_string v;
      parse_args rest
  | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse_args rest
  | "--size" :: v :: rest ->
      size := int_of_string v;
      parse_args rest
  | "--label" :: v :: rest ->
      label := v;
      parse_args rest
  | "--out" :: v :: rest ->
      out := v;
      parse_args rest
  | "--append" :: rest ->
      append := true;
      parse_args rest
  | "--tsdb" :: v :: rest ->
      tsdb_out := v;
      parse_args rest
  | "--tail-threshold" :: v :: rest ->
      Tail.set_slow_threshold_ns (int_of_float (float_of_string v *. 1e6));
      parse_args rest
  | _ -> usage ()

(* Per-request slots, filled by the client threads. *)
type slot = {
  mutable latency_ns : int;  (* scheduled arrival -> completion; -1 unset *)
  mutable status : char;  (* 'o'k / 'b'usy / 'd'eadline / 'e'rror / 'x' no conn *)
  mutable rows : int;
  mutable wall_us : int;  (* the trailer's server wall time *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  if !rate <= 0. || !duration <= 0. || !clients < 1 then usage ();
  let total = int_of_float (!rate *. !duration) in
  if total < 1 then usage ();

  (* The workload: same instance parameters the spawned server (or a
     matching external one) uses, so query bases exist. *)
  let params = { Dif_gen.default_params with seed = !seed; size = !size } in
  let instance = Dif_gen.generate ~params () in
  let queries = Query_mix.generate ~seed:(!seed + 1) ~count:total instance in

  (* The flight recorder rides along at 4Hz when --tsdb asks for it.
     With a spawned (in-process) server the recorder and the serving
     metrics share the default registry, so the saved series carries
     srv_request_ns, queue depth and the resident-page gauge, and the
     server's /range reads the same recorder; against an external
     --port server it records only this process's side. *)
  let recorder =
    if !tsdb_out = "" then None
    else Some (Tsdb.create ~resolution_s:0.25 ())
  in
  let spawned =
    if !port <> 0 then None
    else begin
      let srv =
        Srv.start
          ?obs:(Option.map Obs.create recorder)
          ~workers:!workers ~queue:!queue ~deadline_ms:!deadline_ms
          ~make_engine:(fun () -> Engine.create ~block:64 instance)
          ()
      in
      port := Srv.port srv;
      Some srv
    end
  in
  Option.iter Tsdb.start recorder;

  let slots =
    Array.init total (fun _ ->
        { latency_ns = -1; status = 'x'; rows = 0; wall_us = 0 })
  in
  let period_ns = 1e9 /. !rate in
  let t0 = Mclock.now_ns () + 50_000_000 in

  (* Peak queue depth, sampled over /healthz while the load runs. *)
  let sampling = ref true in
  let max_depth = ref 0 in
  let sampler =
    Thread.create
      (fun () ->
        while !sampling do
          (try
             let status, _, body = Monitor.request ~port:!port "/healthz" in
             if status = 200 then
               match Json.member "queue_depth" (Json.of_string body) with
               | Json.Num d -> max_depth := max !max_depth (int_of_float d)
               | _ -> ()
           with _ -> ());
          Thread.delay 0.1
        done)
      ()
  in

  let client_thread c =
    match Srv_client.connect ~port:!port () with
    | exception _ -> ()  (* slots keep status 'x' *)
    | conn ->
        let k = ref c in
        (try
           while !k < total do
             let scheduled = t0 + int_of_float (float_of_int !k *. period_ns) in
             let now = Mclock.now_ns () in
             if scheduled > now then
               Thread.delay (float_of_int (scheduled - now) /. 1e9);
             let s = slots.(!k) in
             (match Srv_client.query conn queries.(!k) with
             | reply ->
                 s.latency_ns <- Mclock.now_ns () - scheduled;
                 s.rows <- List.length reply.Srv_client.rows;
                 s.wall_us <- reply.Srv_client.wall_us;
                 s.status <-
                   (match reply.Srv_client.status with
                   | Srv_client.Ok -> 'o'
                   | Srv_client.Busy _ -> 'b'
                   | Srv_client.Deadline -> 'd'
                   | Srv_client.Error _ -> 'e')
             | exception Srv_client.Disconnected ->
                 s.latency_ns <- Mclock.now_ns () - scheduled;
                 s.status <- 'x';
                 raise Srv_client.Disconnected);
             k := !k + !clients
           done
         with Srv_client.Disconnected -> ());
        Srv_client.close conn
  in
  let threads =
    List.init !clients (fun c -> Thread.create client_thread c)
  in
  List.iter Thread.join threads;
  let t_end = Mclock.now_ns () in
  sampling := false;
  Thread.join sampler;
  (* One last sample catches the final partial window, then the
     recorder thread stops before the server (whose gauges it reads). *)
  Option.iter
    (fun ts ->
      Tsdb.sample ts;
      Tsdb.stop ts)
    recorder;
  Option.iter Srv.stop spawned;

  let count ch =
    Array.fold_left (fun n s -> if s.status = ch then n + 1 else n) 0 slots
  in
  let ok = count 'o'
  and busy = count 'b'
  and deadline = count 'd'
  and error = count 'e'
  and lost = count 'x' in
  let completed =
    Array.of_list
      (List.filter_map
         (fun s -> if s.latency_ns >= 0 then Some s.latency_ns else None)
         (Array.to_list slots))
  in
  Array.sort compare completed;
  let span_ns = max 1 (t_end - t0) in
  let qps =
    float_of_int (Array.length completed) /. (float_of_int span_ns /. 1e9)
  in
  let us n = n / 1000 in
  let p50 = percentile completed 0.50
  and p95 = percentile completed 0.95
  and p99 = percentile completed 0.99 in
  let maxl = if Array.length completed = 0 then 0 else completed.(Array.length completed - 1) in

  (* The flight-recorder digest for the run document: the served-p99
     series (the E29 gate asserts it is non-empty and in band), the
     resident-page band (Thm 8.3: flat under steady load), the
     tail-sampling ledger, and whether at least one exemplar on the
     srv_request_ns histogram joins to a tail-retained trace. *)
  let tsdb_fields =
    match recorder with
    | None -> []
    | Some ts ->
        Tsdb.save ts !tsdb_out;
        let horizon = !duration +. 30. in
        let p99 =
          Tsdb.range ts ~window_s:horizon ~agg:(Tsdb.Quantile 0.99)
            "srv_request_ns"
        in
        let p99_points = List.length (List.filter (fun (_, v) -> v <> None) p99) in
        let resident =
          List.filter_map snd
            (Tsdb.range ts ~window_s:horizon ~agg:Tsdb.Max
               "srv_engine_max_resident_pages")
        in
        let reasons =
          List.fold_left
            (fun acc r ->
              let k = Tail.reason_to_string r.Tail.r_reason in
              (k, 1 + Option.value ~default:0 (List.assoc_opt k acc))
              :: List.remove_assoc k acc)
            [] (Tail.retained ())
        in
        let exemplar_joined =
          List.exists
            (fun f ->
              f.Metrics.fv_name = "srv_request_ns"
              && List.exists
                   (fun (_, v) ->
                     match v with
                     | Metrics.V_histogram h ->
                         List.exists
                           (fun (_, ex) ->
                             Tail.find ex.Metrics.ex_trace_id <> None)
                           h.Metrics.hv_exemplars
                     | _ -> false)
                   f.Metrics.fv_series)
            (Metrics.export Metrics.default)
        in
        let num n = Json.Num (float_of_int n) in
        [
          ( "tsdb",
            Json.Obj
              [
                ("file", Json.Str !tsdb_out);
                ("windows", num (Tsdb.window_count ts));
                ("p99_points", num p99_points);
                ( "p99_series",
                  Json.Arr
                    (List.map
                       (fun (t, v) ->
                         Json.Arr
                           [
                             Json.Num t;
                             (match v with
                             | Some v -> Json.Num v
                             | None -> Json.Null);
                           ])
                       p99) );
                ( "resident_min",
                  if resident = [] then Json.Null
                  else Json.Num (List.fold_left Float.min infinity resident) );
                ( "resident_max",
                  if resident = [] then Json.Null
                  else
                    Json.Num (List.fold_left Float.max neg_infinity resident) );
                ("tail_retained", num (Tail.retained_count ()));
                ("tail_spans", num (Tail.retained_spans ()));
                ("tail_budget", num (Tail.budget_spans ()));
                ( "tail_reasons",
                  Json.Obj
                    (List.map
                       (fun (k, n) -> (k, num n))
                       (List.sort compare reasons)) );
                ("exemplar_joined", Json.Bool exemplar_joined);
              ] );
        ]
  in

  (* The per-stage table (spawned server only: its srv_stage_ns
     series live in this process's default registry).  Stage
     quantiles are read from the power-of-two histogram buckets; the
     wire+client residual is exact, per request, over the replies
     whose trailer carries a wall time (ok and deadline). *)
  let stage_rows =
    if spawned = None then []
    else
      let request =
        Metrics.histogram ~labels:[ ("route", "line") ] "srv_request_ns"
      in
      let total = Float.max 1. (Metrics.histogram_sum request) in
      let row name h =
        ( name,
          Metrics.quantile h 0.50 /. 1e3,
          Metrics.quantile h 0.99 /. 1e3,
          Some (Metrics.histogram_sum h /. total) )
      in
      let residual =
        Array.of_list
          (List.filter_map
             (fun s ->
               if s.status = 'o' || s.status = 'd' then
                 Some (s.latency_ns - (s.wall_us * 1000))
               else None)
             (Array.to_list slots))
      in
      Array.sort compare residual;
      List.map
        (fun stage ->
          row stage
            (Metrics.histogram ~labels:[ ("stage", stage) ] "srv_stage_ns"))
        (Array.to_list Srv.stage_names)
      @ [
          row "server" request;
          ( "wire+client",
            float_of_int (percentile residual 0.50) /. 1e3,
            float_of_int (percentile residual 0.99) /. 1e3,
            None );
        ]
  in
  let stages_field =
    if stage_rows = [] then []
    else
      [
        ( "stages",
          Json.Obj
            (List.map
               (fun (name, p50, p99, share) ->
                 ( name,
                   Json.Obj
                     ([ ("p50_us", Json.Num p50); ("p99_us", Json.Num p99) ]
                     @
                     match share with
                     | Some f -> [ ("share", Json.Num f) ]
                     | None -> []) ))
               stage_rows) );
      ]
  in

  let run =
    Json.Obj
      ([
        ("label", Json.Str !label);
        ( "config",
          Json.Obj
            [
              ("rate", Json.Num !rate);
              ("duration_s", Json.Num !duration);
              ("clients", Json.Num (float_of_int !clients));
              ("workers", Json.Num (float_of_int !workers));
              ("queue", Json.Num (float_of_int !queue));
              ("deadline_ms", Json.Num (float_of_int !deadline_ms));
              ("seed", Json.Num (float_of_int !seed));
              ("size", Json.Num (float_of_int !size));
              ("spawned", Json.Bool (spawned <> None));
            ] );
        ( "results",
          Json.Obj
            [
              ("sent", Json.Num (float_of_int total));
              ("ok", Json.Num (float_of_int ok));
              ("busy", Json.Num (float_of_int busy));
              ("deadline", Json.Num (float_of_int deadline));
              ("error", Json.Num (float_of_int error));
              ("lost", Json.Num (float_of_int lost));
              ("qps", Json.Num qps);
              ("p50_us", Json.Num (float_of_int (us p50)));
              ("p95_us", Json.Num (float_of_int (us p95)));
              ("p99_us", Json.Num (float_of_int (us p99)));
              ("max_us", Json.Num (float_of_int (us maxl)));
              ("max_queue_depth", Json.Num (float_of_int !max_depth));
            ] );
      ]
      @ stages_field @ tsdb_fields)
  in
  let runs =
    if !append && Sys.file_exists !out then
      match
        Json.member "runs"
          (Json.of_string
             (In_channel.with_open_text !out In_channel.input_all))
      with
      | Json.Arr l -> l @ [ run ]
      | _ -> [ run ]
    else [ run ]
  in
  Out_channel.with_open_text !out (fun oc ->
      Out_channel.output_string oc
        (Json.to_string (Json.Obj [ ("runs", Json.Arr runs) ]) ^ "\n"));
  Printf.printf
    "%s: sent=%d ok=%d busy=%d deadline=%d error=%d lost=%d qps=%.1f \
     p50=%dus p95=%dus p99=%dus max_queue_depth=%d -> %s\n"
    !label total ok busy deadline error lost qps (us p50) (us p95) (us p99)
    !max_depth !out;
  if stage_rows <> [] then begin
    Printf.printf "%-12s %10s %10s %7s\n" "stage" "p50_us" "p99_us" "share";
    List.iter
      (fun (name, p50, p99, share) ->
        Printf.printf "%-12s %10.1f %10.1f %7s\n" name p50 p99
          (match share with
          | Some f -> Printf.sprintf "%.3f" f
          | None -> "-"))
      stage_rows
  end;
  (match recorder with
  | Some ts ->
      Printf.printf
        "tsdb: %d windows -> %s; tail retained %d traces (%d/%d spans)\n"
        (Tsdb.window_count ts) !tsdb_out (Tail.retained_count ())
        (Tail.retained_spans ()) (Tail.budget_spans ())
  | None -> ());
  (* Non-zero exit on transport-level failures: shed and deadline are
     legitimate protocol outcomes, lost connections and query errors
     are not. *)
  if error > 0 || lost > 0 then exit 1
