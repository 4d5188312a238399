(* The serving front-end: differential concurrency against the
   single-threaded semantics oracle, both protocol faces, admission
   shedding and deadline expiry. *)

let mk_instance ?(size = 300) ?(seed = 11) () =
  Dif_gen.generate
    ~params:{ Dif_gen.default_params with seed; size }
    ()

let start_srv ?registry ?(workers = 4) ?(queue = 64) ?deadline_ms instance =
  Srv.start ?registry ~workers ~queue ?deadline_ms
    ~make_engine:(fun () -> Engine.create ~block:32 instance)
    ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_srv ?registry ?workers ?queue ?deadline_ms instance f =
  let srv = start_srv ?registry ?workers ?queue ?deadline_ms instance in
  Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> f srv)

(* N client threads, each its own connection, racing distinct query
   streams through a shared worker pool: every reply must equal the
   single-threaded oracle, rows in canonical order. *)
let test_differential_concurrency () =
  let instance = mk_instance () in
  let n_clients = 8 and per_client = 25 in
  let asts =
    Query_mix.generate_ast ~seed:42 ~count:(n_clients * per_client) instance
  in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let failures = ref [] in
      let fmu = Mutex.create () in
      let client c =
        let conn = Srv_client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Srv_client.close conn)
          (fun () ->
            for i = 0 to per_client - 1 do
              let k = (c * per_client) + i in
              let ast = asts.(k) in
              let text = Qprinter.to_string ast in
              let reply = Srv_client.query conn text in
              let expected = Testkit.dns_of (Testkit.oracle instance ast) in
              let ok =
                reply.Srv_client.status = Srv_client.Ok
                && reply.Srv_client.rows = expected
              in
              if not ok then begin
                Mutex.lock fmu;
                failures := (k, text) :: !failures;
                Mutex.unlock fmu
              end
            done)
      in
      let threads = List.init n_clients (fun c -> Thread.create client c) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | (k, text) :: _ ->
          Alcotest.failf "%d replies diverged from the oracle; first: #%d %s"
            (List.length !failures) k text);
      (* a session thread notices its client's close only when its
         receive timeout (0.5 s) next expires, so give it a bounded while *)
      let deadline = Unix.gettimeofday () +. 3.0 in
      while Srv.session_count srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "no sessions linger" 0 (Srv.session_count srv))

(* The HTTP face: index, liveness, query streaming (GET and POST),
   parse errors, unknown routes, missing parameters. *)
let test_http_routes () =
  let instance = mk_instance () in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let get path = Monitor.request ~port path in
      let status, _, body = get "/" in
      Alcotest.(check int) "index status" 200 status;
      Alcotest.(check bool) "index mentions /query" true
        (contains ~affix:"/query" body);
      let status, _, body = get "/healthz" in
      Alcotest.(check int) "healthz status" 200 status;
      (match Json.member "queue_depth" (Json.of_string body) with
      | Json.Num _ -> ()
      | _ -> Alcotest.fail "healthz carries queue_depth");
      let q = "( ? sub ? id=* )" in
      let enc =
        String.concat ""
          (List.map
             (fun c ->
               match c with
               | ' ' -> "%20"
               | '?' -> "%3F"
               | '=' -> "%3D"
               | '*' -> "%2A"
               | c -> String.make 1 c)
             (List.of_seq (String.to_seq q)))
      in
      let status, headers, body = get ("/query?q=" ^ enc) in
      Alcotest.(check int) "GET /query status" 200 status;
      Alcotest.(check bool) "streamed (no Content-Length)" false
        (List.mem_assoc "content-length" headers);
      Alcotest.(check bool) "GET trailer ok" true
        (contains ~affix:"# status=ok" body);
      let n_rows =
        List.length
          (List.filter
             (fun l -> l <> "" && l.[0] <> '#')
             (String.split_on_char '\n' body))
      in
      let expected =
        List.length
          (Testkit.oracle instance
             (Ast.Atomic
                {
                  Ast.base = Dn.root;
                  scope = Ast.Sub;
                  filter = Afilter.Present "id";
                }))
      in
      Alcotest.(check int) "GET /query row count" expected n_rows;
      let status, _, body = Monitor.request ~meth:"POST" ~body:q ~port "/query" in
      Alcotest.(check int) "POST /query status" 200 status;
      Alcotest.(check bool) "POST trailer ok" true
        (contains ~affix:"# status=ok" body);
      let status, _, body = get "/query?q=%28%20nonsense" in
      Alcotest.(check int) "parse error is a 400" 400 status;
      Alcotest.(check bool) "parse error trailer" true
        (contains ~affix:"# status=error" body);
      let status, _, _ = get "/nope" in
      Alcotest.(check int) "unknown route" 404 status;
      let status, _, _ = get "/query" in
      Alcotest.(check int) "missing q" 400 status)

(* A served query, journaled, lands on /slowlog joined to the trace
   Tail retains for it, and that trace id resolves at /trace/<id> to
   the server's root span. *)
let test_served_slowlog () =
  let instance = mk_instance () in
  let path = Filename.temp_file "ndq_srv_journal" ".jsonl" in
  let thr = Tail.slow_threshold_ns () in
  Qlog.enable ~append:false path;
  Tail.set_slow_threshold_ns 0;
  Tail.clear ();
  Fun.protect
    ~finally:(fun () ->
      Qlog.disable ();
      Sys.remove path;
      Tail.set_slow_threshold_ns thr;
      Tail.clear ())
    (fun () ->
      with_srv ~workers:1 instance (fun srv ->
          let port = Srv.port srv in
          let q = "( ? sub ? id=* )" in
          let status, _, _ = Monitor.request ~meth:"POST" ~body:q ~port "/query" in
          Alcotest.(check int) "query served" 200 status;
          let status, _, body = Monitor.request ~port "/slowlog" in
          Alcotest.(check int) "slowlog status" 200 status;
          match
            List.find_opt
              (fun l -> Json.member "query" l = Json.Str q)
              (Json.lines body)
          with
          | None -> Alcotest.failf "served query missing from /slowlog: %s" body
          | Some line ->
              Alcotest.(check bool) "trace retained" true
                (Json.member "trace_retained" line = Json.Bool true);
              let tid = Json.str (Json.member "trace_id" line) in
              let status, _, body = Monitor.request ~port ("/trace/" ^ tid) in
              Alcotest.(check int) "trace resolves" 200 status;
              let root =
                List.find
                  (fun e -> Json.member "ph" e = Json.Str "X")
                  (Json.arr (Json.member "traceEvents" (Json.of_string body)))
              in
              Alcotest.(check string) "root span" "serve"
                (Json.str (Json.member "name" root))))

(* The ledger's tier-1 twin: over N served requests, parse errors
   among them, the journal holds one event per request counted in
   srv_requests_total, every answered query's event carries the
   planner's estimate, its access paths and (at a zero threshold) a
   capture with the plan, and a Planstats store sees every event. *)
let test_served_ledger () =
  let instance = mk_instance () in
  let registry = Metrics.create () in
  let path = Filename.temp_file "ndq_srv_ledger" ".jsonl" in
  let thr = Tail.slow_threshold_ns () in
  let store = Planstats.create ~metrics:false () in
  let queries =
    [ "( ? sub ? id=* )"; "( ? sub ? id<40 )"; "(( ? sub ? id=*";
      "( ? sub ? id>=100 )"; "not a query"; "(& ( ? sub ? id=* ) ( ? sub ? id<40 ))" ]
  in
  Qlog.enable ~append:false path;
  Tail.set_slow_threshold_ns 0;
  Planstats.attach store;
  Fun.protect
    ~finally:(fun () ->
      Planstats.detach store;
      Qlog.disable ();
      Sys.remove path;
      Tail.set_slow_threshold_ns thr;
      Tail.clear ())
    (fun () ->
      let events0 = Planstats.events store in
      let codes =
        with_srv ~registry ~workers:1 instance (fun srv ->
            List.map
              (fun q ->
                let status, _, _ =
                  Monitor.request ~meth:"POST" ~body:q ~port:(Srv.port srv) "/query"
                in
                status)
              queries)
      in
      let n = List.length queries in
      Alcotest.(check (list int)) "statuses" [ 200; 200; 400; 200; 400; 200 ] codes;
      let requests =
        List.fold_left
          (fun acc status ->
            acc
            + Metrics.counter_value
                (Metrics.counter ~registry
                   ~labels:[ ("route", "/query"); ("status", string_of_int status) ]
                   "srv_requests_total"))
          0 [ 200; 400; 503; 504 ]
      in
      let events = Qlog.load path in
      Alcotest.(check int) "srv_requests_total" n requests;
      Alcotest.(check int) "one journal event per request" requests
        (List.length events);
      Alcotest.(check int) "the store saw every event" n
        (Planstats.events store - events0);
      List.iter
        (fun (ev : Qlog.event) ->
          match ev.Qlog.outcome with
          | Qlog.Failed _ ->
              Alcotest.(check string) "parse error fingerprint" "(parse)"
                ev.Qlog.fingerprint
          | Qlog.Ok ->
              let what = ev.Qlog.query in
              Alcotest.(check bool) (what ^ ": est_card") true (ev.Qlog.est_card <> None);
              Alcotest.(check bool) (what ^ ": path") true (ev.Qlog.path <> None);
              Alcotest.(check bool) (what ^ ": capture with a plan") true
                (match ev.Qlog.capture with
                | Some c -> c.Qlog.plan_text <> ""
                | None -> false))
        events)

(* A 1-worker / 1-slot server under a burst of concurrent heavy
   queries must shed — Busy with a retry hint — and the shed counter
   must move.  Retries until the race lands (each round sends 12
   concurrent requests at a queue of 1). *)
let test_shed_backpressure () =
  let instance = mk_instance ~size:800 () in
  let registry = Metrics.create () in
  with_srv ~registry ~workers:1 ~queue:1 instance (fun srv ->
      let port = Srv.port srv in
      let heavy = "( d ( ? sub ? id=* ) ( ? sub ? id=* ) )" in
      let busy = ref 0 and retry_ms = ref 0 in
      let bmu = Mutex.create () in
      let rounds = ref 0 in
      while !busy = 0 && !rounds < 5 do
        incr rounds;
        let one () =
          match Srv_client.connect ~port () with
          | exception _ -> ()
          | conn ->
              (match Srv_client.query conn heavy with
              | { Srv_client.status = Srv_client.Busy ms; _ } ->
                  Mutex.lock bmu;
                  incr busy;
                  retry_ms := ms;
                  Mutex.unlock bmu
              | _ | (exception Srv_client.Disconnected) -> ());
              Srv_client.close conn
        in
        let threads = List.init 12 (fun _ -> Thread.create one ()) in
        List.iter Thread.join threads
      done;
      Alcotest.(check bool) "some requests shed" true (!busy > 0);
      Alcotest.(check bool) "retry hint positive" true (!retry_ms > 0);
      Alcotest.(check bool) "queue stayed bounded" true
        (Srv.queue_depth srv <= Srv.queue_capacity srv))

(* A 1 ms session deadline against a heavy diff on a big instance:
   the reply must come back status=deadline (with however many rows
   made it out before the budget died). *)
let test_deadline_expiry () =
  let instance = mk_instance ~size:3000 ~seed:5 () in
  with_srv instance (fun srv ->
      let conn = Srv_client.connect ~port:(Srv.port srv) () in
      Fun.protect
        ~finally:(fun () -> Srv_client.close conn)
        (fun () ->
          Alcotest.(check bool) "DEADLINE acknowledged" true
            (Srv_client.set_deadline_ms conn 1);
          let heavy = "( d ( ? sub ? id=* ) ( ? sub ? id=* ) )" in
          let expired = ref false in
          for _ = 1 to 3 do
            match Srv_client.query conn heavy with
            | { Srv_client.status = Srv_client.Deadline; _ } -> expired := true
            | _ -> ()
          done;
          Alcotest.(check bool) "budget expired at least once" true !expired))

(* PING / DEADLINE handshake and a clean QUIT. *)
let test_line_protocol_controls () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let conn = Srv_client.connect ~port:(Srv.port srv) () in
      Alcotest.(check bool) "PING answers PONG" true (Srv_client.ping conn);
      Alcotest.(check bool) "DEADLINE 5000 ok" true
        (Srv_client.set_deadline_ms conn 5000);
      let reply = Srv_client.query conn "( ? sub ? id=* )" in
      Alcotest.(check bool) "query after controls" true
        (reply.Srv_client.status = Srv_client.Ok);
      Srv_client.close conn)

(* --- The bounded HTTP head ------------------------------------------------ *)

(* Connect, send [payload], then read until the server closes; returns
   what came back and how long the close took. *)
let raw_exchange ~port payload =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.;
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let t0 = Unix.gettimeofday () in
      let bytes = Bytes.of_string payload in
      ignore (Unix.write s bytes 0 (Bytes.length bytes));
      let b = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read s chunk 0 (Bytes.length chunk) with
        | 0 -> true
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            false (* still open after the receive timeout *)
        | exception Unix.Unix_error _ -> true
      in
      let closed = drain () in
      (Buffer.contents b, closed, Unix.gettimeofday () -. t0))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let wait_sessions_gone srv =
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Srv.session_count srv > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check int) "no sessions linger" 0 (Srv.session_count srv)

(* More than 16 KB of request head, in headers or in the request line
   alone: a 400, then the server hangs up. *)
let test_head_flood () =
  let instance = mk_instance ~size:50 () in
  with_srv ~workers:1 instance (fun srv ->
      let header = "X-Flood: " ^ String.make 1000 'a' ^ "\r\n" in
      List.iter
        (fun (what, payload) ->
          let reply, closed, _ = raw_exchange ~port:(Srv.port srv) payload in
          Alcotest.(check bool) (what ^ ": answered 400") true
            (starts_with ~prefix:"HTTP/1.1 400" reply);
          Alcotest.(check bool) (what ^ ": socket closed") true closed)
        [
          ( "headers",
            "GET /healthz HTTP/1.1\r\n"
            ^ String.concat "" (List.init 20 (fun _ -> header)) );
          ( "request line",
            "GET /healthz?x=" ^ String.make 17_000 'a' ^ " HTTP/1.1\r\n\r\n" );
        ];
      wait_sessions_gone srv)

(* A request line and then silence: the head deadline (2 s) closes the
   connection well before the line protocol's idle wait would. *)
let test_head_stall () =
  let instance = mk_instance ~size:50 () in
  with_srv ~workers:1 instance (fun srv ->
      let reply, closed, elapsed =
        raw_exchange ~port:(Srv.port srv) "GET /healthz HTTP/1.1\r\n"
      in
      Alcotest.(check bool) "socket closed" true closed;
      Alcotest.(check bool)
        (Printf.sprintf "closed within 3 s (took %.2f s)" elapsed)
        true (elapsed < 3.0);
      Alcotest.(check bool) "answered 400" true
        (starts_with ~prefix:"HTTP/1.1 400" reply);
      wait_sessions_gone srv)

(* --- Framing and stage accounting ----------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* A response split over two writes on a socket with Nagle on waits
   for the client's delayed ACK (40 ms on Linux) before its second
   write leaves.  Sequential round trips of a query with a few rows on
   one plain client connection: once the warm-up has used up the
   connection's quick-ACK segments, the median shows any such stall.
   An empty answer is one write even when split, so the query must
   return rows. *)
let test_no_ack_stall () =
  let instance = mk_instance () in
  let q = "( ? sub ? id<4 )" in
  let expected =
    Testkit.dns_of (Testkit.oracle instance (Qparser.of_string q))
  in
  Alcotest.(check bool) "query returns 1-5 rows" true
    (List.length expected >= 1 && List.length expected <= 5);
  with_srv ~workers:2 instance (fun srv ->
      let conn = Srv_client.connect ~port:(Srv.port srv) () in
      Fun.protect
        ~finally:(fun () -> Srv_client.close conn)
        (fun () ->
          let round_trip () =
            let t0 = Unix.gettimeofday () in
            let reply = Srv_client.query conn q in
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check (list string)) "rows" expected reply.Srv_client.rows;
            dt
          in
          for _ = 1 to 10 do
            ignore (round_trip ())
          done;
          let ms = median (List.init 40 (fun _ -> round_trip ())) *. 1e3 in
          Alcotest.(check bool)
            (Printf.sprintf "median round trip %.2f ms < 10 ms" ms)
            true (ms < 10.)))

(* Eight queries in one write on one connection: the session answers
   them in order, each with its rows and a trailer, whatever the
   framing of the responses. *)
let test_pipelined () =
  let instance = mk_instance () in
  let asts =
    Array.append
      [| Qparser.of_string "( ? sub ? id=* )" |]
      (Query_mix.generate_ast ~seed:9 ~count:7 instance)
  in
  let payload =
    String.concat "" (Array.to_list (Array.map (fun a -> Qprinter.to_string a ^ "\n") asts))
  in
  with_srv ~workers:2 instance (fun srv ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float s Unix.SO_RCVTIMEO 10.;
          Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.port srv));
          Alcotest.(check bool) "one write" true (Monitor.write_all s payload);
          let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
          let trailers () =
            List.length
              (List.filter
                 (fun l -> starts_with ~prefix:"# " l)
                 (String.split_on_char '\n' (Buffer.contents b)))
          in
          while trailers () < Array.length asts do
            match Unix.read s chunk 0 (Bytes.length chunk) with
            | 0 -> Alcotest.fail "server closed before the eighth trailer"
            | n -> Buffer.add_subbytes b chunk 0 n
          done;
          let rec responses acc rows = function
            | [] -> List.rev acc
            | l :: rest when starts_with ~prefix:"# " l ->
                responses ((List.rev rows, l) :: acc) [] rest
            | l :: rest -> responses acc (l :: rows) rest
          in
          let got = responses [] [] (String.split_on_char '\n' (Buffer.contents b)) in
          Alcotest.(check int) "eight responses" (Array.length asts) (List.length got);
          List.iteri
            (fun i (rows, trailer) ->
              let what = Printf.sprintf "#%d %s" i (Qprinter.to_string asts.(i)) in
              Alcotest.(check bool) (what ^ ": status ok") true
                (starts_with ~prefix:"# status=ok" trailer);
              Alcotest.(check (list string)) (what ^ ": rows")
                (Testkit.dns_of (Testkit.oracle instance asts.(i)))
                rows)
            got))

(* srv_stage_ns splits every query request's srv_request_ns into
   stages that sum to it exactly, across every path: a multi-batch
   result, a shed request and one whose budget died in the queue.  The
   1-worker / 1-slot server's worker is held in [make_engine] until the
   queue holds a 1 ms-deadline query and a second query has been shed,
   so the queue fills without a worker computing: a request waiting for
   the runtime lock behind a busy worker would book that wait in
   whatever stage it is in. *)
let test_stage_reconciliation () =
  let instance = mk_instance () in
  let registry = Metrics.create () in
  let gate = Mutex.create () and opened = Condition.create () in
  let is_open = ref false in
  let srv =
    Srv.start ~registry ~workers:1 ~queue:1
      ~make_engine:(fun () ->
        Mutex.lock gate;
        while not !is_open do
          Condition.wait opened gate
        done;
        Mutex.unlock gate;
        Engine.create ~block:32 instance)
      ()
  in
  let open_gate () =
    Mutex.lock gate;
    is_open := true;
    Condition.broadcast opened;
    Mutex.unlock gate
  in
  Fun.protect
    ~finally:(fun () ->
      open_gate ();
      Srv.stop srv)
    (fun () ->
      let port = Srv.port srv in
      let main = Srv_client.connect ~port () and hasty = Srv_client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> List.iter Srv_client.close [ main; hasty ])
        (fun () ->
          Alcotest.(check bool) "DEADLINE 1" true (Srv_client.set_deadline_ms hasty 1);
          let q = "( ? sub ? id=* )" in
          let queued = ref None in
          let waiter = Thread.create (fun () -> queued := Some (Srv_client.query hasty q)) () in
          let until = Unix.gettimeofday () +. 5. in
          while Srv.queue_depth srv < 1 && Unix.gettimeofday () < until do
            Thread.delay 0.001
          done;
          Alcotest.(check bool) "shed while the queue is full" true
            (match (Srv_client.query main q).Srv_client.status with
            | Srv_client.Busy _ -> true
            | _ -> false);
          Thread.delay 0.005;
          open_gate ();
          Thread.join waiter;
          Alcotest.(check bool) "budget died in the queue" true
            (match !queued with
            | Some { Srv_client.status = Srv_client.Deadline; rows = []; _ } -> true
            | _ -> false);
          let reply = Srv_client.query main q in
          Alcotest.(check bool) "multi-batch result" true
            (reply.Srv_client.status = Srv_client.Ok
            && List.length reply.Srv_client.rows > 64));
      let request = Metrics.histogram ~registry ~labels:[ ("route", "line") ] "srv_request_ns" in
      let stage name = Metrics.histogram ~registry ~labels:[ ("stage", name) ] "srv_stage_ns" in
      let stages = [ "queue"; "parse"; "execute"; "write"; "other" ] in
      let total = Metrics.histogram_sum request in
      List.iter
        (fun name ->
          Alcotest.(check int) (name ^ ": one observation per request")
            (Metrics.histogram_count request)
            (Metrics.histogram_count (stage name)))
        stages;
      let sum = List.fold_left (fun acc n -> acc +. Metrics.histogram_sum (stage n)) 0. stages in
      Alcotest.(check (float 0.5)) "stages sum to srv_request_ns" total sum;
      let other = Metrics.histogram_sum (stage "other") /. total in
      Alcotest.(check bool) (Printf.sprintf "other share %.3f <= 0.10" other) true
        (other <= 0.10))

(* --- Introspection on the serving port ------------------------------------ *)

(* Each connection's session thread answers the introspection routes,
   so scrapes run concurrently with each other, with the flight
   recorder's sampler and with queries.  Eight scrapers at once: every
   answer must be whole. *)
let test_concurrent_scrapes () =
  let instance = mk_instance () in
  Alerts.install_defaults ();
  let sampling = not (Tsdb.running Tsdb.default) in
  if sampling then
    Tsdb.start ~tick:(fun () -> Alerts.tick Alerts.default) Tsdb.default;
  Fun.protect
    ~finally:(fun () -> if sampling then Tsdb.stop Tsdb.default)
    (fun () ->
      with_srv ~workers:2 instance (fun srv ->
          let port = Srv.port srv in
          let routes =
            [ "/metrics"; "/range?metric=srv_request_ns"; "/alerts"; "/tail"; "/dashboard" ]
          in
          let failures = ref [] and fmu = Mutex.create () in
          let fail msg =
            Mutex.lock fmu;
            failures := msg :: !failures;
            Mutex.unlock fmu
          in
          let scraper i =
            (* keep srv_request_ns moving under the scrapes *)
            let conn = Srv_client.connect ~port () in
            Fun.protect
              ~finally:(fun () -> Srv_client.close conn)
              (fun () ->
                for round = 1 to 3 do
                  ignore (Srv_client.query conn "( ? sub ? id=* )");
                  List.iter
                    (fun route ->
                      match Monitor.request ~port route with
                      | 200, headers, body -> (
                          match List.assoc_opt "content-length" headers with
                          | Some n when int_of_string_opt n = Some (String.length body) -> ()
                          | n ->
                              fail
                                (Printf.sprintf "%s: Content-Length %s, body %d bytes"
                                   route (Option.value ~default:"(none)" n)
                                   (String.length body)))
                      | status, _, _ ->
                          fail
                            (Printf.sprintf "scraper %d round %d: %s answered %d" i
                               round route status))
                    routes
                done)
          in
          let threads = List.init 8 (fun i -> Thread.create scraper i) in
          List.iter Thread.join threads;
          match !failures with
          | [] -> ()
          | first :: _ ->
              Alcotest.failf "%d bad answers; first: %s" (List.length !failures)
                first))

let () =
  Alcotest.run "srv"
    [
      ( "differential",
        [
          Alcotest.test_case "concurrent clients match oracle" `Quick
            test_differential_concurrency;
        ] );
      ( "http",
        [
          Alcotest.test_case "routes and streaming" `Quick test_http_routes;
          Alcotest.test_case "served slow query on /slowlog" `Quick
            test_served_slowlog;
          Alcotest.test_case "served ledger reconciles" `Quick
            test_served_ledger;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "full queue sheds" `Quick test_shed_backpressure;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
        ] );
      ( "http-limits",
        [
          Alcotest.test_case "head flood gets 400" `Quick test_head_flood;
          Alcotest.test_case "stalled head is closed" `Quick test_head_stall;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "concurrent scrapes" `Quick
            test_concurrent_scrapes;
        ] );
      ( "line-protocol",
        [
          Alcotest.test_case "control verbs" `Quick
            test_line_protocol_controls;
          Alcotest.test_case "no delayed-ACK stall" `Quick test_no_ack_stall;
          Alcotest.test_case "pipelined queries" `Quick test_pipelined;
        ] );
      ( "stages",
        [
          Alcotest.test_case "stages sum to srv_request_ns" `Quick
            test_stage_reconciliation;
        ] );
    ]
