(* The one listener: the query-serving front-end, which also answers
   every introspection route on the same port.

   One listening socket accepts both protocols: the first line of a
   connection is sniffed — `GET /query?... HTTP/1.1` marks HTTP, any
   other line starts the line-oriented text protocol (one query per
   line, rows streamed back, a `# status=...` trailer per query).
   HTTP paths other than /query go through the router: registered
   handlers, then /healthz and Monitor's route table.
   Each connection gets a session thread that parses requests and
   submits them to a bounded admission queue; a fixed pool of worker
   threads — each owning its own [Engine] over the shared read-only
   instance — executes them.  A full queue sheds the request
   immediately (HTTP 503 + Retry-After / `# status=busy`): explicit
   backpressure instead of unbounded buffering.  Every request carries
   an absolute deadline measured from admission, checked before
   execution and between result batches, so a query that waited out
   its budget in the queue is never run, and one that exceeds it
   mid-stream stops after shipping partial results.

   Framing: each query response is built in one per-request buffer —
   HTTP head, rows, trailer — and leaves in one write when it fits in
   one 64-row batch.  A longer result flushes at each 64-row boundary
   while the query is still running, so time-to-first-row is
   independent of result size, and its last batch leaves with the
   trailer.  Every accepted socket has Nagle off (TCP_NODELAY): a
   response's final write goes out at once instead of waiting for the
   client's delayed ACK of the previous one (40 ms on Linux).

   Instrumented end to end: query requests count in
   srv_requests_total{route,status} and srv_request_ns{route}
   (admission to the end of the final write — queue wait included,
   which is what an SLO on served latency must measure), and the same
   time split by stage in srv_stage_ns{stage}; routed requests count
   in Monitor's monitor_* series; srv_queue_depth, srv_sessions,
   srv_shed_total; each executed query journals a Qlog event carrying
   a fresh trace id. *)

type status = S_ok | S_error of string | S_busy | S_deadline

(* --- Jobs and the admission queue ---------------------------------------- *)

type job = {
  run : Engine.t -> unit;  (* executes and writes the response *)
  mutable finished : bool;
  jmu : Mutex.t;
  jcv : Condition.t;
}

type t = {
  sock : Unix.file_descr;
  port : int;
  registry : Metrics.t;
  queue_cap : int;
  n_workers : int;
  deadline_ns : int;  (* default per-request budget *)
  started_ns : int;
  served : int Atomic.t;  (* requests answered, for /healthz *)
  mutable handlers : (string * (string -> Monitor.response option)) list;
  mutable stopping : bool;
  queue : job Queue.t;
  qmu : Mutex.t;
  qcv : Condition.t;
  mutable workers : Thread.t list;
  mutable accept_thread : Thread.t option;
  sessions : (int, Unix.file_descr * Thread.t) Hashtbl.t;  (* by thread id *)
  smu : Mutex.t;
  g_depth : Metrics.gauge;
  g_sessions : Metrics.gauge;
  c_shed : Metrics.counter;
  h_stages : Metrics.histogram array;  (* srv_stage_ns, by [stage_names] *)
}

(* [other] is the request's wall time minus the rest (journal, tail
   sampling, trailer and bookkeeping), so per request the stages sum
   exactly to srv_request_ns. *)
let stage_names = [| "queue"; "parse"; "execute"; "write"; "other" |]

(* [ns] runs from admission (or, for an HTTP error answer on /query,
   from the request line) to the end of the final write; the stages
   are intervals inside it, taken from the same clock. *)
let observe ?trace_id ?(queue = 0) ?(parse = 0) ?(exec = 0) t ~route ~status
    ~write ~ns =
  Array.iteri
    (fun i v -> Metrics.observe_ns t.h_stages.(i) v)
    [| queue; parse; exec; write; ns - queue - parse - exec - write |];
  Atomic.incr t.served;
  Metrics.incr
    (Metrics.counter ~registry:t.registry
       ~help:"requests handled by the serving front-end"
       ~labels:[ ("route", route); ("status", string_of_int status) ]
       "srv_requests_total");
  Metrics.observe_ns ?trace_id
    (Metrics.histogram ~registry:t.registry
       ~help:
         "wall nanoseconds per served request, admission to the end of \
          its final write (queue wait included)"
       ~labels:[ ("route", route) ]
       "srv_request_ns")
    ns

let set_depth t n = Metrics.set t.g_depth (float_of_int n)

type admission = Admitted of job | Shed

(* With no workers (a monitor-only server) nothing would ever run a
   job, so every query is shed. *)
let submit t run =
  Mutex.lock t.qmu;
  if t.stopping || t.n_workers = 0 || Queue.length t.queue >= t.queue_cap
  then begin
    Mutex.unlock t.qmu;
    Metrics.incr t.c_shed;
    Shed
  end
  else begin
    let j =
      { run; finished = false; jmu = Mutex.create (); jcv = Condition.create () }
    in
    Queue.push j t.queue;
    set_depth t (Queue.length t.queue);
    Condition.signal t.qcv;
    Mutex.unlock t.qmu;
    Admitted j
  end

let wait_job j =
  Mutex.lock j.jmu;
  while not j.finished do
    Condition.wait j.jcv j.jmu
  done;
  Mutex.unlock j.jmu

let finish_job j =
  Mutex.lock j.jmu;
  j.finished <- true;
  Condition.broadcast j.jcv;
  Mutex.unlock j.jmu

let worker_loop t make_engine () =
  let engine = make_engine () in
  let rec loop () =
    Mutex.lock t.qmu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcv t.qmu
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.qmu
    else begin
      let j = Queue.pop t.queue in
      set_depth t (Queue.length t.queue);
      Mutex.unlock t.qmu;
      (try j.run engine with _ -> ());
      finish_job j;
      loop ()
    end
  in
  loop ()

(* --- Socket plumbing ------------------------------------------------------ *)

(* The limits of the one reader.  Line-protocol sessions may idle
   forever (reads poll every [poll_s] so a blocked session still
   notices [stopping]); an HTTP head — request line plus headers — is
   bounded in size and in time from the request line to the blank
   line.  Past a head limit the request is answered 400 and closed. *)
let poll_s = 0.5
let send_timeout_s = 5.
let line_max = 65_536
let body_max = 1_048_576
let head_max = 16_384
let head_deadline_ns = 2_000_000_000

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;  (* one read buffer for the connection's lifetime *)
  mutable eof : bool;
}

let reader fd =
  { fd; buf = Buffer.create 256; chunk = Bytes.create 4096; eof = false }

let refill t r =
  if r.eof then false
  else begin
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 ->
        r.eof <- true;
        false
    | n ->
        Buffer.add_subbytes r.buf r.chunk 0 n;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* receive timeout: poll the stop flag, stay open *)
        not t.stopping
    | exception Unix.Unix_error _ ->
        r.eof <- true;
        false
  end

(* One line, newline stripped (CR too); [None] at EOF/stop, once the
   unterminated line outgrows [max] bytes, or past [deadline]. *)
let read_line ?deadline ?(max = line_max) t r =
  let rec go () =
    let text = Buffer.contents r.buf in
    match String.index_opt text '\n' with
    | Some i ->
        let line = String.sub text 0 i in
        Buffer.clear r.buf;
        Buffer.add_string r.buf
          (String.sub text (i + 1) (String.length text - i - 1));
        let line =
          if line <> "" && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        Some line
    | None ->
        if Buffer.length r.buf > max then None
        else if
          match deadline with Some d -> Mclock.now_ns () > d | None -> false
        then None
        else if refill t r then go ()
        else None
  in
  go ()

let read_exact t r n =
  let rec go () =
    if Buffer.length r.buf >= n then begin
      let text = Buffer.contents r.buf in
      let body = String.sub text 0 n in
      Buffer.clear r.buf;
      Buffer.add_string r.buf (String.sub text n (String.length text - n));
      Some body
    end
    else if n > body_max then None
    else if refill t r then go ()
    else None
  in
  go ()

(* --- Execution ------------------------------------------------------------ *)

(* The trailer line both protocols end a query response with. *)
let trailer status ~rows ~wall_ns =
  match status with
  | S_ok -> Printf.sprintf "# status=ok rows=%d wall_us=%d\n" rows (wall_ns / 1000)
  | S_deadline ->
      Printf.sprintf "# status=deadline rows=%d wall_us=%d\n" rows
        (wall_ns / 1000)
  | S_busy -> "# status=busy retry_ms=1000\n"
  | S_error msg -> Printf.sprintf "# status=error msg=%S\n" msg

let http_code = function
  | S_ok -> 200
  | S_deadline -> 504
  | S_busy -> 503
  | S_error _ -> 400

(* The streaming-executor memory bound (Thm 8.3) as a live gauge: the
   high-water resident-page mark of the last worker engine to finish a
   query.  The flight recorder's series over it is how CI watches the
   constant-memory claim hold across a whole load run. *)
let g_resident =
  Metrics.gauge
    ~help:"max resident pages observed by a serving worker engine"
    "srv_engine_max_resident_pages"

(* A served run's journal note: no result cache at the root, no
   shipping. *)
let served_note = Engine.plain_note None

(* A status's failure, as the ledger reports it. *)
let failure = function
  | S_ok -> None
  | S_deadline -> Some (`Deadline, "deadline")
  | S_busy -> Some (`Shed, "busy")
  | S_error msg -> Some (`Error, msg)

(* Evaluate one query on a worker's engine, through the plan
   [Engine.eval] would run ([Engine.plan]), appending rows to [out]
   and calling [flush] at every 64-row boundary (the rows still in
   [out] at the end are the caller's to send), checking the deadline
   between rows.  Returns the final status, the rows produced, the
   trace id and the parse and execute stage times (execute runs from
   the parsed query to the last row, [flush]es included).  Every
   request runs force-traced under a fresh trace id, as one
   [Engine.ledger] run: the journal event and the tail sampler's offer
   happen there. *)
let execute engine ~query_text ~deadline_ns ~out ~flush =
  let tid = Trace.next_trace_id () in
  let stats = Engine.stats engine in
  let t0 = Mclock.now_ns () in
  let t_parsed = ref t0 and t_done = ref t0 in
  let rows = ref 0 in
  let run () =
    let parsed =
      match
        Qparser.of_string ~schema:(Instance.schema (Engine.instance engine))
          query_text
      with
      | exception Qparser.Parse_error msg -> Error msg
      | ast -> Ok ast
    in
    t_parsed := Mclock.now_ns ();
    t_done := !t_parsed;
    let planned = ref None in
    let status =
      match parsed with
      | Error msg -> S_error msg
      | Ok ast ->
          let status = ref S_ok in
          (try
             let plan = Engine.plan ~mode:Engine.Streaming engine ast in
             planned := Some plan;
             let src = Engine.run_src engine plan in
             let rec pump n =
               if Mclock.now_ns () > deadline_ns then status := S_deadline
               else
                 match Ext_list.Source.next src with
                 | None -> ()
                 | Some e ->
                     Buffer.add_string out (Dn.to_string (Entry.dn e));
                     Buffer.add_char out '\n';
                     incr rows;
                     if n >= 63 then begin
                       if not (flush ()) then raise Exit;
                       pump 0
                     end
                     else pump (n + 1)
             in
             pump 0
           with
          | Exit -> ()
          | e -> status := S_error (Printexc.to_string e));
          t_done := Mclock.now_ns ();
          !status
    in
    (status, { Engine.planned = !planned; rows = !rows; failure = failure status })
  in
  let status =
    Engine.with_forced_tracing true @@ fun () ->
    Trace.with_trace_id tid @@ fun () ->
    Trace.with_actor "srv" @@ fun () ->
    match
      Engine.ledger ~mode:Engine.Streaming ~label:"serve" ~origin:"srv"
        stats (Engine.Text query_text) ~note:served_note run
    with
    | status, _ -> status
    | exception e -> S_error (Printexc.to_string e)
  in
  Metrics.set g_resident (float_of_int stats.Io_stats.max_resident_pages);
  (status, !rows, tid, !t_parsed - t0, !t_done - !t_parsed)

(* A request that never reached a worker engine (shed at admission, or
   its budget died in the queue) still deserves a trace the tail
   sampler can retain: a one-node span with a fresh trace id, so the
   503/504 shows up in `/tail` and as an exemplar like any slow
   request. *)
let synthetic_span ~name ~detail ~wall_ns : Trace.span =
  {
    Trace.name;
    detail;
    trace_id = Trace.next_trace_id ();
    actor = "srv";
    start_ns = Mclock.now_ns () - wall_ns;
    elapsed_ns = wall_ns;
    io = Io_stats.create ();
    alloc_bytes = 0;
    rows = None;
    children = [];
  }

(* Admit, execute on a worker, stream to the socket, account.  The
   calling session thread blocks until the worker finishes, preserving
   request order within a connection.  Every response leaves through
   [send], which times its writes for the [write] stage. *)
let serve_query t fd ~route ~write_head ~deadline_ns query_text =
  let submitted = Mclock.now_ns () in
  let absolute_deadline = submitted + deadline_ns in
  let write_ns = ref 0 in
  let send s =
    let w0 = Mclock.now_ns () in
    let ok = Monitor.write_all fd s in
    write_ns := !write_ns + (Mclock.now_ns () - w0);
    ok
  in
  let run engine =
    let started = Mclock.now_ns () in
    let queue = started - submitted in
    if started > absolute_deadline then begin
      (* the budget died in the queue: don't run at all *)
      let sp = synthetic_span ~name:"queue-deadline" ~detail:query_text ~wall_ns:queue in
      ignore (Tail.consider ~origin:"srv" ~outcome:`Deadline ~wall_ns:queue sp);
      let wall = Mclock.now_ns () - submitted in
      ignore (send (write_head S_deadline ^ trailer S_deadline ~rows:0 ~wall_ns:wall));
      observe ~trace_id:sp.Trace.trace_id ~queue t ~route
        ~status:(http_code S_deadline) ~write:!write_ns
        ~ns:(Mclock.now_ns () - submitted)
    end
    else begin
      (* The head assumes rows; a response with none is re-headed with
         its final status below, before anything has been sent. *)
      let out = Buffer.create 256 in
      Buffer.add_string out (write_head S_ok);
      let flush () =
        let ok = send (Buffer.contents out) in
        Buffer.clear out;
        ok
      in
      let status, rows, tid, parse, exec =
        execute engine ~query_text ~deadline_ns:absolute_deadline ~out ~flush
      in
      let exec = exec - !write_ns in
      if rows = 0 then begin
        Buffer.clear out;
        Buffer.add_string out (write_head status)
      end;
      let wall = Mclock.now_ns () - submitted in
      Buffer.add_string out (trailer status ~rows ~wall_ns:wall);
      ignore (flush ());
      observe ~trace_id:tid ~queue ~parse ~exec t ~route
        ~status:(http_code status) ~write:!write_ns
        ~ns:(Mclock.now_ns () - submitted)
    end
  in
  match submit t run with
  | Admitted j -> wait_job j
  | Shed ->
      let wall = Mclock.now_ns () - submitted in
      let sp = synthetic_span ~name:"shed" ~detail:query_text ~wall_ns:wall in
      ignore (Tail.consider ~origin:"srv" ~outcome:`Shed ~wall_ns:wall sp);
      ignore (send (write_head S_busy ^ trailer S_busy ~rows:0 ~wall_ns:0));
      observe ~trace_id:sp.Trace.trace_id t ~route ~status:503 ~write:!write_ns
        ~ns:(Mclock.now_ns () - submitted)

(* --- The HTTP face --------------------------------------------------------- *)

(* The rest of the head after the request line: the Content-Length it
   declares (0 when none), or [None] when the head breaks a limit or
   the client goes away first. *)
let read_head t r ~request_line =
  let deadline = Mclock.now_ns () + head_deadline_ns in
  let rec go budget length =
    if budget < 0 then None
    else
      match read_line ~deadline ~max:budget t r with
      | None -> None
      | Some "" -> Some length
      | Some line ->
          let length =
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.trim (String.sub line 0 i))
                   = "content-length" ->
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                Option.value ~default:length (int_of_string_opt (String.trim v))
            | _ -> length
          in
          go (budget - String.length line - 2) length
  in
  go (head_max - String.length request_line - 2) 0

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let healthz t =
  let num n = Json.Num (float_of_int n) in
  Monitor.respond ~content_type:"application/json"
    (Json.to_string
       (Json.Obj
          (Monitor.healthz_fields ()
          @ [
              ("workers", num t.n_workers);
              ("queue_depth", num (locked t.qmu (fun () -> Queue.length t.queue)));
              ("sessions", num (locked t.smu (fun () -> Hashtbl.length t.sessions)));
              (* Whole seconds: a fractional uptime serializes with
                 variable width, so a HEAD rendered moments after a GET
                 could advertise a different Content-Length. *)
              ("uptime_s", num ((Mclock.now_ns () - t.started_ns) / 1_000_000_000));
              ("requests", num (Atomic.get t.served));
            ])))

(* Every path but /query: the registered handlers first (they see the
   full target, query string included), then /healthz and the
   introspection routes, then 404. *)
let route t target =
  let path, params = Monitor.split_target target in
  let rec go = function
    | (_, h) :: rest -> ( match h target with Some r -> r | None -> go rest)
    | [] -> (
        match
          if path = "/healthz" then Some (healthz t)
          else Monitor.route ~registry:t.registry path params
        with
        | Some r -> r
        | None -> Monitor.respond ~status:404 (Printf.sprintf "no route %s\n" path))
  in
  try go t.handlers
  with e ->
    Monitor.respond ~status:500
      (Printf.sprintf "handler error: %s\n" (Printexc.to_string e))

(* A complete response, HEAD withholding the body but keeping its
   Content-Length.  Answers on /query (errors) count as query requests,
   every other route under monitor_*. *)
let answer t fd ~t0 ~path ?(head_only = false) response =
  let w0 = Mclock.now_ns () in
  Monitor.write_response fd ~head_only response;
  let w1 = Mclock.now_ns () in
  let status = response.Monitor.status and ns = w1 - t0 in
  if path = "/query" then observe t ~route:path ~status ~write:(w1 - w0) ~ns
  else begin
    Atomic.incr t.served;
    Monitor.observe ~registry:t.registry ~path ~status ~ns
  end

(* Streamed /query head: no Content-Length, the body is EOF-delimited;
   busy additionally advertises Retry-After, the explicit backpressure
   contract. *)
let query_head status =
  let headers = match status with S_busy -> [ ("Retry-After", "1") ] | _ -> [] in
  Monitor.http_head ~content_type:"text/plain; charset=utf-8" ~headers
    (http_code status)

let handle_query t fd r ~answer ~length params =
  let body =
    if length > 0 then Option.value ~default:"" (read_exact t r length) else ""
  in
  let query_text =
    if body <> "" then String.trim body
    else Option.fold ~none:"" ~some:String.trim (List.assoc_opt "q" params)
  in
  let deadline_ns =
    match Option.bind (List.assoc_opt "deadline_ms" params) int_of_string_opt with
    | Some ms when ms > 0 -> ms * 1_000_000
    | _ -> t.deadline_ns
  in
  match query_text with
  | "" ->
      answer
        (Monitor.respond ~status:400
           "missing query: GET /query?q=... or POST the query text\n")
  | q -> serve_query t fd ~route:"/query" ~write_head:query_head ~deadline_ns q

let handle_http t fd r request_line =
  let t0 = Mclock.now_ns () in
  match (String.split_on_char ' ' request_line, read_head t r ~request_line) with
  | meth :: target :: _, Some length -> (
      let path, params = Monitor.split_target target in
      let answer = answer t fd ~t0 ~path in
      match (meth, path = "/query") with
      | ("GET" | "POST"), true -> handle_query t fd r ~answer ~length params
      | ("GET" | "HEAD"), false ->
          answer ~head_only:(meth = "HEAD") (route t target)
      | _, query ->
          answer
            (Monitor.respond ~status:405
               (Printf.sprintf "method %s not allowed (%s)\n" meth
                  (if query then "GET, POST" else "GET, HEAD"))))
  | _ -> answer t fd ~t0 ~path:"(bad)" (Monitor.respond ~status:400 "bad request\n")

(* --- The line-protocol face ------------------------------------------------ *)

(* No HTTP head: the write_head hook contributes nothing, the trailer
   alone reports status. *)
let line_head _status = ""

let handle_line_session t fd r first_line =
  let deadline = ref t.deadline_ns in
  let handle line =
    match String.trim line with
    | "" -> true
    | "PING" -> Monitor.write_all fd "PONG\n"
    | "QUIT" | "BYE" -> false
    | line when String.length line > 9 && String.sub line 0 9 = "DEADLINE " -> (
        match int_of_string_opt (String.trim (String.sub line 9 (String.length line - 9))) with
        | Some ms when ms > 0 ->
            deadline := ms * 1_000_000;
            Monitor.write_all fd "OK\n"
        | _ -> Monitor.write_all fd "# status=error msg=\"bad DEADLINE\"\n")
    | query ->
        serve_query t fd ~route:"line" ~write_head:line_head
          ~deadline_ns:!deadline query;
        true
  in
  let rec loop line =
    if handle line && not t.stopping then
      match read_line t r with None -> () | Some l -> loop l
  in
  loop first_line

(* --- Sessions -------------------------------------------------------------- *)

let looks_like_http line =
  (* METHOD SP TARGET SP HTTP/…  *)
  match String.split_on_char ' ' line with
  | [ _; _; v ] -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
  | _ -> false

let session t fd =
  let self = Thread.id (Thread.self ()) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.smu;
      Hashtbl.remove t.sessions self;
      Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
      Mutex.unlock t.smu;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO poll_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
         Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let r = reader fd in
      match read_line t r with
      | None -> ()
      | Some line ->
          if looks_like_http line then handle_http t fd r line
          else handle_line_session t fd r line)

let accept_loop t () =
  while not t.stopping do
    match Unix.accept t.sock with
    | fd, _ ->
        if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          (* The insert happens under [smu] before the session can run
             its removal (which also needs [smu]), so the table never
             misses a live session or keeps a dead one. *)
          Mutex.lock t.smu;
          let th = Thread.create (fun () -> session t fd) () in
          Hashtbl.replace t.sessions (Thread.id th) (fd, th);
          Metrics.set t.g_sessions (float_of_int (Hashtbl.length t.sessions));
          Mutex.unlock t.smu
        end
    | exception Unix.Unix_error _ -> ()  (* stop() closes the socket *)
  done

(* --- Lifecycle ------------------------------------------------------------- *)

let start ?(registry = Metrics.default) ?(workers = 4) ?(queue = 64)
    ?(deadline_ms = 5_000) ?(port = 0) ~make_engine () =
  if workers < 0 then invalid_arg "Srv.start: workers must not be negative";
  if queue < 1 then invalid_arg "Srv.start: queue must be positive";
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    {
      sock;
      port;
      registry;
      queue_cap = queue;
      n_workers = workers;
      deadline_ns = deadline_ms * 1_000_000;
      started_ns = Mclock.now_ns ();
      served = Atomic.make 0;
      handlers = [];
      stopping = false;
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcv = Condition.create ();
      workers = [];
      accept_thread = None;
      sessions = Hashtbl.create 16;
      smu = Mutex.create ();
      g_depth =
        Metrics.gauge ~registry ~help:"requests waiting in the admission queue"
          "srv_queue_depth";
      g_sessions =
        Metrics.gauge ~registry ~help:"live serving sessions (connections)"
          "srv_sessions";
      c_shed =
        Metrics.counter ~registry
          ~help:"requests shed because the admission queue was full"
          "srv_shed_total";
      h_stages =
        Array.map
          (fun stage ->
            Metrics.histogram ~registry
              ~help:
                "wall nanoseconds per served request spent in each stage; \
                 per request the stages sum to srv_request_ns"
              ~labels:[ ("stage", stage) ]
              "srv_stage_ns")
          stage_names;
    }
  in
  t.workers <-
    List.init workers (fun _ -> Thread.create (worker_loop t make_engine) ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let port t = t.port
let workers t = t.n_workers
let add_handler t name h = t.handlers <- t.handlers @ [ (name, h) ]
let queue_capacity t = t.queue_cap

let queue_depth t = locked t.qmu (fun () -> Queue.length t.queue)
let session_count t = locked t.smu (fun () -> Hashtbl.length t.sessions)

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (* wake a blocked accept with a throwaway connection *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)))
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (* workers drain what was admitted, then exit *)
    Mutex.lock t.qmu;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qmu;
    List.iter Thread.join t.workers;
    (* nudge idle sessions off their sockets, then join them *)
    Mutex.lock t.smu;
    let live = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      live;
    Mutex.unlock t.smu;
    List.iter (fun (_, th) -> Thread.join th) live;
    Metrics.set t.g_sessions 0.;
    set_depth t 0
  end
