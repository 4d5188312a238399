(** The one listener: a socket server that executes L0–L3 query text
    on a fixed worker pool over the shared read-only instance, and
    answers every introspection route of {!Monitor} on the same port.

    One listening port speaks both protocols, sniffed on the first
    line of each connection:

    - {b HTTP/1.1}: [GET /query?q=<query>] or [POST /query] with the
      query text as the body; optional [deadline_ms] query parameter.
      The response streams result rows (one DN per line) EOF-delimited
      — no [Content-Length] — and ends with a [# status=...] trailer
      line.  Every other path goes to the {!add_handler} handlers, then
      to [/healthz] (liveness JSON: {!Monitor.healthz_fields} plus
      [workers], [queue_depth], [sessions], [uptime_s], [requests]) and
      {!Monitor.route}, then to a 404.  Those routes answer [GET] and
      [HEAD] (the body withheld, [Content-Length] kept); any other
      method gets a 405.  A request head larger than 16 KB, or not
      complete 2 s after its request line, is answered 400 and closed.
    - {b Line protocol}: one query per line; rows stream back, each
      response ending with the same trailer.  [PING] answers [PONG],
      [DEADLINE <ms>] sets the session's deadline, [QUIT]/[BYE] closes.

    The trailer is one of
    [# status=ok rows=<n> wall_us=<n>],
    [# status=deadline rows=<n> wall_us=<n>] (partial rows shipped),
    [# status=busy retry_ms=<n>] (shed at admission; HTTP also sends
    503 + [Retry-After]) or [# status=error msg="..."].  [wall_us] is
    admission to just before the response's final write.

    Framing: a response whose rows fit in one 64-row batch (head, rows
    and trailer) leaves in a single write; a longer one is written at
    each 64-row boundary as the rows are produced, and its last batch
    leaves with the trailer.  Every accepted connection has
    [TCP_NODELAY] set, so no write waits for the client's delayed ACK.

    Concurrency model: a session thread per connection parses requests
    and submits queries to a bounded admission queue; [workers] worker
    threads — each owning its own {!Engine} built by [make_engine] —
    execute and stream results back.  A full queue sheds instead of
    buffering (explicit backpressure).  Deadlines are absolute from
    admission: a request whose budget died waiting is not executed,
    and one exceeding it mid-stream stops after the rows already
    shipped.  With [workers = 0] the server is monitor-only: no engine
    is built and every query is shed.

    Observability: query requests on either face, admitted or shed,
    count in [srv_requests_total{route,status}] and
    [srv_request_ns{route}] (admission to the end of the final write,
    queue wait included — so it exceeds the trailer's [wall_us] by that
    one write call).  [srv_stage_ns{stage}] splits the same time by
    {!stage_names}: [queue] (admission to a worker picking the request
    up), [parse], [execute] (plan, operators and row encoding, minus
    time inside writes), [write] (time inside socket writes, the final
    one included) and [other] (the remainder: journal, tail sampling,
    bookkeeping).  Every request observes all five, from the same clock
    stamps as [srv_request_ns], so per request they sum to it exactly.
    Every other route counts in {!Monitor.observe}'s [monitor_*]
    series.  [srv_queue_depth], [srv_sessions] (every live
    connection) and [srv_shed_total] complete the set, all in the
    context's registry; every executed query records a {!Qlog} event
    carrying a fresh trace id.  {!Alerts.install_defaults} includes SLO
    rules over the latency histogram and the shed rate; they run when
    the host installs them in the context's evaluator. *)

type t

val start :
  ?obs:Obs.t ->
  ?workers:int ->
  ?queue:int ->
  ?deadline_ms:int ->
  ?port:int ->
  make_engine:(unit -> Engine.t) ->
  unit ->
  t
(** Bind the loopback interface and start serving.  [workers] (default
    4) worker threads each call [make_engine] once at startup — hand
    out engines sharing one immutable {!Instance}; with [workers = 0]
    [make_engine] is never called.  [queue] (default 64) bounds the
    admission queue; [deadline_ms] (default 5000) is the per-request
    budget; [port] 0 (the default) picks a free port — see {!port}.
    [obs] is the context every introspection route reads: its registry
    receives the server's own series and is the one [/metrics]
    exposes, and [/range], [/alerts], [/planstats], [/workload] and
    [/healthz]'s [alerts_firing] read its stores.  Without it the
    server makes a fresh context over {!Metrics.default} whose stores
    start empty (an unsampled recorder, no rules, no plan-quality
    events), so every route keeps its shape.
    @raise Unix.Unix_error when the port is taken.
    @raise Invalid_argument when [workers] is negative or [queue] is
    not positive. *)

val stage_names : string array
(** The [stage] label values of [srv_stage_ns], in request order:
    [queue], [parse], [execute], [write], [other]. *)

val port : t -> int
val workers : t -> int

val add_handler : t -> string -> (string -> Monitor.response option) -> unit
(** [add_handler t name fn] consults [fn] with each non-[/query]
    request target (query string included — {!Monitor.split_target}
    parses it) before [/healthz] and the built-in routes; [None] falls
    through.  [name] only labels the handler. *)

val queue_capacity : t -> int

val queue_depth : t -> int
(** Requests waiting for a worker right now. *)

val session_count : t -> int
(** Live connections right now. *)

val stop : t -> unit
(** Stop accepting, drain admitted requests, join every worker and
    session thread, close every socket.  Idempotent. *)
