(** The introspection route table: the observability surface as HTTP
    routes, served by the one listener, {!Srv}, which reads every
    request and hands any path other than [/query] to its registered
    handlers and then to {!route}.  [Monitor] owns no socket and no
    thread.

    Built-in routes: [/] (index of every route the server answers),
    [/metrics] (OpenMetrics exposition of the registry, histogram
    exemplars included), [/alerts] (the default {!Alerts} evaluator's
    rules, states and transition history as JSON), [/slowlog]
    (slow-query captures as JSON lines, each annotated with whether
    its trace is tail-retained), [/trace] (recent trace summaries),
    [/trace/<sel>] (one trace as Chrome trace-event JSON; [sel] is an
    index into the recent ring, a trace id — tail-retained ids resolve
    too — or [last]), [/tail] (the {!Tail} sampler's retained traces),
    [/range] (a {!Tsdb} range query:
    [?metric=NAME&agg=p99&window=300&step=2], extra params act as label
    matchers), [/dashboard] (the self-contained live HTML dashboard),
    [/planstats] (the default {!Planstats} store's q-error summaries +
    calibration) and [/workload] (its top plans by wall time).
    [/healthz] is the server's: {!healthz_fields} plus its own
    counters.

    The routes observe themselves through {!observe}:
    [monitor_requests_total{route,status}] counters and a
    [monitor_request_ns{route}] histogram, routes truncated to their
    first path segment. *)

type response = { status : int; content_type : string; body : string }

val respond : ?status:int -> ?content_type:string -> string -> response
(** [status] defaults to 200, [content_type] to [text/plain]. *)

val route :
  registry:Metrics.t -> string -> (string * string) list -> response option
(** [route ~registry path params] answers a built-in route ([/metrics]
    exposes [registry]); [None] when [path] is not one. *)

val healthz_fields : unit -> (string * Json.t) list
(** The introspection part of [/healthz]: [status], [journal] (sink
    size and rotation limits) and [alerts_firing]. *)

val observe : registry:Metrics.t -> path:string -> status:int -> ns:int -> unit
(** Count one request answered by the route table in
    [monitor_requests_total] and [monitor_request_ns]. *)

val split_target : string -> string * (string * string) list
(** [split_target "/p?a=1&b=x%20y"] is [("/p", [("a","1"); ("b","x y")])]:
    the path and the url-decoded query parameters in order. *)

val url_decode : string -> string

val get : ?host:string -> port:int -> string -> int * string
(** A minimal loopback HTTP client: GET the path and return
    [(status, body)].  Used by the bench harness to scrape its own
    [/metrics] mid-run, and by the tests.
    @raise Unix.Unix_error when nothing listens. *)

val request :
  ?host:string ->
  ?meth:string ->
  ?body:string ->
  port:int ->
  string ->
  int * (string * string) list * string
(** Like {!get} but with a chosen method, an optional request [body]
    (sent with its [Content-Length] — the serving front-end's
    [POST /query]) and the response headers (names lowercased) — what
    the HEAD/Content-Length tests and [curl -I]-style checks need.
    [meth] defaults to ["GET"].
    @raise Unix.Unix_error when nothing listens. *)

(** {1 Response writing} *)

val http_head :
  ?content_type:string ->
  ?headers:(string * string) list ->
  ?content_length:int ->
  int ->
  string
(** The status line and header block (terminated by the blank line) for
    a [Connection: close] response.  Omitting [content_length] yields a
    streamed, EOF-delimited response head. *)

val write_all : Unix.file_descr -> string -> bool
(** Write the whole string, straight from the string (no copy); [false]
    when the write fails (the peer hung up or the send timed out).  The
    one socket writer of {!Srv}, {!Srv_client} and {!write_response}. *)

val write_response : Unix.file_descr -> head_only:bool -> response -> unit
(** Write a complete (head + body) response; [head_only] withholds the
    body (HEAD) but keeps [Content-Length].  Write errors are swallowed
    — the peer hanging up mid-response is its own problem. *)
