(* The introspection route table: the observability surface as HTTP
   routes, plus the minimal HTTP/1.1 plumbing (response heads, targets,
   a loopback client) shared with the one listener, [Srv], which reads
   every request and dispatches here for anything that is not /query.

     /           plain-text index of the routes
     /metrics    OpenMetrics exposition of the registry (with exemplars)
     /slowlog    the slow queries Tail retains, slowest first, JSON lines
     /trace      summaries of Tail's retained traces, newest first, JSON
     /trace/<n>  the n-th retained trace (0 = newest; or a trace id, or
                 "last") as Chrome trace-event JSON
     /tail       the tail sampler's retained traces and knobs, JSON
     /range      flight-recorder range query (?metric=&agg=&window=&step=)
     /dashboard  self-contained live HTML dashboard

   /healthz is assembled by the server from [healthz_fields] plus its
   own counters.  Route bodies may run on several session threads at
   once: the registry, journal, tail store and tsdb are mutexed; the
   alert and plan-quality stores are read unlocked, which sys-threads
   keep memory-safe and consistent enough for monitoring. *)

type response = { status : int; content_type : string; body : string }

let respond ?(status = 200) ?(content_type = "text/plain; charset=utf-8") body
    =
  { status; content_type; body }

let reason = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 400 -> "Bad Request"
  | 405 -> "Method Not Allowed"
  | _ -> "Internal Server Error"

(* --- Request targets -------------------------------------------------------- *)

let url_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> -1
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | '%' when i + 2 < n && hex s.[i + 1] >= 0 && hex s.[i + 2] >= 0 ->
          Buffer.add_char b (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
          go (i + 3)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let params =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | None -> if kv = "" then None else Some (url_decode kv, "")
            | Some j ->
                Some
                  ( url_decode (String.sub kv 0 j),
                    url_decode (String.sub kv (j + 1) (String.length kv - j - 1))
                  ))
          (String.split_on_char '&' qs)
      in
      (path, params)

(* --- Built-in routes ------------------------------------------------------ *)

let num n = Json.Num (float_of_int n)

(* One line per slowlog entry: the journal event joined to the trace
   Tail holds for it — the join an operator follows from a slowlog line
   straight to /trace/<id>. *)
let slowlog_jsonl () =
  String.concat ""
    (List.map
       (fun ((r : Tail.retained), ev) ->
         let fields =
           match Qlog.to_json { ev with Qlog.trace_id = Some r.Tail.r_trace_id } with
           | Json.Obj fields -> fields
           | _ -> []
         in
         Json.to_string
           (Json.Obj
              (fields
              @ [
                  ("trace_retained", Json.Bool true);
                  ("trace_reason", Json.Str (Tail.reason_to_string r.Tail.r_reason));
                ]))
         ^ "\n")
       (Tail.slowlog 64))

(* The fields /trace and /tail share for one retained trace. *)
let summary (r : Tail.retained) =
  let s = r.Tail.r_span in
  [
    ("trace_id", Json.Str r.Tail.r_trace_id);
    ("name", Json.Str s.Trace.name);
    ("detail", Json.Str s.Trace.detail);
    ("spans", num (Trace.span_count s));
    ("wall_ns", num r.Tail.r_wall_ns);
  ]

let trace_summaries () =
  Json.Arr
    (List.mapi
       (fun i (r : Tail.retained) ->
         let lane a = Json.Str (if a = "" then "main" else a) in
         Json.Obj
           ((("n", num i) :: summary r)
           @ [ ("actors", Json.Arr (List.map lane (Trace.actors r.Tail.r_span))) ]))
       (Tail.retained ()))

(* A trace id first (one of 16 hex digits may be all decimal), then
   "last" or a position in Tail's newest-first list. *)
let find_trace sel =
  let nth n = if n < 0 then None else List.nth_opt (Tail.retained ()) n in
  let found =
    match Tail.find sel with
    | Some _ as r -> r
    | None when sel = "last" -> nth 0
    | None -> Option.bind (int_of_string_opt sel) nth
  in
  Option.map (fun r -> r.Tail.r_span) found

let tail_json () =
  Json.Obj
    [
      ("retained", num (Tail.retained_count ()));
      ("retained_spans", num (Tail.retained_spans ()));
      ("budget_spans", num (Tail.budget_spans ()));
      ( "slow_threshold_ms",
        Json.Num (float_of_int (Tail.slow_threshold_ns ()) /. 1e6) );
      ("sample_every", num (Tail.sample_every ()));
      ( "traces",
        Json.Arr
          (List.map
             (fun (r : Tail.retained) ->
               Json.Obj
                 (summary r
                 @ [
                     ("reason", Json.Str (Tail.reason_to_string r.Tail.r_reason));
                     ("origin", Json.Str r.Tail.r_origin);
                     ("ts", Json.Num r.Tail.r_ts);
                   ]))
             (Tail.retained ())) );
    ]

(* /range: the flight recorder's query surface.  Unknown params are
   label matchers, so /range?metric=srv_request_ns&agg=p99&route=line
   restricts to that route's series. *)
let range_response params =
  match List.assoc_opt "metric" params with
  | None | Some "" ->
      respond ~status:400
        "usage: /range?metric=NAME[&agg=rate|sum|avg|min|max|pNN][&window=SECONDS][&step=SECONDS][&LABEL=VALUE...]\n"
  | Some metric -> (
      let fparam name default =
        match List.assoc_opt name params with
        | Some s -> (
            match float_of_string_opt s with
            | Some f when f > 0. -> f
            | _ -> default)
        | None -> default
      in
      let window_s = fparam "window" 300. in
      let step_s = fparam "step" (Tsdb.resolution_s Tsdb.default) in
      match
        match List.assoc_opt "agg" params with
        | None -> Some Tsdb.Avg
        | Some a -> Tsdb.agg_of_string a
      with
      | None ->
          respond ~status:400
            "bad agg: want rate|sum|avg|min|max|pNN (p50, p99, p999)\n"
      | Some agg ->
          let labels =
            List.filter
              (fun (k, _) ->
                not (List.mem k [ "metric"; "window"; "step"; "agg" ]))
              params
          in
          let points =
            Tsdb.range Tsdb.default ~labels ~step_s ~window_s ~agg metric
          in
          respond ~content_type:"application/json"
            (Json.to_string
               (Json.Obj
                  [
                    ("metric", Json.Str metric);
                    ("agg", Json.Str (Tsdb.agg_to_string agg));
                    ("window_s", Json.Num window_s);
                    ("step_s", Json.Num step_s);
                    ( "points",
                      Json.Arr
                        (List.map
                           (fun (ts, v) ->
                             Json.Arr
                               [
                                 Json.Num ts;
                                 (match v with
                                 | None -> Json.Null
                                 | Some v -> Json.Num v);
                               ])
                           points) );
                  ])))

let index_body =
  "ndq server\n\
   /query?q=<query>[&deadline_ms=<n>]  evaluate (GET, or POST with the query as body)\n\
   /metrics    OpenMetrics exposition (exemplars link to retained traces)\n\
   /healthz    liveness, workers, queue, sessions, uptime, journal sink\n\
   /alerts     alert rules, states and transition history (JSON)\n\
   /slowlog    slow queries with retained traces (JSON lines, slowest first)\n\
   /trace      retained traces, newest first (JSON summaries)\n\
   /trace/<n>  one trace as Chrome trace-event JSON (n, trace id or 'last')\n\
   /tail       tail-sampled retained traces (JSON)\n\
   /range      flight-recorder range query: ?metric=NAME&agg=p99&window=300\n\
   /dashboard  live dashboard (self-contained HTML, inline SVG sparklines)\n\
   /planstats  plan-quality observatory: q-error summaries + calibration\n\
   /workload   top plans by wall time (count, io, cache hit rate, worst q)\n\
   \n\
   Line protocol: connect and send one query per line; rows stream\n\
   back, each response ends with a `# status=...` trailer.\n"

(* The introspection half of /healthz; the server appends its own
   fields (workers, queue, sessions, uptime, request count). *)
let healthz_fields () =
  [
    ("status", Json.Str "ok");
    ( "journal",
      Json.Obj
        ([ ("enabled", Json.Bool (Qlog.enabled ())) ]
        @ (match Qlog.path () with
          | None -> []
          | Some p -> [ ("path", Json.Str p) ])
        @ [
            ("sink_bytes", Json.Num (float_of_int (Qlog.sink_bytes ())));
            ( "max_bytes",
              match Qlog.max_bytes () with
              | None -> Json.Null
              | Some n -> Json.Num (float_of_int n) );
            ("max_files", Json.Num (float_of_int (Qlog.max_files ())));
          ]) );
    ( "alerts_firing",
      Json.Num (float_of_int (List.length (Alerts.firing Alerts.default))) );
  ]

(* The built-in routes on the bare path, the query string already
   parsed into [params]; [None] means the path is not ours. *)
let route ~registry path params =
  let json j =
    Some (respond ~content_type:"application/json" (Json.to_string j))
  in
  match path with
  | "/" -> Some (respond index_body)
  | "/metrics" ->
      Some
        (respond ~content_type:Promexp.content_type_openmetrics
           (Promexp.to_openmetrics registry))
  | "/range" -> Some (range_response params)
  | "/dashboard" ->
      Some (respond ~content_type:"text/html; charset=utf-8" (Dashboard.page ()))
  | "/tail" -> json (tail_json ())
  | "/alerts" -> json (Alerts.to_json Alerts.default)
  | "/slowlog" ->
      Some (respond ~content_type:"application/x-ndjson" (slowlog_jsonl ()))
  | "/planstats" -> json (Planstats.to_json Planstats.default)
  | "/workload" -> json (Planstats.workload_json Planstats.default)
  | "/trace" | "/trace/" -> json (trace_summaries ())
  | path when String.length path > 7 && String.sub path 0 7 = "/trace/" -> (
      let sel = String.sub path 7 (String.length path - 7) in
      match find_trace sel with
      | Some span ->
          Some
            (respond ~content_type:"application/json"
               (Chrome_trace.to_string [ span ]))
      | None -> Some (respond ~status:404 (Printf.sprintf "no trace %S\n" sel)))
  | _ -> None

(* --- HTTP plumbing -------------------------------------------------------- *)

(* Self-metrics label the first path segment only (so /trace/<n> stays
   one series) and the response status; the introspection surface
   observing itself is the first thing an operator checks when scrapes
   look wrong. *)
let route_label path =
  match String.index_from_opt path 1 '/' with
  | Some i -> String.sub path 0 i
  | None -> path
  | exception Invalid_argument _ -> path

let observe ~registry ~path ~status ~ns =
  let route = route_label path in
  Metrics.incr
    (Metrics.counter ~registry
       ~help:"requests served by the introspection routes"
       ~labels:[ ("route", route); ("status", string_of_int status) ]
       "monitor_requests_total");
  Metrics.observe_ns
    (Metrics.histogram ~registry
       ~help:"wall nanoseconds per introspection request"
       ~labels:[ ("route", route) ]
       "monitor_request_ns")
    ns

(* The response head alone: streamed /query responses send a head with
   no [Content-Length] (the body is EOF-delimited) followed by rows as
   they are produced. *)
let http_head ?(content_type = "text/plain; charset=utf-8") ?(headers = [])
    ?content_length status =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  (match content_length with
  | Some n -> Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n" n)
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b "Connection: close\r\n\r\n";
  Buffer.contents b

(* The one socket writer: every byte the server and its clients send
   goes through here.  [Unix.write_substring] writes from the string
   itself, with no intermediate copy.  [false] once the peer is gone. *)
let write_all fd s =
  let len = String.length s in
  let rec go off =
    off >= len
    || (let n = Unix.write_substring fd s off (len - off) in
        n > 0 && go (off + n))
  in
  try go 0 with Unix.Unix_error _ -> false

let write_response fd ~head_only { status; content_type; body } =
  let head =
    http_head ~content_type ~content_length:(String.length body) status
  in
  ignore (write_all fd (if head_only then head else head ^ body))

(* --- A minimal loopback client ---------------------------------------------- *)

(* Enough HTTP to scrape our own endpoint (the bench harness does, and
   the tests): send one request, read to EOF, split status line,
   headers and body.  Header names come back lowercased.  [body] turns
   the request into one carrying a payload (the serving front-end's
   POST /query). *)
let request ?(host = "127.0.0.1") ?(meth = "GET") ?body ~port path =
  let addr = Unix.inet_addr_of_string host in
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.;
      Unix.setsockopt_float s Unix.SO_SNDTIMEO 5.;
      Unix.connect s (Unix.ADDR_INET (addr, port));
      let req =
        match body with
        | None ->
            Printf.sprintf
              "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" meth
              path host
        | Some payload ->
            Printf.sprintf
              "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
              meth path host (String.length payload) payload
      in
      ignore (write_all s req);
      let b = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read s chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      let text = Buffer.contents b in
      let status =
        match String.split_on_char ' ' text with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      let header_end =
        let rec find i =
          if i + 3 >= String.length text then String.length text
          else if
            text.[i] = '\r' && text.[i + 1] = '\n' && text.[i + 2] = '\r'
            && text.[i + 3] = '\n'
          then i
          else find (i + 1)
        in
        find 0
      in
      let headers =
        match String.split_on_char '\n' (String.sub text 0 header_end) with
        | [] -> []
        | _status_line :: rest ->
            List.filter_map
              (fun line ->
                match String.index_opt line ':' with
                | None -> None
                | Some i ->
                    Some
                      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                        String.trim
                          (String.sub line (i + 1) (String.length line - i - 1))
                      ))
              rest
      in
      let body =
        let start = min (String.length text) (header_end + 4) in
        String.sub text start (String.length text - start)
      in
      (status, headers, body))

let get ?host ~port path =
  let status, _, body = request ?host ~port path in
  (status, body)
