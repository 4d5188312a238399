(* The query journal: an append-only, JSON-lines record of every query
   the engine (or the distributed coordinator) evaluates.

   Where Metrics aggregates and Tail keeps the span trees worth
   keeping, the journal is the durable per-query account: query text, a
   normalized plan fingerprint, result cardinality, page reads/writes,
   wall-clock nanoseconds, outcome, and the per-operator cost rows
   lifted from the span tree.  A recording layer may promote a slow
   query to a full capture — the rendered span tree plus the rendered
   estimated plan.  The events stay with their trees in Tail, whose
   slowlog view the shell's [:slowlog] and /slowlog read.

   The module is a sink: instrumented layers call [record]; they decide
   what goes into an event (this keeps lib/obs free of any dependency
   on the query layers above it).  One journal per process, like the
   default metrics registry. *)

type op = {
  op_name : string;
  op_detail : string;
  op_rows : int option;  (* result cardinality, when the span was annotated *)
  op_reads : int;
  op_writes : int;
  op_ns : int;
  op_alloc : int option;  (* GC allocation delta, when the span carried one *)
  op_depth : int;  (* 0 = the query's root span *)
  op_est_rows : int option;  (* planner estimates, when the recording *)
  op_est_reads : int option;  (* layer joined the plan to the span tree *)
  op_est_writes : int option;
  op_path : string option;  (* access path an atomic took: index|scan|cache *)
}

type outcome = Ok | Failed of string

type capture = {
  span_text : string;  (* rendered span tree *)
  plan_text : string;  (* rendered estimated plan *)
}

type event = {
  seq : int;  (* monotonic per process *)
  ts : float;  (* unix seconds at record time *)
  query : string;
  fingerprint : string;  (* normalized plan fingerprint *)
  trace_id : string option;  (* stitches distributed events into one trace *)
  result_count : int;
  reads : int;
  writes : int;
  wall_ns : int;
  alloc_bytes : int option;  (* whole-query GC allocation delta *)
  outcome : outcome;
  est_card : int option;  (* whole-query planner estimates, when the *)
  est_reads : int option;  (* recording layer computed a plan *)
  est_writes : int option;
  cache : string option;  (* result-cache outcome: hit|miss|stale|bypass *)
  path : string option;  (* access paths the query's atomics took,
                            comma-joined distinct: index|scan|cache *)
  server : string option;  (* answering server, in distributed evaluation *)
  shipped : (string * int * int) list;  (* per-server (name, messages, bytes) *)
  ops : op list;  (* flattened span tree, preorder *)
  capture : capture option;  (* present iff the query was slow *)
}

(* --- Journal state -------------------------------------------------------- *)

let seq_counter = ref 0
let sink : (string * out_channel) option ref = ref None
let rotate_limit : int option ref = ref None
let rotate_files = ref 1
let current_server : string option ref = ref None

(* One lock over the whole journal: the serving front-end's workers
   record concurrently, and an interleaved JSON line (or two threads
   rotating the same generation) would corrupt the sink.  [record]
   holds it across the sequence assignment, the append, the rotation
   check and the subscriber fan-out, so an online
   consumer sees exactly the stream an offline replay reconstructs —
   in the same total order the sink received. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let enabled () = !sink <> None
let path () = Option.map fst !sink

let disable_unlocked () =
  match !sink with
  | None -> ()
  | Some (_, oc) ->
      close_out oc;
      sink := None;
      rotate_limit := None;
      rotate_files := 1

let disable () = locked disable_unlocked

let enable ?(append = true) ?max_bytes ?(max_files = 1) p =
  locked (fun () ->
      disable_unlocked ();
      let flags =
        [ Open_wronly; Open_creat; (if append then Open_append else Open_trunc) ]
      in
      sink := Some (p, open_out_gen flags 0o644 p);
      rotate_limit :=
        Option.map (max 1) max_bytes (* a 0 limit would rotate forever *);
      rotate_files := max 1 max_files)

(* Size-based rotation: once the journal passes the limit, the rotated
   generations shift up — <path>.N-1 becomes <path>.N for N down to 1,
   the generation past [max_files] is deleted, the live file becomes
   <path>.1 and a fresh file takes over — so the journal never holds
   more than ~(max_files + 1) x the limit on disk.  Checked after each
   append, so one oversized event still lands intact. *)
let maybe_rotate () =
  match (!sink, !rotate_limit) with
  | Some (p, oc), Some limit when pos_out oc >= limit ->
      close_out oc;
      let gen n = p ^ "." ^ string_of_int n in
      (try Sys.remove (gen !rotate_files) with Sys_error _ -> ());
      for n = !rotate_files - 1 downto 1 do
        try Sys.rename (gen n) (gen (n + 1)) with Sys_error _ -> ()
      done;
      (try Sys.rename p (gen 1) with Sys_error _ -> ());
      sink := Some (p, open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 p)
  | _ -> ()

(* Sink introspection for /healthz: current size and configured
   rotation limits. *)
let sink_bytes () =
  locked (fun () -> match !sink with Some (_, oc) -> pos_out oc | None -> 0)
let max_bytes () = !rotate_limit
let max_files () = !rotate_files

let with_server name f =
  let saved = !current_server in
  current_server := Some name;
  Fun.protect ~finally:(fun () -> current_server := saved) f

let clear () = locked (fun () -> seq_counter := 0)

(* --- Lifting per-operator rows from a span tree ----------------------------- *)

let ops_of_span span =
  let rec go depth (s : Trace.span) acc =
    let row =
      {
        op_name = s.Trace.name;
        op_detail = s.Trace.detail;
        op_rows = s.Trace.rows;
        op_reads = s.Trace.io.Io_stats.page_reads;
        op_writes = s.Trace.io.Io_stats.page_writes;
        op_ns = s.Trace.elapsed_ns;
        op_alloc = Some s.Trace.alloc_bytes;
        op_depth = depth;
        op_est_rows = None;
        op_est_reads = None;
        op_est_writes = None;
        op_path = None;
      }
    in
    List.fold_left (fun acc c -> go (depth + 1) c acc) (row :: acc)
      s.Trace.children
  in
  List.rev (go 0 span [])

(* --- JSON encoding / decoding ------------------------------------------------- *)

(* Optional fields are omitted when absent, so journals written before
   a field existed parse identically to ones where the recording layer
   supplied nothing. *)
let opt_int name = function
  | None -> []
  | Some n -> [ (name, Json.Num (float_of_int n)) ]

let opt_str name = function None -> [] | Some v -> [ (name, Json.Str v) ]

let read_opt read name j =
  match Json.member name j with Json.Null -> None | v -> Some (read v)

let read_opt_int = read_opt Json.to_int
let read_opt_str = read_opt Json.str

let op_to_json o =
  Json.Obj
    ([ ("op", Json.Str o.op_name) ]
    @ (if o.op_detail = "" then [] else [ ("detail", Json.Str o.op_detail) ])
    @ opt_int "rows" o.op_rows
    @ [
        ("reads", Json.Num (float_of_int o.op_reads));
        ("writes", Json.Num (float_of_int o.op_writes));
        ("ns", Json.Num (float_of_int o.op_ns));
        ("depth", Json.Num (float_of_int o.op_depth));
      ]
    @ opt_int "alloc" o.op_alloc
    @ opt_int "est_rows" o.op_est_rows
    @ opt_int "est_reads" o.op_est_reads
    @ opt_int "est_writes" o.op_est_writes
    @ opt_str "path" o.op_path)

let to_json ev =
  Json.Obj
    ([
       ("seq", Json.Num (float_of_int ev.seq));
       ("ts", Json.Num ev.ts);
       ("query", Json.Str ev.query);
       ("fingerprint", Json.Str ev.fingerprint);
     ]
    @ opt_str "trace_id" ev.trace_id
    @ [
       ( "outcome",
         Json.Str (match ev.outcome with Ok -> "ok" | Failed _ -> "error") );
     ]
    @ (match ev.outcome with
      | Ok -> []
      | Failed msg -> [ ("error", Json.Str msg) ])
    @ [
        ("result_count", Json.Num (float_of_int ev.result_count));
        ("reads", Json.Num (float_of_int ev.reads));
        ("writes", Json.Num (float_of_int ev.writes));
        ("wall_ns", Json.Num (float_of_int ev.wall_ns));
      ]
    @ opt_int "alloc_bytes" ev.alloc_bytes
    @ opt_int "est_card" ev.est_card
    @ opt_int "est_reads" ev.est_reads
    @ opt_int "est_writes" ev.est_writes
    @ opt_str "cache" ev.cache
    @ opt_str "path" ev.path
    @ opt_str "server" ev.server
    @ (match ev.shipped with
      | [] -> []
      | shipped ->
          [
            ( "shipped",
              Json.Arr
                (List.map
                   (fun (name, msgs, bytes) ->
                     Json.Obj
                       [
                         ("server", Json.Str name);
                         ("messages", Json.Num (float_of_int msgs));
                         ("bytes", Json.Num (float_of_int bytes));
                       ])
                   shipped) );
          ])
    @ (match ev.ops with
      | [] -> []
      | ops -> [ ("ops", Json.Arr (List.map op_to_json ops)) ])
    @
    match ev.capture with
    | None -> []
    | Some c ->
        [
          ( "capture",
            Json.Obj
              [ ("span", Json.Str c.span_text); ("plan", Json.Str c.plan_text) ]
          );
        ])

let op_of_json j =
  {
    op_name = Json.str (Json.member "op" j);
    op_detail = Json.str (Json.member "detail" j);
    op_rows = read_opt_int "rows" j;
    op_reads = Json.to_int (Json.member "reads" j);
    op_writes = Json.to_int (Json.member "writes" j);
    op_ns = Json.to_int (Json.member "ns" j);
    op_alloc = read_opt_int "alloc" j;
    op_depth = Json.to_int (Json.member "depth" j);
    op_est_rows = read_opt_int "est_rows" j;
    op_est_reads = read_opt_int "est_reads" j;
    op_est_writes = read_opt_int "est_writes" j;
    op_path = read_opt_str "path" j;
  }

let of_json j =
  {
    seq = Json.to_int (Json.member "seq" j);
    ts = Json.to_float (Json.member "ts" j);
    query = Json.str (Json.member "query" j);
    fingerprint = Json.str (Json.member "fingerprint" j);
    trace_id = read_opt_str "trace_id" j;
    result_count = Json.to_int (Json.member "result_count" j);
    reads = Json.to_int (Json.member "reads" j);
    writes = Json.to_int (Json.member "writes" j);
    wall_ns = Json.to_int (Json.member "wall_ns" j);
    alloc_bytes = read_opt_int "alloc_bytes" j;
    est_card = read_opt_int "est_card" j;
    est_reads = read_opt_int "est_reads" j;
    est_writes = read_opt_int "est_writes" j;
    outcome =
      (match Json.str (Json.member "outcome" j) with
      | "error" -> Failed (Json.str (Json.member "error" j))
      | _ -> Ok);
    cache = read_opt_str "cache" j;
    path = read_opt_str "path" j;
    server = read_opt_str "server" j;
    shipped =
      List.map
        (fun s ->
          ( Json.str (Json.member "server" s),
            Json.to_int (Json.member "messages" s),
            Json.to_int (Json.member "bytes" s) ))
        (Json.arr (Json.member "shipped" j));
    ops = List.map op_of_json (Json.arr (Json.member "ops" j));
    capture =
      (match Json.member "capture" j with
      | Json.Null -> None
      | c ->
          Some
            {
              span_text = Json.str (Json.member "span" c);
              plan_text = Json.str (Json.member "plan" c);
            });
  }

let load p =
  let text = In_channel.with_open_text p In_channel.input_all in
  List.map of_json (Json.lines text)

(* --- Recording ------------------------------------------------------------------ *)

let m_events =
  Metrics.counter ~help:"query-journal events recorded" "qlog_events_total"

let m_slow =
  Metrics.counter ~help:"journal events promoted to slow-query captures"
    "qlog_slow_total"

(* The subscribers: every recorded event flows through each of them
   exactly once (journaled or not), under the journal lock, so an
   online consumer — a plan-quality store — sees precisely the stream
   an offline replay of the journal would reconstruct.  A subscription
   is its own record, so two subscriptions of one function stay two. *)
type subscription = { notify : event -> unit }

let subscribers : subscription list ref = ref []

let subscribe notify =
  let s = { notify } in
  locked (fun () -> subscribers := !subscribers @ [ s ]);
  s

let unsubscribe s =
  locked (fun () -> subscribers := List.filter (fun x -> x != s) !subscribers)

let record ?cache ?path ?server ?trace_id ?(shipped = []) ?(ops = []) ?capture
    ?alloc_bytes ?est_card ?est_reads ?est_writes ~query ~fingerprint
    ~result_count ~reads ~writes ~wall_ns ~outcome () =
  locked @@ fun () ->
  incr seq_counter;
  let server = match server with Some _ as s -> s | None -> !current_server in
  let ev =
    {
      seq = !seq_counter;
      ts = Unix.gettimeofday ();
      query;
      fingerprint;
      trace_id;
      result_count;
      reads;
      writes;
      wall_ns;
      alloc_bytes;
      outcome;
      est_card;
      est_reads;
      est_writes;
      cache;
      path;
      server;
      shipped;
      ops;
      capture;
    }
  in
  Metrics.incr m_events;
  (match !sink with
  | Some (_, oc) ->
      output_string oc (Json.to_string (to_json ev));
      output_char oc '\n';
      flush oc;
      maybe_rotate ()
  | None -> ());
  if ev.capture <> None then Metrics.incr m_slow;
  List.iter (fun s -> s.notify ev) !subscribers;
  ev

(* --- Rendering -------------------------------------------------------------------- *)

let pp_event ppf ev =
  Fmt.pf ppf "#%d %a %s  [rows=%d reads=%d writes=%d]%s%s%s  %s"
    ev.seq Mclock.pp_ns ev.wall_ns
    (match ev.outcome with Ok -> "ok" | Failed m -> "ERROR " ^ m)
    ev.result_count ev.reads ev.writes
    (match ev.cache with None -> "" | Some c -> "  cache=" ^ c)
    ((match ev.path with None -> "" | Some p -> "  path=" ^ p)
    ^ match ev.server with None -> "" | Some s -> "  @" ^ s)
    (" plan=" ^ ev.fingerprint)
    ev.query
