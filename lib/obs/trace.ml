(* Per-query span tracing.

   A span is one timed region of query processing (parse, plan, one
   operator's execution, one remote ship, ...).  Spans nest: opening a
   span while another is active makes it a child, so a traced query
   produces a tree mirroring the work actually done.  Each span carries
   wall-clock nanoseconds and, when an [Io_stats] sink is supplied, the
   page/message delta charged to that sink while the span was open
   (children included — this is the inclusive cost, like any
   distributed-tracing system).

   Distributed stitching: every span records the trace id of the query
   tree it belongs to and the actor (directory server) that did the
   work.  A root span opened with no enclosing {!with_trace_id} binding
   mints a fresh id; children inherit their parent's, so the
   coordinator's merge spans and every involved server's engine spans
   share one id and stitch into one causal tree (Dapper-style, scoped
   to this in-process simulation).  [Chrome_trace] renders the result
   with one lane per actor.

   Tracing is off by default and costs one branch per instrumentation
   point when off.  This module only records: a caller that wants the
   tree it just produced takes it from [with_span_out], and [Tail] is
   the one store that keeps completed trees.

   Ambient state — the open-span stack, the bound trace id and actor —
   is per thread: each serving worker builds its own span tree, with
   its own trace id, exactly as the single-threaded engine always did.
   The shared structures (the id stream and the thread-state table)
   sit behind one mutex. *)

type span = {
  name : string;
  detail : string;
  trace_id : string;  (* shared by every span of one query tree *)
  actor : string;  (* "" = the local process; server name when shipped *)
  start_ns : int;  (* Mclock reading when the span opened *)
  mutable elapsed_ns : int;
  mutable io : Io_stats.t;  (* delta while the span was open *)
  mutable alloc_bytes : int;  (* allocation-meter delta while open, inclusive *)
  mutable rows : int option;  (* result cardinality, when annotated *)
  mutable children : span list;  (* execution order once closed *)
}

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* One lock for everything threads share: the id stream and the
   per-thread state table.  Critical sections are a few words of
   mutation; the span bodies themselves run unlocked. *)
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

(* --- Trace ids and actors ------------------------------------------------ *)

(* Fresh ids come from a xorshift64 stream seeded per process, so ids
   from concurrently journaling processes don't collide. *)
let id_state = ref 0

let next_trace_id () =
  locked @@ fun () ->
  if !id_state = 0 then
    id_state :=
      (int_of_float (Unix.gettimeofday () *. 1e6) lxor (Unix.getpid () lsl 40))
      lor 1;
  let x = !id_state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  id_state := x;
  Printf.sprintf "%016x" (x land max_int)

(* --- Per-thread ambient state -------------------------------------------- *)

(* Each thread carries its own open-span stack and trace-id/actor
   bindings, keyed by [Thread.id] (unique over the process's life).
   Entries are dropped as soon as a thread's state returns to the
   default, so the table stays bounded by the threads actively tracing
   — a serving process churning through session threads doesn't
   accumulate garbage. *)
type tls = {
  mutable stack : span list;
  mutable bound_tid : string option;
  mutable bound_actor : string;
}

let tls_tbl : (int, tls) Hashtbl.t = Hashtbl.create 8

let get_tls () =
  locked @@ fun () ->
  let id = Thread.id (Thread.self ()) in
  match Hashtbl.find_opt tls_tbl id with
  | Some t -> t
  | None ->
      let t = { stack = []; bound_tid = None; bound_actor = "" } in
      Hashtbl.replace tls_tbl id t;
      t

let find_tls () =
  locked (fun () -> Hashtbl.find_opt tls_tbl (Thread.id (Thread.self ())))

let drop_if_default t =
  locked @@ fun () ->
  if t.stack = [] && t.bound_tid = None && t.bound_actor = "" then
    Hashtbl.remove tls_tbl (Thread.id (Thread.self ()))

let with_trace_id id f =
  let t = get_tls () in
  let saved = t.bound_tid in
  t.bound_tid <- Some id;
  Fun.protect
    ~finally:(fun () ->
      t.bound_tid <- saved;
      drop_if_default t)
    f

let with_actor name f =
  let t = get_tls () in
  let saved = t.bound_actor in
  t.bound_actor <- name;
  Fun.protect
    ~finally:(fun () ->
      t.bound_actor <- saved;
      drop_if_default t)
    f

let current_actor () =
  match find_tls () with Some t -> t.bound_actor | None -> ""

(* --- Recording ------------------------------------------------------------ *)

let current_trace_id () =
  match find_tls () with
  | None -> None
  | Some t -> (
      match t.bound_tid with
      | Some _ as s -> s
      | None -> ( match t.stack with s :: _ -> Some s.trace_id | [] -> None))

let set_rows n =
  match find_tls () with
  | None -> ()
  | Some t -> ( match t.stack with [] -> () | s :: _ -> s.rows <- Some n)

let with_span_out ?(detail = "") ?stats name f =
  if not !enabled_flag then (f (), None)
  else begin
    let t = get_tls () in
    let trace_id =
      match t.bound_tid with
      | Some id -> id
      | None -> (
          match t.stack with
          | parent :: _ -> parent.trace_id
          | [] -> next_trace_id ())
    in
    let span =
      {
        name;
        detail;
        trace_id;
        actor = t.bound_actor;
        start_ns = Mclock.now_ns ();
        elapsed_ns = 0;
        io = Io_stats.create ();
        alloc_bytes = 0;
        rows = None;
        children = [];
      }
    in
    let snap = Option.map Io_stats.copy stats in
    let parent = t.stack in
    t.stack <- span :: parent;
    let finish words =
      span.elapsed_ns <- Mclock.now_ns () - span.start_ns;
      (match (stats, snap) with
      | Some s, Some s0 -> span.io <- Io_stats.diff s s0
      | _ -> ());
      span.alloc_bytes <- Mclock.bytes_of_words words;
      (* children were pushed newest-first while open *)
      span.children <- List.rev span.children;
      t.stack <- parent;
      (match parent with
      | p :: _ -> p.children <- span :: p.children
      | [] -> ());
      drop_if_default t
    in
    (* Memory attribution mirrors the io delta: the allocation meter is
       monotonic and read right around [f], so open-minus-close is the
       inclusive allocation of [f]'s dynamic extent and nothing else. *)
    let alloc0 = Mclock.allocated_words () in
    match f () with
    | v ->
        finish (Mclock.allocated_words () - alloc0);
        (v, Some span)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish (Mclock.allocated_words () - alloc0);
        Printexc.raise_with_backtrace e bt
  end

let with_span ?detail ?stats name f = fst (with_span_out ?detail ?stats name f)

(* --- Inspection ------------------------------------------------------------- *)

let total_io s = Io_stats.total_io s.io

let rec depth s =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 s.children

let rec span_count s =
  1 + List.fold_left (fun acc c -> acc + span_count c) 0 s.children

let rec actors s =
  List.sort_uniq String.compare
    (s.actor :: List.concat_map actors s.children)

let pp_bytes ppf n =
  if n >= 1 lsl 20 then Fmt.pf ppf "%.1fMB" (float_of_int n /. 1048576.)
  else if n >= 1 lsl 10 then Fmt.pf ppf "%.1fkB" (float_of_int n /. 1024.)
  else Fmt.pf ppf "%dB" n

let rec pp_span ppf s =
  Fmt.pf ppf "@[<v2>%s%s%s  %a  [%sreads=%d writes=%d alloc=%a%s]%a@]" s.name
    (if s.actor = "" then "" else "@" ^ s.actor)
    (if s.detail = "" then "" else " " ^ s.detail)
    Mclock.pp_ns s.elapsed_ns
    (match s.rows with None -> "" | Some n -> Printf.sprintf "rows=%d " n)
    s.io.Io_stats.page_reads s.io.Io_stats.page_writes
    pp_bytes s.alloc_bytes
    (if s.io.Io_stats.messages > 0 then
       Printf.sprintf " msgs=%d bytes=%d" s.io.Io_stats.messages
         s.io.Io_stats.bytes_shipped
     else "")
    (fun ppf children ->
      List.iter (fun c -> Fmt.pf ppf "@,%a" pp_span c) children)
    s.children

let pp ppf s = Fmt.pf ppf "%a@." pp_span s
