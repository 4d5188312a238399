(* The served workload's two processes.

   The server runs in a child process (the benchmark re-executes itself
   with [--serve-child]), so the load generator's thread never competes
   with the server's threads for the OCaml runtime lock.  The child
   builds the same seeded instance, starts [Srv] with 2 workers and a
   64-slot queue (no journal, Tsdb or monitor), and reports its port and
   set-up time on its stdout.  It answers [HEAP] with its peak heap and
   stops on [STOP] or when its stdin closes, so it cannot outlive the
   benchmark.  The parent reaps it on every exit path.

   The client speaks the line protocol over 2 connections from one
   thread: it sends each request at its due time (open loop) or keeps a
   fixed window outstanding per connection (closed loop), and reads the
   pipelined responses with [select]. *)

open Ndq

let now = Bstats.now

(* --- The child ------------------------------------------------------------ *)

let workers = 2
let queue = 64

(* Start a server and wait until both worker engines are built and the
   port answers PING: the set-up a client waits for. *)
let start_ready inst =
  let m = Mutex.create () and c = Condition.create () and built = ref 0 in
  let t0 = now () in
  let srv =
    Srv.start ~workers ~queue
      ~make_engine:(fun () ->
        let e = Engine.create ~block:64 inst in
        Mutex.lock m;
        incr built;
        Condition.broadcast c;
        Mutex.unlock m;
        e)
      ()
  in
  Mutex.lock m;
  while !built < workers do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let conn = Srv_client.connect ~port:(Srv.port srv) () in
  let ok = Srv_client.ping conn in
  Srv_client.close conn;
  if not ok then failwith "server did not answer PING";
  (srv, now () -. t0)

let top_heap_bytes () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

let child_main ~seed ~size ~setups =
  (* never outlive a wedged parent by long *)
  ignore (Unix.alarm 900);
  let inst = Inputs.dif ~seed ~size in
  let rec go k acc =
    let srv, s = start_ready inst in
    if k >= setups then (srv, List.rev (s :: acc))
    else begin
      Srv.stop srv;
      Gc.full_major ();
      go (k + 1) (s :: acc)
    end
  in
  let srv, times = go 1 [] in
  Printf.printf "READY %d %.9f %d\n%!" (Srv.port srv)
    (Bstats.median (Array.of_list times))
    (Unix.getpid ());
  let rec serve () =
    match In_channel.input_line stdin with
    | Some "HEAP" ->
        Printf.printf "HEAP %.0f\n%!" (top_heap_bytes ());
        serve ()
    | Some "STOP" | None -> ()
    | Some _ -> serve ()
  in
  serve ();
  Srv.stop srv

(* --- Supervising the child ---------------------------------------------- *)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  port : int;
  setup_s : float;
}

let live = ref []

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if now () > deadline then false
      else begin
        Unix.sleepf 0.02;
        wait_exit pid deadline
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline
  | exception Unix.Unix_error _ -> true

(* Wait for the child to exit on its own, else kill it; either way it
   is reaped before this returns. *)
let reap ?(grace = 5.) pid =
  if not (wait_exit pid (now () +. grace)) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit pid (now () +. 10.))
  end;
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          reap ~grace:2. pid)
        !live)

let read_line_within ic seconds =
  let fd = Unix.descr_of_in_channel ic in
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> failwith "server child: no answer"
  | _ -> (
      match In_channel.input_line ic with
      | Some l -> l
      | None -> failwith "server child exited")

let spawn ~seed ~size ~setups =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      exe; "--serve-child"; "--seed"; string_of_int seed; "--size";
      string_of_int size; "--setups"; string_of_int setups;
    |]
  in
  let pid = Unix.create_process exe args in_r out_w Unix.stderr in
  live := pid :: !live;
  Unix.close in_r;
  Unix.close out_w;
  let to_child = Unix.out_channel_of_descr in_w
  and from_child = Unix.in_channel_of_descr out_r in
  match
    Scanf.sscanf (read_line_within from_child 120.) "READY %d %f %d" (fun p s _ ->
        (p, s))
  with
  | port, setup_s -> { pid; to_child; from_child; port; setup_s }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      raise e

let heap_bytes c =
  output_string c.to_child "HEAP\n";
  flush c.to_child;
  Scanf.sscanf (read_line_within c.from_child 30.) "HEAP %f" Fun.id

let stop c =
  (try
     output_string c.to_child "STOP\n";
     flush c.to_child
   with Sys_error _ -> ());
  close_out_noerr c.to_child;
  reap c.pid;
  close_in_noerr c.from_child

(* Run [f] against a fresh child, which is stopped and reaped however
   [f] ends. *)
let with_child ~seed ~size ~setups f =
  let c = spawn ~seed ~size ~setups in
  Fun.protect ~finally:(fun () -> stop c) (fun () -> f c)

(* --- The client ----------------------------------------------------------- *)

type status = Pending | Ok | Busy | Deadline | Error | Lost

type req = {
  text : string;
  due : float;  (* scheduled send time; the send time in a closed loop *)
  mutable sent : float;
  mutable first : float;  (* first row, or the trailer when no rows *)
  mutable fin : float;  (* trailer received *)
  mutable nrows : int;
  mutable rows : string list;  (* newest first; only when [keep] *)
  keep : bool;
  mutable status : status;
  mutable wall_us : int;
}

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;
  chunk : Bytes.t;
  pending : req Queue.t;
  mutable dead : bool;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* the generator must not delay its own sends *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    acc = Buffer.create 65536;
    chunk = Bytes.create 65536;
    pending = Queue.create ();
    dead = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* `# status=ok rows=12 wall_us=345`, `# status=busy retry_ms=..`,
   `# status=error msg=".."` *)
let field line key =
  let marker = " " ^ key ^ "=" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then
      let start = i + m in
      let stop =
        match String.index_from_opt line start ' ' with Some j -> j | None -> n
      in
      Some (String.sub line start (stop - start))
    else find (i + 1)
  in
  find 0

let complete r line t =
  if Float.is_nan r.first then r.first <- t;
  r.fin <- t;
  r.wall_us <-
    Option.value ~default:0 (Option.bind (field line "wall_us") int_of_string_opt);
  if r.status = Pending then
    r.status <-
      (match field line "status" with
      | Some "ok" -> Ok
      | Some "busy" -> Busy
      | Some "deadline" -> Deadline
      | _ -> Error)

let on_line c line t =
  match Queue.peek_opt c.pending with
  | None -> ()
  | Some r ->
      if String.length line >= 2 && line.[0] = '#' && line.[1] = ' ' then begin
        complete r line t;
        ignore (Queue.pop c.pending)
      end
      else begin
        if Float.is_nan r.first then r.first <- t;
        r.nrows <- r.nrows + 1;
        if r.keep then r.rows <- line :: r.rows
      end

let fail_pending c =
  c.dead <- true;
  Queue.iter (fun r -> if r.status = Pending then r.status <- Lost) c.pending;
  Queue.clear c.pending

let on_readable c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> fail_pending c
  | n ->
      let t = now () in
      Buffer.add_subbytes c.acc c.chunk 0 n;
      let s = Buffer.contents c.acc in
      let rec lines from =
        match String.index_from_opt s from '\n' with
        | Some i ->
            on_line c (String.sub s from (i - from)) t;
            lines (i + 1)
        | None -> from
      in
      let rest = lines 0 in
      Buffer.clear c.acc;
      Buffer.add_substring c.acc s rest (String.length s - rest)
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error _ -> fail_pending c

let send c r =
  let b = Bytes.of_string (r.text ^ "\n") in
  r.sent <- now ();
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  if c.dead then r.status <- Lost
  else
    match go 0 with
    | () -> Queue.push r c.pending
    | exception Unix.Unix_error _ ->
        r.status <- Lost;
        fail_pending c

let outstanding conns =
  Array.fold_left (fun n c -> n + Queue.length c.pending) 0 conns

(* Read whatever arrives within [timeout] seconds. *)
let poll conns timeout =
  let fds =
    Array.to_list conns
    |> List.filter (fun c -> (not c.dead) && not (Queue.is_empty c.pending))
    |> List.map (fun c -> c.fd)
  in
  if fds = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    match Unix.select fds [] [] (Float.max 0. timeout) with
    | ready, _, _ ->
        Array.iter (fun c -> if List.memq c.fd ready then on_readable c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

type policy =
  | Open of float  (* arrivals per second, dealt round-robin *)
  | Closed of int  (* requests kept outstanding per connection *)

(* One phase of load.  Open loop: [count] arrivals, arrival k due at
   t0 + k/rate.  Closed loop: as many as the window allows for
   [seconds].  Requests still unanswered [grace] seconds after the last
   send are [Lost].  Texts are taken round-robin from [texts] starting
   at [first]; [keep k] says whether to keep request k's rows. *)
let phase conns ~policy ~seconds ~grace ~texts ~first ~keep =
  let n = Array.length conns and nt = Array.length texts in
  let t0 = now () +. 0.005 in
  let count =
    match policy with
    | Open rate -> max 1 (int_of_float (rate *. seconds))
    | Closed _ -> max_int
  in
  let t_send_end =
    match policy with
    | Open rate -> t0 +. (float_of_int (count - 1) /. rate)
    | Closed _ -> t0 +. seconds
  in
  let sent = ref [] and k = ref 0 in
  let make k due =
    let r =
      {
        text = texts.((first + k) mod nt);
        due;
        sent = nan;
        first = nan;
        fin = nan;
        nrows = 0;
        rows = [];
        keep = keep k;
        status = Pending;
        wall_us = 0;
      }
    in
    sent := r :: !sent;
    r
  in
  let rec loop () =
    let t = now () in
    (match policy with
    | Open rate ->
        while !k < count && t0 +. (float_of_int !k /. rate) <= t do
          let r = make !k (t0 +. (float_of_int !k /. rate)) in
          send conns.(!k mod n) r;
          incr k
        done
    | Closed w ->
        if t < t_send_end then
          Array.iter
            (fun c ->
              while (not c.dead) && Queue.length c.pending < w do
                let r = make !k t in
                send c r;
                incr k
              done)
            conns);
    let sending = match policy with Open _ -> !k < count | Closed _ -> t < t_send_end in
    let busy = outstanding conns > 0 in
    if (not sending) && not busy then ()
    else if (not sending) && t > t_send_end +. grace then
      (* give up on the stragglers; their connection is unusable now *)
      Array.iter (fun c -> if not (Queue.is_empty c.pending) then fail_pending c) conns
    else begin
      let timeout =
        match policy with
        | Open rate when sending -> t0 +. (float_of_int !k /. rate) -. t
        | Closed _ when sending -> Float.min 0.05 (t_send_end -. t)
        | _ -> Float.min 0.05 (t_send_end +. grace -. t)
      in
      poll conns timeout;
      loop ()
    end
  in
  loop ();
  (t0, Array.of_list (List.rev !sent))

(* --- Phase summaries --------------------------------------------------------- *)

let ms x = x *. 1e3

let ok r = r.status = Ok

(* Latency from the due time; a request that did not complete ok counts
   as missing every limit, so it sorts above every completed one. *)
let latencies_ms reqs =
  Array.map (fun r -> if ok r then ms (r.fin -. r.due) else infinity) reqs

let count p reqs = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 reqs

let failures reqs = count (fun r -> not (ok r)) reqs

let oks reqs = Array.of_list (List.filter ok (Array.to_list reqs))

let gen_late_ms reqs =
  Array.map (fun r -> ms (r.sent -. r.due)) (Array.of_list (List.filter (fun r -> not (Float.is_nan r.sent)) (Array.to_list reqs)))

let server_ms r = float_of_int r.wall_us /. 1e3
let client_ms r = ms (r.fin -. r.sent)
let wire_ms r = client_ms r -. server_ms r
let first_row_ms r = ms (r.first -. r.sent)
