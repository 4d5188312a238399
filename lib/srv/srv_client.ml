(* A minimal line-protocol client for the serving front-end — what the
   load generator and the tests speak.  One connection, pipelined
   strictly (send a line, read rows until the trailer). *)

exception Disconnected

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;  (* one read buffer for the connection's lifetime *)
  mutable eof : bool;
}

type status = Ok | Deadline | Busy of int | Error of string

type reply = { rows : string list; status : status; wall_us : int }

let connect ?(host = "127.0.0.1") ?(timeout_s = 10.) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; buf = Buffer.create 256; chunk = Bytes.create 4096; eof = false }

let close t =
  ignore (Monitor.write_all t.fd "QUIT\n");
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  if not (Monitor.write_all t.fd (line ^ "\n")) then raise Disconnected

let read_line t =
  let rec go () =
    let text = Buffer.contents t.buf in
    match String.index_opt text '\n' with
    | Some i ->
        let line = String.sub text 0 i in
        Buffer.clear t.buf;
        Buffer.add_string t.buf
          (String.sub text (i + 1) (String.length text - i - 1));
        line
    | None -> (
        if t.eof then raise Disconnected;
        match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 ->
            t.eof <- true;
            raise Disconnected
        | n ->
            Buffer.add_subbytes t.buf t.chunk 0 n;
            go ()
        | exception Unix.Unix_error _ -> raise Disconnected)
  in
  go ()

(* `# status=ok rows=12 wall_us=345` etc.; msg is %S-quoted and last. *)
let parse_trailer line =
  let field key =
    let marker = key ^ "=" in
    let rec find i =
      if i + String.length marker > String.length line then None
      else if String.sub line i (String.length marker) = marker then
        let start = i + String.length marker in
        let stop =
          match String.index_from_opt line start ' ' with
          | Some j -> j
          | None -> String.length line
        in
        Some (String.sub line start (stop - start))
      else find (i + 1)
    in
    find 0
  in
  let int_field key = Option.bind (field key) int_of_string_opt in
  let wall_us = Option.value ~default:0 (int_field "wall_us") in
  match field "status" with
  | Some "ok" -> (Ok, wall_us)
  | Some "deadline" -> (Deadline, wall_us)
  | Some "busy" ->
      (Busy (Option.value ~default:1000 (int_field "retry_ms")), wall_us)
  | Some "error" ->
      let msg =
        match String.index_opt line '"' with
        | Some i -> (
            try Scanf.sscanf (String.sub line i (String.length line - i)) "%S"
                  (fun s -> s)
            with Scanf.Scan_failure _ | End_of_file -> "error")
        | None -> "error"
      in
      (Error msg, wall_us)
  | _ -> (Error ("bad trailer: " ^ line), wall_us)

let query t text =
  send t text;
  let rec collect rows =
    let line = read_line t in
    if String.length line >= 2 && String.sub line 0 2 = "# " then
      let status, wall_us = parse_trailer line in
      { rows = List.rev rows; status; wall_us }
    else collect (line :: rows)
  in
  collect []

let ping t =
  send t "PING";
  match read_line t with "PONG" -> true | _ -> false | exception Disconnected -> false

let set_deadline_ms t ms =
  send t (Printf.sprintf "DEADLINE %d" ms);
  match read_line t with "OK" -> true | _ -> false | exception Disconnected -> false
