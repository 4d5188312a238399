(* The traced run's spans: the benchmark wraps each layer call in a
   [Trace] span of its own, named after the public function it calls,
   under one root span (and one trace id) per request.  The engine's
   operator spans nest underneath.  Nothing in the library is
   instrumented for this; when tracing is off every wrapper is a plain
   application.

   A collector folds each finished request tree into per-name totals of
   self time (a span's duration minus the part of it its children
   cover) and keeps the first trees for the Chrome trace file. *)

open Ndq

(* One request: a fresh trace id and a root span.  [None] when tracing
   is off. *)
let request name f =
  if not (Trace.enabled ()) then (f (), None)
  else
    Trace.with_trace_id (Trace.next_trace_id ()) (fun () ->
        Trace.with_span_out name f)

(* The part of [s]'s interval covered by its children, overlaps
   counted once. *)
let coverage (s : Trace.span) =
  let lo = s.Trace.start_ns and hi = s.Trace.start_ns + s.Trace.elapsed_ns in
  let ivs =
    List.filter_map
      (fun (c : Trace.span) ->
        let a = max lo c.Trace.start_ns
        and b = min hi (c.Trace.start_ns + c.Trace.elapsed_ns) in
        if b > a then Some (a, b) else None)
      s.Trace.children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, upto) (a, b) ->
        let a = max a upto in
        if b > a then (acc + (b - a), b) else (acc, upto))
      (0, lo) ivs
  in
  covered

let self_ns s = max 0 (s.Trace.elapsed_ns - coverage s)

type agg = { mutable calls : int; mutable self : int; mutable total : int }

type t = {
  by_name : (string, agg) Hashtbl.t;
  sampled : (string, float list ref) Hashtbl.t;
      (* per-call durations (ms) of the names whose percentiles we report *)
  mutable requests : int;
  mutable kept : Trace.span list;  (* newest first *)
  mutable n_kept : int;
}

(* The first 2000 request trees go to the Chrome trace file: a pass
   covers tens of thousands of requests, and the file stays a few MB. *)
let keep = 2000

let create ~sampled () =
  let s = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace s n (ref [])) sampled;
  { by_name = Hashtbl.create 32; sampled = s; requests = 0; kept = []; n_kept = 0 }

let rec fold_tree t (s : Trace.span) =
  let a =
    match Hashtbl.find_opt t.by_name s.Trace.name with
    | Some a -> a
    | None ->
        let a = { calls = 0; self = 0; total = 0 } in
        Hashtbl.replace t.by_name s.Trace.name a;
        a
  in
  a.calls <- a.calls + 1;
  a.self <- a.self + self_ns s;
  a.total <- a.total + s.Trace.elapsed_ns;
  Option.iter
    (fun l -> l := (float_of_int s.Trace.elapsed_ns /. 1e6) :: !l)
    (Hashtbl.find_opt t.sampled s.Trace.name);
  List.iter (fold_tree t) s.Trace.children

(* Fold a finished tree in; [request:false] for trees that are not one
   of the workload's requests (they show in the table, not in the
   per-request means). *)
let add ?(request = true) t = function
  | None -> ()
  | Some s ->
      if request then t.requests <- t.requests + 1;
      fold_tree t s;
      if t.n_kept < keep then begin
        t.kept <- s :: t.kept;
        t.n_kept <- t.n_kept + 1
      end

let find t name = Hashtbl.find_opt t.by_name name

(* Mean per request, in microseconds, of the named spans' self time
   (summed over the names) or inclusive time. *)
let per_request_us t ~self names =
  if t.requests = 0 then 0.
  else
    let sum =
      List.fold_left
        (fun acc n ->
          match find t n with
          | Some a -> acc + if self then a.self else a.total
          | None -> acc)
        0 names
    in
    float_of_int sum /. 1e3 /. float_of_int t.requests

let samples t name =
  match Hashtbl.find_opt t.sampled name with
  | Some l -> Array.of_list !l
  | None -> [||]

(* The engine's operator span labels, by operator class. *)
let op_classes =
  [
    ("atomic", [ "atomic" ]);
    ("bool", [ "&"; "|"; "-" ]);
    ("hier", [ "p"; "c"; "a"; "d" ]);
    ("hier3", [ "ac"; "dc" ]);
    ("gsel", [ "g" ]);
    ("eref", [ "vd"; "dv" ]);
  ]

(* The per-layer table: every span name with its calls, self time and
   share of all traced time. *)
let pp_table ppf (workload, t) =
  let traced = float_of_int (max 1 (Hashtbl.fold (fun _ a n -> n + a.self) t.by_name 0)) in
  let rows =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)
  in
  Format.fprintf ppf "# %s per-layer self time over %d traced requests@." workload
    t.requests;
  Format.fprintf ppf "#   %-24s %9s %12s %14s %7s@." "span" "calls" "self_ms"
    "self_us/call" "share";
  List.iter
    (fun (name, a) ->
      Format.fprintf ppf "#   %-24s %9d %12.2f %14.2f %6.1f%%@." name a.calls
        (float_of_int a.self /. 1e6)
        (float_of_int a.self /. 1e3 /. float_of_int (max 1 a.calls))
        (100. *. float_of_int a.self /. traced))
    rows

let chrome_spans t = List.rev t.kept
