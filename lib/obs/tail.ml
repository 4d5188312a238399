(* Tail-based trace sampling: force-trace everything, retain only what
   matters.

   Head sampling (decide before the query runs) can't catch a p99
   spike: the one trace you need is the one you didn't record.  The
   serving front-end instead runs every request traced — the span
   machinery is a few hundred ns per span, cheap next to evaluation —
   and hands the completed tree to [consider], which retains it only
   when the *outcome* earns it: slower than the threshold, errored,
   shed, deadline-expired, or picked by a seeded 1-in-N sample that
   keeps a baseline of normal traffic for comparison.

   Retention is budgeted in spans, not traces: span trees vary from a
   handful of nodes (a point read) to hundreds (a distributed fan-out),
   and what bounds memory is total nodes held.  Oldest traces evict
   first when the budget overflows, except the newest entry always
   survives admission.

   This is the one store of completed span trees.  The server, the
   engine and the distributed coordinator all feed it (the engine's
   subtree inside a served or coordinated query shares its trace id
   with the root), so [consider] dedups by trace id and keeps whichever
   tree has more spans — the root tree subsumes a subtree regardless of
   arrival order.  An offer may carry the journal event recorded for
   its query; the merged entry keeps an event if either offer had one,
   and the slowlog is the view of the entries holding one that were
   slow when retained. *)

type reason = Slow | Errored | Shed | Deadline | Sampled

let reason_to_string = function
  | Slow -> "slow"
  | Errored -> "errored"
  | Shed -> "shed"
  | Deadline -> "deadline"
  | Sampled -> "sampled"

type outcome = [ `Ok | `Error | `Shed | `Deadline ]

type retained = {
  r_trace_id : string;
  r_reason : reason;
  r_origin : string;  (* "srv" | "engine" | "dist" *)
  r_ts : float;  (* unix seconds at retention *)
  r_wall_ns : int;
  r_span : Trace.span;
  r_event : Qlog.event option;  (* the query's journal event, if journaled *)
  r_slow : bool;  (* [is_slow r_wall_ns] when retained *)
}

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

(* Newest first. *)
let store : retained list ref = ref []
let stored_spans = ref 0

let cfg_slow_threshold_ns = ref 50_000_000  (* 50ms *)
let cfg_sample_every = ref 997  (* prime, so it doesn't beat with round QPS *)
let cfg_budget_spans = ref 4096

(* Seeded xorshift64 for the 1-in-N baseline sample: deterministic
   across runs (same seed -> same kept requests), reseedable in tests. *)
let rng = ref 0x9e3779b97f4a7c15L

let reseed s = locked (fun () -> rng := Int64.logor 1L s)

let next_rand () =
  (* caller holds the lock *)
  let x = !rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  rng := x;
  x

let m_retained_by r origin =
  Metrics.counter ~help:"traces retained by the tail sampler"
    ~labels:[ ("reason", reason_to_string r); ("origin", origin) ]
    "srv_trace_sampled_total"

let g_spans =
  Metrics.gauge ~help:"span nodes held by the tail sampler (budget-bounded)"
    "trace_tail_retained_spans"

let set_slow_threshold_ns ns = cfg_slow_threshold_ns := max 0 ns
let slow_threshold_ns () = !cfg_slow_threshold_ns
let is_slow wall_ns = wall_ns >= !cfg_slow_threshold_ns

let set_sample_every n = cfg_sample_every := max 0 n
let sample_every () = !cfg_sample_every

let set_budget_spans n = cfg_budget_spans := max 1 n
let budget_spans () = !cfg_budget_spans

let retained_spans () = locked (fun () -> !stored_spans)
let retained_count () = locked (fun () -> List.length !store)
let retained () = locked (fun () -> !store)

let clear () =
  locked (fun () ->
      store := [];
      stored_spans := 0);
  Metrics.set g_spans 0.

let find trace_id =
  locked (fun () ->
      List.find_opt (fun r -> r.r_trace_id = trace_id) !store)

(* Evict oldest while over budget; the newest entry always survives. *)
let enforce_budget_unlocked () =
  let budget = !cfg_budget_spans in
  if !stored_spans > budget then begin
    let rec keep acc kept = function
      | [] -> List.rev acc
      | r :: rest ->
          let n = Trace.span_count r.r_span in
          if acc = [] || kept + n <= budget then
            keep (r :: acc) (kept + n) rest
          else begin
            stored_spans := !stored_spans - n;
            keep acc kept rest
          end
    in
    store := keep [] 0 !store
  end

let decide ~outcome ~wall_ns =
  (* caller holds the lock (for the rng) *)
  match outcome with
  | `Shed -> Some Shed
  | `Deadline -> Some Deadline
  | `Error -> Some Errored
  | `Ok ->
      if is_slow wall_ns then Some Slow
      else if
        !cfg_sample_every > 0
        && Int64.rem (Int64.logand (next_rand ()) Int64.max_int)
             (Int64.of_int !cfg_sample_every)
           = 0L
      then Some Sampled
      else None

let consider ?event ~origin ~outcome ~wall_ns (span : Trace.span) =
  let now = Unix.gettimeofday () in
  let verdict =
    locked (fun () ->
        match decide ~outcome ~wall_ns with
        | None -> None
        | Some reason ->
            let n = Trace.span_count span in
            let entry =
              {
                r_trace_id = span.Trace.trace_id;
                r_reason = reason;
                r_origin = origin;
                r_ts = now;
                r_wall_ns = wall_ns;
                r_span = span;
                r_event = event;
                r_slow = is_slow wall_ns;
              }
            in
            (match
               List.partition
                 (fun r -> r.r_trace_id = span.Trace.trace_id)
                 !store
             with
            | [], _ ->
                store := entry :: !store;
                stored_spans := !stored_spans + n
            | old :: _, rest ->
                (* same trace seen from another origin: keep the
                   bigger tree and an event from either offer, refresh
                   recency *)
                let old_n = Trace.span_count old.r_span in
                let big, small = if n >= old_n then (entry, old) else (old, entry) in
                let merged =
                  {
                    big with
                    r_ts = now;
                    r_event = (match big.r_event with None -> small.r_event | e -> e);
                    r_slow = big.r_slow || small.r_slow;
                  }
                in
                store := merged :: rest;
                stored_spans := !stored_spans - old_n + max n old_n);
            enforce_budget_unlocked ();
            Some reason)
  in
  (match verdict with
  | Some reason ->
      Metrics.incr (m_retained_by reason origin);
      Metrics.set g_spans (float_of_int (retained_spans ()))
  | None -> ());
  verdict

let slowlog_max = 64

let slowlog n =
  List.filter_map
    (fun r ->
      match r.r_event with Some ev when r.r_slow -> Some (r, ev) | _ -> None)
    (retained ())
  |> List.stable_sort (fun (_, a) (_, b) -> compare b.Qlog.wall_ns a.Qlog.wall_ns)
  |> List.filteri (fun i _ -> i < min n slowlog_max)
