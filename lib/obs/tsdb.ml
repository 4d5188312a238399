(* Flight recorder: a bounded in-process time-series store over the
   metrics registry.

   /metrics is a point-in-time snapshot; everything here adds the time
   dimension an operator actually needs during an incident: a sampler
   thread snapshots the registry on a fixed cadence (default 1s) and
   keeps the last N windows (default 3600 — an hour at 1s resolution)
   in a ring.  It is the obs layer's only clock: each sample first
   refreshes the Runtime gauges, and [start] may run a host's hook
   (an Alerts tick, which samples) in place of the bare sample.  Each
   window stores *deltas*, not cumulative state:

   - counters   -> the increment since the previous sample (a counter
                   reset — restart, Metrics.reset — shows up as a
                   negative delta and is taken as the new cumulative
                   value, i.e. "everything since the reset");
   - gauges     -> the sampled value;
   - histograms -> the per-bucket increments, count and sum deltas,
                   stored sparsely and only when the window actually
                   saw observations.

   Range queries ([rate], [sum], [avg], [min], [max], [quantile p])
   re-aggregate those deltas over [now - window, now] at a chosen step,
   or over a run of window numbers (an alert tick's "since my previous
   tick", immune to the wall clock), merging histogram bucket deltas so
   a per-window p99 is exact up to the registry's factor-of-two
   bucketing.  The whole store serializes
   to JSON-lines ([save]/[load]) with deterministic float rendering, so
   a bench run leaves a replayable series and save∘load∘save is
   byte-identical.

   Thread safety: one mutex per store guards the ring, the
   previous-cumulative tables and the sampler handle; [sample] and
   [range] interleave freely from the sampler thread and the server's
   session threads. *)

type labels = Metrics.labels

type key = string * labels

(* Per-window histogram delta: sparse bucket increments. *)
type hwin = {
  w_count : int;
  w_sum : float;
  w_buckets : (int * int) list;  (* bucket index -> increment, ascending *)
}

type point =
  | P_rate of float  (* counter increment over this window *)
  | P_gauge of float  (* gauge value at sample time *)
  | P_hist of hwin

type window = {
  w_ts : float;  (* unix seconds of the sample closing this window *)
  w_dt : float;  (* seconds the window covers *)
  w_points : (key * point) list;  (* registry order, preserved by save/load *)
}

(* Previous cumulative state, for delta computation. *)
type prev =
  | PC_counter of int
  | PC_hist of { pc_count : int; pc_sum : float; pc_cum : int array }

type sampler = {
  s_tick : unit -> unit;
  mutable s_running : bool;
  mutable s_thread : Thread.t option;
}

type t = {
  registry : Metrics.t;
  resolution_s : float;
  cap : int;
  ring : window option array;
  mutable head : int;  (* next slot to write *)
  mutable filled : int;
  mutable seq : int;  (* windows ever pushed: the newest's number *)
  prevs : (key, prev) Hashtbl.t;
  mutable last_ts : float;  (* 0. before the first sample *)
  mutable smp : sampler option;
  mu : Mutex.t;
}

let create ?(registry = Metrics.default) ?(resolution_s = 1.0) ?(capacity = 3600)
    () =
  if resolution_s <= 0. then
    invalid_arg "Tsdb.create: resolution must be positive";
  if capacity < 1 then invalid_arg "Tsdb.create: capacity must be >= 1";
  {
    registry;
    resolution_s;
    cap = capacity;
    ring = Array.make capacity None;
    head = 0;
    filled = 0;
    seq = 0;
    prevs = Hashtbl.create 64;
    last_ts = 0.;
    smp = None;
    mu = Mutex.create ();
  }

let default = create ()

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let capacity t = t.cap
let resolution_s t = t.resolution_s
let registry t = t.registry
let window_count t = locked t (fun () -> t.filled)
let seq t = locked t (fun () -> t.seq)

(* --- Sampling --------------------------------------------------------------- *)

let push t w =
  t.seq <- t.seq + 1;
  t.ring.(t.head) <- Some w;
  t.head <- (t.head + 1) mod t.cap;
  if t.filled < t.cap then t.filled <- t.filled + 1

let hist_delta prev (h : Metrics.hview) =
  let cum = h.Metrics.hv_cumulative in
  let n = Array.length cum in
  let prev_cum, prev_count, prev_sum =
    match prev with
    | Some (PC_hist p) when p.pc_count <= h.Metrics.hv_count ->
        (p.pc_cum, p.pc_count, p.pc_sum)
    (* first sight or registry reset: the whole current state is this
       window's increment *)
    | _ -> ([||], 0, 0.)
  in
  let w_count = h.Metrics.hv_count - prev_count in
  if w_count <= 0 then None
  else begin
    let at a i = if i >= 0 && i < Array.length a then a.(i) else 0 in
    let buckets = ref [] in
    for i = n - 1 downto 0 do
      let now_b = cum.(i) - if i = 0 then 0 else cum.(i - 1) in
      let then_b = at prev_cum i - if i = 0 then 0 else at prev_cum (i - 1) in
      let inc = now_b - then_b in
      if inc > 0 then buckets := (i, inc) :: !buckets
    done;
    Some { w_count; w_sum = h.Metrics.hv_sum -. prev_sum; w_buckets = !buckets }
  end

let sample t =
  Runtime.sample ();
  let now = Unix.gettimeofday () in
  let fams = Metrics.export t.registry in
  locked t @@ fun () ->
  let dt = if t.last_ts > 0. then now -. t.last_ts else t.resolution_s in
  let dt = if dt <= 0. then t.resolution_s else dt in
  let points = ref [] in
  List.iter
    (fun (f : Metrics.family_view) ->
      List.iter
        (fun (labels, v) ->
          let key = (f.Metrics.fv_name, labels) in
          match v with
          | Metrics.V_counter c ->
              let d =
                match Hashtbl.find_opt t.prevs key with
                | Some (PC_counter p) when p <= c -> c - p
                | _ -> c  (* first sight or counter reset *)
              in
              Hashtbl.replace t.prevs key (PC_counter c);
              points := (key, P_rate (float_of_int d)) :: !points
          | Metrics.V_gauge g -> points := (key, P_gauge g) :: !points
          | Metrics.V_histogram h ->
              let prev = Hashtbl.find_opt t.prevs key in
              let delta = hist_delta prev h in
              Hashtbl.replace t.prevs key
                (PC_hist
                   {
                     pc_count = h.Metrics.hv_count;
                     pc_sum = h.Metrics.hv_sum;
                     pc_cum = Array.copy h.Metrics.hv_cumulative;
                   });
              Option.iter
                (fun hw -> points := (key, P_hist hw) :: !points)
                delta)
        f.Metrics.fv_series)
    fams;
  push t { w_ts = now; w_dt = dt; w_points = List.rev !points };
  t.last_ts <- now

(* --- Range queries ------------------------------------------------------------ *)

type agg = Rate | Sum | Avg | Min | Max | Quantile of float

let agg_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "rate" -> Some Rate
  | "sum" -> Some Sum
  | "avg" | "mean" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | s when String.length s > 1 && s.[0] = 'p' -> (
      (* p50, p99, p999 -> 0.5, 0.99, 0.999 *)
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n when n >= 0 ->
          let digits = String.length s - 1 in
          Some (Quantile (float_of_int n /. (10. ** float_of_int digits)))
      | _ -> None)
  | _ -> None

let agg_to_string = function
  | Rate -> "rate"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Quantile q ->
      let s = Printf.sprintf "%g" (q *. 100.) in
      "p"
      ^ String.concat "" (String.split_on_char '.' s)

let labels_match ~want have =
  List.for_all (fun (k, v) -> List.assoc_opt k have = Some v) want

(* One aggregation bucket being accumulated across windows/series. *)
type accum = {
  mutable a_delta : float;  (* summed counter increments *)
  mutable a_dt : float;  (* summed window durations (counted once per window) *)
  mutable a_gsum : float;  (* gauge sum, for avg *)
  mutable a_gn : int;  (* gauge samples *)
  mutable a_min : float;
  mutable a_max : float;
  mutable a_hcount : int;
  mutable a_hsum : float;
  a_hbuckets : int array;  (* merged bucket increments *)
  mutable a_touched : bool;
}

let fresh_accum () =
  {
    a_delta = 0.;
    a_dt = 0.;
    a_gsum = 0.;
    a_gn = 0;
    a_min = infinity;
    a_max = neg_infinity;
    a_hcount = 0;
    a_hsum = 0.;
    a_hbuckets = Array.make Metrics.bucket_count 0;
    a_touched = false;
  }

let finish agg a =
  if not a.a_touched then None
  else
    match agg with
    | Rate -> if a.a_dt > 0. then Some (a.a_delta /. a.a_dt) else None
    | Sum ->
        Some
          (if a.a_gn > 0 then a.a_gsum
           else if a.a_hcount > 0 then a.a_hsum
           else a.a_delta)
    | Avg ->
        if a.a_gn > 0 then Some (a.a_gsum /. float_of_int a.a_gn)
        else if a.a_hcount > 0 then Some (a.a_hsum /. float_of_int a.a_hcount)
        else if a.a_dt > 0. then Some (a.a_delta /. a.a_dt)
        else None
    | Min -> if a.a_min < infinity then Some a.a_min else None
    | Max -> if a.a_max > neg_infinity then Some a.a_max else None
    | Quantile q -> Metrics.bucket_quantile a.a_hbuckets q

let feed a point =
  match point with
  | P_rate d ->
      a.a_touched <- true;
      a.a_delta <- a.a_delta +. d;
      if d < a.a_min then a.a_min <- d;
      if d > a.a_max then a.a_max <- d
  | P_gauge g ->
      a.a_touched <- true;
      a.a_gsum <- a.a_gsum +. g;
      a.a_gn <- a.a_gn + 1;
      if g < a.a_min then a.a_min <- g;
      if g > a.a_max then a.a_max <- g
  | P_hist h ->
      a.a_touched <- true;
      a.a_hcount <- a.a_hcount + h.w_count;
      a.a_hsum <- a.a_hsum +. h.w_sum;
      List.iter
        (fun (i, c) ->
          if i >= 0 && i < Metrics.bucket_count then
            a.a_hbuckets.(i) <- a.a_hbuckets.(i) + c)
        h.w_buckets

(* Windows oldest-first, or only those numbered [lo+1 .. hi]: found
   by position, since window number [t.seq] sits just before [head]. *)
let windows ?(seqs = (0, max_int)) t =
  locked t @@ fun () ->
  let lo = max (fst seqs) (t.seq - t.filled) and hi = min (snd seqs) t.seq in
  List.filter_map
    (fun k -> t.ring.((t.head - t.seq + lo + k + t.cap) mod t.cap))
    (List.init (max 0 (hi - lo)) Fun.id)

let range t ?(labels = []) ?step_s ?seqs ?window_s ~agg name =
  let now = Unix.gettimeofday () in
  (* [slot_of ts] is the bucket a window sampled at [ts] lands in, if
     any; [end_of i] stamps bucket [i]. *)
  let nsteps, slot_of, end_of =
    match window_s with
    | None -> (1, (fun _ -> Some 0), fun _ -> now)
    | Some window_s ->
        let step =
          match step_s with Some s when s > 0. -> s | _ -> t.resolution_s
        in
        let t0 = now -. window_s in
        let n = max 1 (int_of_float (ceil (window_s /. step))) in
        ( n,
          (fun ts ->
            if ts > t0 && ts <= now then
              Some (min (n - 1) (int_of_float ((ts -. t0) /. step)))
            else None),
          fun i -> t0 +. ((float_of_int i +. 1.) *. step) )
  in
  let accums = Array.init nsteps (fun _ -> fresh_accum ()) in
  List.iter
    (fun w ->
      match slot_of w.w_ts with
      | Some slot ->
          let a = accums.(slot) in
          let window_counted = ref false in
          List.iter
            (fun ((n, ls), p) ->
              if n = name && labels_match ~want:labels ls then begin
                if not !window_counted then begin
                  a.a_dt <- a.a_dt +. w.w_dt;
                  window_counted := true
                end;
                feed a p
              end)
            w.w_points
      | None -> ())
    (windows ?seqs t);
  Array.to_list (Array.mapi (fun i a -> (end_of i, finish agg a)) accums)

(* Series present anywhere in the ring: name -> kind ("rate"|"gauge"|"hist"),
   for the dashboard's metric listing. *)
let series t =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun w ->
      List.iter
        (fun ((n, _), p) ->
          let kind =
            match p with P_rate _ -> "rate" | P_gauge _ -> "gauge" | P_hist _ -> "hist"
          in
          if not (Hashtbl.mem seen n) then Hashtbl.replace seen n kind)
        w.w_points)
    (windows t);
  Hashtbl.fold (fun n k acc -> (n, k) :: acc) seen []
  |> List.sort compare

(* --- Persistence --------------------------------------------------------------- *)

(* JSON-lines: a header line, then one line per window oldest-first.
   Json.to_string renders floats with round-tripping precision and
   preserves field/element order, so load∘save is the identity on the
   serialized text (byte-identical round-trips, asserted in tests). *)

let json_of_labels ls =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)

let labels_of_json j =
  match j with
  | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.str v)) fields
  | _ -> []

let json_of_point ((name, ls), p) =
  let base = [ ("name", Json.Str name); ("labels", json_of_labels ls) ] in
  match p with
  | P_rate d -> Json.Obj (base @ [ ("kind", Json.Str "rate"); ("v", Json.Num d) ])
  | P_gauge g ->
      Json.Obj (base @ [ ("kind", Json.Str "gauge"); ("v", Json.Num g) ])
  | P_hist h ->
      Json.Obj
        (base
        @ [
            ("kind", Json.Str "hist");
            ("count", Json.Num (float_of_int h.w_count));
            ("sum", Json.Num h.w_sum);
            ( "buckets",
              Json.Arr
                (List.map
                   (fun (i, c) ->
                     Json.Arr [ Json.Num (float_of_int i); Json.Num (float_of_int c) ])
                   h.w_buckets) );
          ])

let point_of_json j =
  let name = Json.str (Json.member "name" j) in
  let ls = labels_of_json (Json.member "labels" j) in
  let p =
    match Json.str (Json.member "kind" j) with
    | "rate" -> P_rate (Json.to_float (Json.member "v" j))
    | "gauge" -> P_gauge (Json.to_float (Json.member "v" j))
    | "hist" ->
        P_hist
          {
            w_count = Json.to_int (Json.member "count" j);
            w_sum = Json.to_float (Json.member "sum" j);
            w_buckets =
              List.map
                (fun pair ->
                  match Json.arr pair with
                  | [ i; c ] -> (Json.to_int i, Json.to_int c)
                  | _ -> raise (Json.Parse_error "Tsdb: malformed bucket pair"))
                (Json.arr (Json.member "buckets" j));
          }
    | k -> raise (Json.Parse_error ("Tsdb: unknown point kind " ^ k))
  in
  ((name, ls), p)

let to_json_lines t =
  let ws = windows t in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Json.to_string
       (Json.Obj
          [
            ("tsdb", Json.Num 1.);
            ("resolution_s", Json.Num t.resolution_s);
            ("capacity", Json.Num (float_of_int t.cap));
          ]));
  Buffer.add_char b '\n';
  List.iter
    (fun w ->
      Buffer.add_string b
        (Json.to_string
           (Json.Obj
              [
                ("ts", Json.Num w.w_ts);
                ("dt", Json.Num w.w_dt);
                ("points", Json.Arr (List.map json_of_point w.w_points));
              ]));
      Buffer.add_char b '\n')
    ws;
  Buffer.contents b

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json_lines t))

let of_json_lines text =
  match Json.lines text with
  | [] -> raise (Json.Parse_error "Tsdb: empty document")
  | header :: rest ->
      if Json.member "tsdb" header = Json.Null then
        raise (Json.Parse_error "Tsdb: missing header line");
      let resolution_s = Json.to_float (Json.member "resolution_s" header) in
      let capacity = Json.to_int (Json.member "capacity" header) in
      let t = create ~resolution_s ~capacity () in
      List.iter
        (fun j ->
          let w =
            {
              w_ts = Json.to_float (Json.member "ts" j);
              w_dt = Json.to_float (Json.member "dt" j);
              w_points = List.map point_of_json (Json.arr (Json.member "points" j));
            }
          in
          push t w;
          t.last_ts <- w.w_ts)
        rest;
      t

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic n)
  in
  of_json_lines text

(* --- The sampler thread ------------------------------------------------------------ *)

let loop t s =
  (* sleep in short slices so [stop] returns promptly *)
  let rec nap remaining =
    if s.s_running && remaining > 0. then begin
      Thread.delay (Float.min remaining 0.05);
      nap (remaining -. 0.05)
    end
  in
  while s.s_running do
    (try s.s_tick () with _ -> ());
    nap t.resolution_s
  done

let start ?tick t =
  let s_tick = Option.value tick ~default:(fun () -> sample t) in
  let go =
    locked t (fun () ->
        match t.smp with
        | Some s when s.s_running -> None
        | _ ->
            let s = { s_tick; s_running = true; s_thread = None } in
            t.smp <- Some s;
            Some s)
  in
  match go with
  | None -> ()
  | Some s -> s.s_thread <- Some (Thread.create (fun () -> loop t s) ())

let running t =
  locked t (fun () -> match t.smp with Some s -> s.s_running | None -> false)

let stop t =
  let s = locked t (fun () -> t.smp) in
  match s with
  | Some s when s.s_running ->
      s.s_running <- false;
      Option.iter Thread.join s.s_thread;
      s.s_thread <- None;
      locked t (fun () -> t.smp <- None)
  | _ -> ()
