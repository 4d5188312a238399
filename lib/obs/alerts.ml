(* The SLO alerting engine: a small rule language evaluated over a
   flight-recorder store and its Metrics registry on each tick.

   A rule names a condition over the registry —

     engine_query_ns p99 > 50ms for 3
     rate(engine_page_reads_total) / rate(engine_queries_total) > 40 for 2
     plan_drift_total increasing

   — and carries a Prometheus-style pending -> firing -> resolved state
   machine: the condition must hold for [for] consecutive ticks before
   the alert fires, and the first false tick resolves it.  Per-tick
   sources make resolution work over monotone instruments: [rate] is
   the counter's increment and a histogram quantile covers the
   observations that arrived *since the previous tick*, so a quiet
   system's latency alert goes back down instead of averaging over all
   history.  Those deltas are not computed here: a tick samples the
   Tsdb store once and reads the windows recorded since its previous
   tick, picked by window number, so the store's delta rules (counter
   resets, first sight) are the only ones.

   Evaluation is driven from outside — [tick] — because the right
   cadence belongs to the host: the shell ticks from the flight
   recorder's sampler thread, the bench harness ticks between
   experiments, the tests tick by hand.  Every state transition lands
   in a bounded history ring, and firing alerts export as Prometheus
   [ALERTS{alertname,severity}] gauges in the same registry the rules
   read, so a scraper sees them next to the series that tripped them.
   Silencing suppresses the export (and flags the rule in listings)
   without stopping the state machine. *)

type selector = { sel_name : string; sel_labels : (string * string) list }

type source =
  | Value of selector  (* a gauge's (or counter's) current value *)
  | Rate of selector  (* a counter's increment since the previous tick *)
  | Quantile of selector * float  (* quantile over the tick's windows *)
  | Windowed of source * float
      (* the same source over a trailing wall-clock window of N
         seconds, read from the flight recorder instead of the live
         registry: [over(60s)].  Never nested. *)

type term = Source of source | Ratio of source * source
type cmp = Gt | Ge | Lt | Le

type expr =
  | Threshold of term * cmp * float
  | Increasing of selector  (* grew since the previous tick *)

type rule = {
  name : string;
  severity : string;
  for_ticks : int;  (* consecutive true ticks before firing *)
  expr : expr;
  text : string;  (* the rule as written, for listings *)
}

type state = Inactive | Pending of int | Firing

let state_name = function
  | Inactive -> "inactive"
  | Pending _ -> "pending"
  | Firing -> "firing"

type transition = {
  tr_tick : int;
  tr_ts : float;  (* unix seconds *)
  tr_rule : string;
  tr_severity : string;
  tr_from : string;
  tr_to : string;  (* "firing", "pending", "resolved" *)
  tr_value : float;  (* the measured value at the transition *)
  tr_exemplar : string option;
      (* a trace id from a matching histogram's exemplars, captured
         when the rule went pending/firing — the slow request behind
         the alert, joinable via /trace/<id> *)
}

type t = {
  tsdb : Tsdb.t;  (* sampled each tick; its registry holds the rules' series *)
  mutable seen : int;  (* the store's newest window at the previous tick *)
  mutable rules : rule list;  (* in add order *)
  states : (string, state) Hashtbl.t;  (* by rule name *)
  values : (string, float) Hashtbl.t;  (* last measured value, by rule *)
  exemplars : (string, string) Hashtbl.t;  (* incident trace id, by rule *)
  silenced : (string, unit) Hashtbl.t;
  mutable history : transition list;  (* newest first, bounded *)
  mutable ticks : int;
}

let history_capacity = 256

(* Creation samples the store, so the first tick reads only what
   happened after it. *)
let create tsdb =
  Tsdb.sample tsdb;
  {
    tsdb;
    seen = Tsdb.seq tsdb;
    rules = [];
    states = Hashtbl.create 8;
    values = Hashtbl.create 8;
    exemplars = Hashtbl.create 4;
    silenced = Hashtbl.create 4;
    history = [];
    ticks = 0;
  }

(* --- The rule language ---------------------------------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Prometheus metric-name characters; anything else in a selector name
   is a typo (an unmatched [rate(], a stray operator). *)
let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let checked_name tok name =
  if not (valid_name name) then fail "selector %S: bad metric name" tok;
  name

(* [name] or [name{k=v,k2=v2}] (no spaces inside the braces). *)
let selector_of_token tok =
  match String.index_opt tok '{' with
  | None -> { sel_name = checked_name tok tok; sel_labels = [] }
  | Some i ->
      if tok.[String.length tok - 1] <> '}' then
        fail "selector %S: missing closing brace" tok;
      let name = checked_name tok (String.sub tok 0 i) in
      let inside = String.sub tok (i + 1) (String.length tok - i - 2) in
      let labels =
        if inside = "" then []
        else
          List.map
            (fun pair ->
              match String.index_opt pair '=' with
              | None -> fail "selector %S: label %S is not k=v" tok pair
              | Some j ->
                  ( String.sub pair 0 j,
                    String.sub pair (j + 1) (String.length pair - j - 1) ))
            (String.split_on_char ',' inside)
      in
      { sel_name = name; sel_labels = labels }

let quantile_of_token = function
  | "p50" -> Some 0.50
  | "p90" -> Some 0.90
  | "p95" -> Some 0.95
  | "p99" -> Some 0.99
  | _ -> None

(* Thresholds take duration suffixes (time series are in nanoseconds)
   and a bare [x] multiplier for ratio rules. *)
let number_of_token tok =
  let scaled suffix factor =
    let ls = String.length suffix and l = String.length tok in
    if l > ls && String.sub tok (l - ls) ls = suffix then
      Option.map
        (fun v -> v *. factor)
        (float_of_string_opt (String.sub tok 0 (l - ls)))
    else None
  in
  let candidates =
    [ ("ns", 1.); ("us", 1e3); ("ms", 1e6); ("s", 1e9); ("x", 1.) ]
  in
  match List.find_map (fun (s, f) -> scaled s f) candidates with
  | Some v -> Some v
  | None -> float_of_string_opt tok

(* The inner token of [over(...)]: seconds, with an optional [s] or
   [ms] suffix — [over(60s)], [over(500ms)], [over(30)]. *)
let window_of_token tok =
  let l = String.length tok in
  if l > 2 && String.sub tok (l - 2) 2 = "ms" then
    Option.map
      (fun v -> v /. 1000.)
      (float_of_string_opt (String.sub tok 0 (l - 2)))
  else if l > 1 && tok.[l - 1] = 's' then
    float_of_string_opt (String.sub tok 0 (l - 1))
  else float_of_string_opt tok

(* [over(60s)] after any source reads it from the flight recorder's
   trailing window instead of the live registry / per-tick delta. *)
let wrap_over (src, rest) =
  match rest with
  | tok :: rest'
    when String.length tok > 6
         && String.sub tok 0 5 = "over("
         && tok.[String.length tok - 1] = ')' -> (
      let inner = String.sub tok 5 (String.length tok - 6) in
      match window_of_token inner with
      | Some w when w > 0. -> (Windowed (src, w), rest')
      | _ -> fail "bad window %S" tok)
  | _ -> (src, rest)

let source_of_tokens toks =
  wrap_over
    (match toks with
    | [] -> fail "empty source"
    | tok :: rest
      when String.length tok > 6
           && String.sub tok 0 5 = "rate("
           && tok.[String.length tok - 1] = ')' ->
        ( Rate (selector_of_token (String.sub tok 5 (String.length tok - 6))),
          rest )
    | tok :: rest -> (
        let sel = selector_of_token tok in
        match rest with
        | q :: rest' when quantile_of_token q <> None ->
            (Quantile (sel, Option.get (quantile_of_token q)), rest')
        | _ -> (Value sel, rest)))

let cmp_of_token = function
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "<" -> Some Lt
  | "<=" -> Some Le
  | _ -> None

(* expr := source [/ source] cmp number | selector "increasing"
   rule text := expr ["for" N ["ticks"]] *)
let parse text =
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim text))
  in
  let expr_toks, for_ticks =
    let rec split acc = function
      | [ "for"; n ] | [ "for"; n; ("ticks" | "tick") ] -> (
          match int_of_string_opt n with
          | Some k when k >= 1 -> (List.rev acc, k)
          | _ -> fail "bad for-duration %S" n)
      | [] -> (List.rev acc, 1)
      | tok :: rest -> split (tok :: acc) rest
    in
    split [] tokens
  in
  match expr_toks with
  | [ sel; "increasing" ] -> (Increasing (selector_of_token sel), for_ticks)
  | _ -> (
      let src, rest = source_of_tokens expr_toks in
      let term, rest =
        match rest with
        | "/" :: rest' ->
            let src2, rest'' = source_of_tokens rest' in
            (Ratio (src, src2), rest'')
        | _ -> (Source src, rest)
      in
      match rest with
      | [ c; n ] -> (
          match (cmp_of_token c, number_of_token n) with
          | Some cmp, Some v -> (Threshold (term, cmp, v), for_ticks)
          | None, _ -> fail "bad comparison %S" c
          | _, None -> fail "bad threshold %S" n)
      | _ -> fail "cannot parse rule %S" text)

let add ?(severity = "warn") t ~name text =
  let expr, for_ticks = parse text in
  if List.exists (fun r -> r.name = name) t.rules then
    fail "duplicate rule name %S" name;
  let r = { name; severity; for_ticks; expr; text = String.trim text } in
  t.rules <- t.rules @ [ r ];
  Hashtbl.replace t.states name Inactive;
  r

let remove t name =
  let n = List.length t.rules in
  t.rules <- List.filter (fun r -> r.name <> name) t.rules;
  Hashtbl.remove t.states name;
  Hashtbl.remove t.values name;
  Hashtbl.remove t.exemplars name;
  Hashtbl.remove t.silenced name;
  List.length t.rules < n

let rules t = t.rules

(* --- Reading the registry and the store -------------------------------------- *)

(* All series whose labels include the selector's; summing the matches
   gives Prometheus-style aggregation over unnamed label dimensions
   (e.g. [engine_cache_query_ns] across its hit/miss series). *)
let matching_views export sel =
  match
    List.find_opt (fun f -> f.Metrics.fv_name = sel.sel_name) export
  with
  | None -> []
  | Some f ->
      List.filter_map
        (fun (labels, view) ->
          if
            List.for_all
              (fun (k, v) -> List.assoc_opt k labels = Some v)
              sel.sel_labels
          then Some view
          else None)
        f.Metrics.fv_series

let scalar_value views =
  match views with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun acc -> function
             | Metrics.V_counter c -> acc +. float_of_int c
             | Metrics.V_gauge g -> acc +. g
             | Metrics.V_histogram h -> acc +. h.Metrics.hv_sum)
           0. views)

(* One tick's evaluation environment: the live registry (read lazily,
   for plain values and exemplars) and the numbers of the store windows
   recorded since the previous tick. *)
type env = { export : Metrics.family_view list Lazy.t; seqs : int * int }

(* One store read as a single value: the tick's windows, or the
   trailing [over] seconds.  A series the store has no points for reads
   None — the rule simply is not in violation. *)
let read t env ?over sel agg =
  let seqs = if over = None then Some env.seqs else None in
  match
    Tsdb.range t.tsdb ~labels:sel.sel_labels ?seqs ?window_s:over
      ?step_s:over ~agg sel.sel_name
  with
  | [ (_, v) ] -> v
  | _ -> None

let source_value t env = function
  | Value sel -> scalar_value (matching_views (Lazy.force env.export) sel)
  | Rate sel -> read t env sel Tsdb.Sum
  | Quantile (sel, q) -> read t env sel (Tsdb.Quantile q)
  | Windowed (src, w) -> (
      (* over a trailing window [rate] is per second and a plain
         selector averages *)
      match src with
      | Value sel -> read t env ~over:w sel Tsdb.Avg
      | Rate sel -> read t env ~over:w sel Tsdb.Rate
      | Quantile (sel, q) -> read t env ~over:w sel (Tsdb.Quantile q)
      | Windowed _ -> fail "nested over() windows")

let term_value t env = function
  | Source s -> source_value t env s
  | Ratio (num, den) -> (
      match (source_value t env num, source_value t env den) with
      | Some n, Some d when d > 0. -> Some (n /. d)
      | _ -> None)

let compare_with cmp v threshold =
  match cmp with
  | Gt -> v > threshold
  | Ge -> v >= threshold
  | Lt -> v < threshold
  | Le -> v <= threshold

(* A rule whose sources cannot be evaluated (missing series, zero
   denominator, empty quantile window) is simply not in violation. *)
let eval_expr t env = function
  | Threshold (term, cmp, threshold) -> (
      match term_value t env term with
      | None -> (false, 0.)
      | Some v -> (compare_with cmp v threshold, v))
  | Increasing sel -> (
      match read t env sel Tsdb.Sum with
      | None -> (false, 0.)
      | Some grew -> (grew > 0., grew))

(* --- The state machine ----------------------------------------------------- *)

let truncate n l = List.filteri (fun i _ -> i < n) l

let push_transition t r ~from ~to_ ~value ~exemplar =
  t.history <-
    truncate history_capacity
      ({
         tr_tick = t.ticks;
         tr_ts = Unix.gettimeofday ();
         tr_rule = r.name;
         tr_severity = r.severity;
         tr_from = state_name from;
         tr_to = to_;
         tr_value = value;
         tr_exemplar = exemplar;
       }
      :: t.history)

(* The selectors a rule reads — where to look for an exemplar. *)
let rec sels_of_source = function
  | Value sel | Rate sel | Quantile (sel, _) -> [ sel ]
  | Windowed (src, _) -> sels_of_source src

let sels_of_expr = function
  | Threshold (Source s, _, _) -> sels_of_source s
  | Threshold (Ratio (a, b), _, _) -> sels_of_source a @ sels_of_source b
  | Increasing sel -> [ sel ]

(* The worst (largest-valued) exemplar among the histograms a rule
   reads: for a latency alert, the slowest recently-observed request —
   its trace id is what an operator wants to open first. *)
let exemplar_for env expr =
  let best = ref None in
  List.iter
    (fun sel ->
      List.iter
        (function
          | Metrics.V_histogram h ->
              List.iter
                (fun (_, ex) ->
                  match !best with
                  | Some b when b.Metrics.ex_value >= ex.Metrics.ex_value -> ()
                  | _ -> best := Some ex)
                h.Metrics.hv_exemplars
          | _ -> ())
        (matching_views (Lazy.force env.export) sel))
    (sels_of_expr expr);
  Option.map (fun ex -> ex.Metrics.ex_trace_id) !best

let alert_gauge t r =
  Metrics.gauge ~registry:(Tsdb.registry t.tsdb)
    ~help:"alert state by rule: 1 firing, 0 otherwise"
    ~labels:[ ("alertname", r.name); ("severity", r.severity) ]
    "ALERTS"

let is_silenced t name = Hashtbl.mem t.silenced name

let step t env r violated value =
  let old = Option.value ~default:Inactive (Hashtbl.find_opt t.states r.name) in
  let next =
    match (old, violated) with
    | Inactive, true -> if r.for_ticks <= 1 then Firing else Pending 1
    | Pending n, true -> if n + 1 >= r.for_ticks then Firing else Pending (n + 1)
    | Firing, true -> Firing
    | (Inactive | Pending _ | Firing), false -> Inactive
  in
  Hashtbl.replace t.states r.name next;
  Hashtbl.replace t.values r.name value;
  (* Escalations capture a fresh exemplar (the slowest recent request
     behind the violation); retreats carry the incident's exemplar out
     into the history, then drop it from the live table. *)
  let escalate to_ =
    let ex = exemplar_for env r.expr in
    (match ex with
    | Some id -> Hashtbl.replace t.exemplars r.name id
    | None -> ());
    push_transition t r ~from:old ~to_ ~value ~exemplar:ex
  in
  let retreat to_ =
    let ex = Hashtbl.find_opt t.exemplars r.name in
    Hashtbl.remove t.exemplars r.name;
    push_transition t r ~from:old ~to_ ~value ~exemplar:ex
  in
  (match (old, next) with
  | Inactive, Pending _ -> escalate "pending"
  | (Inactive | Pending _), Firing -> escalate "firing"
  | Firing, Inactive -> retreat "resolved"
  | Pending _, Inactive ->
      (* a flap that never fired: note the retreat, it is what the
         for-duration is there to absorb *)
      retreat "inactive"
  | _ -> ());
  Metrics.set (alert_gauge t r)
    (if next = Firing && not (is_silenced t r.name) then 1. else 0.)

let tick t =
  t.ticks <- t.ticks + 1;
  Tsdb.sample t.tsdb;
  let upto = Tsdb.seq t.tsdb in
  let export = lazy (Metrics.export (Tsdb.registry t.tsdb)) in
  let env = { export; seqs = (t.seen, upto) } in
  List.iter
    (fun r ->
      let violated, value = eval_expr t env r.expr in
      step t env r violated value)
    t.rules;
  t.seen <- upto

let ticks t = t.ticks
let state t name = Hashtbl.find_opt t.states name
let last_value t name = Hashtbl.find_opt t.values name

let firing t =
  List.filter
    (fun r -> Hashtbl.find_opt t.states r.name = Some Firing)
    t.rules

let history t = t.history
let last_exemplar t name = Hashtbl.find_opt t.exemplars name

let silence t name on =
  if not (List.exists (fun r -> r.name = name) t.rules) then false
  else begin
    if on then Hashtbl.replace t.silenced name ()
    else Hashtbl.remove t.silenced name;
    (* reflect the change in the exported gauge immediately *)
    List.iter
      (fun r ->
        if r.name = name then
          Metrics.set (alert_gauge t r)
            (if (not on) && Hashtbl.find_opt t.states name = Some Firing then 1.
             else 0.))
      t.rules;
    true
  end

let clear t =
  List.iter (fun r -> Metrics.set (alert_gauge t r) 0.) t.rules;
  t.rules <- [];
  Hashtbl.reset t.states;
  Hashtbl.reset t.values;
  Hashtbl.reset t.exemplars;
  Hashtbl.reset t.silenced;
  t.history <- [];
  t.ticks <- 0

(* --- Default rules ---------------------------------------------------------- *)

(* Service-level defaults for an interactive directory process.  The
   read-amplification band sits ~4x above the calibrated steady-state
   of the seeded workloads (tens of reads per query); latency gets a
   generous interactive bound.  [install_defaults] is idempotent. *)
let install_defaults t =
  if t.rules = [] then begin
    ignore
      (add t ~severity:"warn" ~name:"query-latency-p99"
         "engine_query_ns p99 > 250ms for 3");
    ignore
      (add t ~severity:"critical" ~name:"read-amplification"
         "rate(engine_page_reads_total) / rate(engine_queries_total) > 400 for 3");
    ignore
      (add t ~severity:"warn" ~name:"plan-drift" "plan_drift_total increasing");
    (* Serving SLOs: end-to-end latency (queue wait included) and the
       shed rate of the admission queue.  Quiet processes (no serving,
       or no traffic this tick) read 0/0 ratios and empty quantiles,
       which never fire. *)
    ignore
      (add t ~severity:"warn" ~name:"srv-latency-p99"
         "srv_request_ns p99 > 250ms for 3");
    ignore
      (add t ~severity:"critical" ~name:"srv-shed-rate"
         "rate(srv_shed_total) / rate(srv_requests_total) > 0.05 for 2");
    (* A sustained-latency rule over the flight recorder: the p99 of
       the last minute of recorded windows, not one tick's delta — a
       single slow query cannot trip it.  Evaluates to no-violation
       until the tsdb sampler has data. *)
    ignore
      (add t ~severity:"critical" ~name:"srv-latency-sustained"
         "srv_request_ns p99 over(60s) > 500ms for 2")
  end

(* --- Rendering --------------------------------------------------------------- *)

let transition_json tr =
  Json.Obj
    ([
       ("tick", Json.Num (float_of_int tr.tr_tick));
       ("ts", Json.Num tr.tr_ts);
       ("rule", Json.Str tr.tr_rule);
       ("severity", Json.Str tr.tr_severity);
       ("from", Json.Str tr.tr_from);
       ("to", Json.Str tr.tr_to);
       ("value", Json.Num tr.tr_value);
     ]
    @
    match tr.tr_exemplar with
    | Some id -> [ ("exemplar_trace_id", Json.Str id) ]
    | None -> [])

let rule_json t r =
  let st = Option.value ~default:Inactive (Hashtbl.find_opt t.states r.name) in
  Json.Obj
    ([
       ("name", Json.Str r.name);
       ("severity", Json.Str r.severity);
       ("expr", Json.Str r.text);
       ("for_ticks", Json.Num (float_of_int r.for_ticks));
       ("state", Json.Str (state_name st));
     ]
    @ (match st with
      | Pending n -> [ ("pending_ticks", Json.Num (float_of_int n)) ]
      | _ -> [])
    @ (match Hashtbl.find_opt t.values r.name with
      | Some v -> [ ("value", Json.Num v) ]
      | None -> [])
    @ (match Hashtbl.find_opt t.exemplars r.name with
      | Some id -> [ ("exemplar_trace_id", Json.Str id) ]
      | None -> [])
    @ if is_silenced t r.name then [ ("silenced", Json.Bool true) ] else [])

let to_json t =
  Json.Obj
    [
      ("ticks", Json.Num (float_of_int t.ticks));
      ("firing", Json.Num (float_of_int (List.length (firing t))));
      ("rules", Json.Arr (List.map (rule_json t) t.rules));
      ("history", Json.Arr (List.map transition_json t.history));
    ]

let pp_rule t ppf r =
  let st = Option.value ~default:Inactive (Hashtbl.find_opt t.states r.name) in
  Fmt.pf ppf "%-24s %-8s %-9s%s  %s%s" r.name r.severity (state_name st)
    (if is_silenced t r.name then " (silenced)" else "")
    r.text
    (match Hashtbl.find_opt t.values r.name with
    | Some v when st <> Inactive -> Printf.sprintf "  [value %.6g]" v
    | _ -> "")

let pp_transition ppf tr =
  Fmt.pf ppf "tick %-4d %-24s %-8s %s -> %s  [value %.6g]%s" tr.tr_tick
    tr.tr_rule tr.tr_severity tr.tr_from tr.tr_to tr.tr_value
    (match tr.tr_exemplar with
    | Some id -> "  trace " ^ id
    | None -> "")
