(* The query evaluation engine (Section 8.2).

   Bottom-up evaluation of the query tree: atomic queries are answered
   from the clustering dn-index (optionally assisted by per-attribute
   B-tree / trie indexes), producing lists sorted in the canonical
   reverse-dn order; every operator consumes and produces sorted lists,
   so no intermediate re-sorting ever happens — the invariant Theorem 8.3
   rests on, checked by experiment E15.

   One walker ([walk]) evaluates every tree: the engine's own queries,
   :explain's profile, the distributed coordinator and the fusion
   rewrite, which differ only in the leaf function that answers atomics
   (and any subtree they intercept).  Pipelined versus materialized
   evaluation is an edge policy inside that walker, not a second one. *)

(* How operator boundaries are handled (Theorem 8.3): [Materialized]
   writes every intermediate result to disk and re-reads it; [Streaming]
   fuses the whole tree into one pipeline, materializing only the root
   result, sort boundaries and double-consumed operands. *)
type mode = Materialized | Streaming

(* How atomic access paths are decided.  [Auto] is the cost-based
   planner: price index probe vs subtree scan vs cache hit per atomic
   (calibrated when a Planstats store is attached) and reorder boolean
   merges by estimated cardinality.  The forced modes pin every atomic
   to one path and skip reordering — the clean always-index /
   always-scan baselines the planner is benchmarked against. *)
type planner = Auto | Force_index | Force_scan

type t = {
  mutable instance : Instance.t;
  pager : Pager.t;
  mutable dn_index : Dn_index.t;
  attr_index : Attr_index.t option;  (* patched in place by refreshes *)
  pool : Buffer_pool.t option;  (* page cache behind the dn-index *)
  window : int;  (* in-memory pages for each operator's stack *)
  result_cache : Cache.t option;  (* semantic query-result cache *)
  mutable mode : mode;  (* default operator-boundary handling *)
  mutable planner : planner;
  mutable calib : Planstats.t option;  (* estimate corrections, if any *)
  directory : Directory.t option;  (* watched: its instance is the current one *)
  (* access paths taken by sub-scope atomics, for :planner / :top *)
  mutable n_path_index : int;
  mutable n_path_scan : int;
  mutable n_path_cache : int;
}

let m_path p =
  Metrics.counter ~help:"atomic access paths taken, by path"
    ~labels:[ ("path", p) ]
    "engine_atomic_path_total"

let m_path_index = m_path "index"
let m_path_scan = m_path "scan"
let m_path_cache = m_path "cache"

let m_refreshes =
  Metrics.counter ~help:"index refreshes after watched-directory updates"
    "engine_index_refreshes_total"

let create ?(block = 64) ?(window = 2) ?(with_attr_index = true)
    ?(cache_pages = 0) ?result_cache ?stats
    ?(mode = Streaming) ?(planner = Auto) ?directory instance =
  let stats = match stats with Some s -> s | None -> Io_stats.create () in
  let pager = Pager.create ~block stats in
  let pool =
    if cache_pages > 0 then Some (Buffer_pool.create ~capacity:cache_pages pager)
    else None
  in
  let dn_index = Dn_index.build ?pool pager instance in
  let attr_index =
    if with_attr_index then Some (Attr_index.build pager instance) else None
  in
  (* Index construction is setup cost, not query cost. *)
  Io_stats.reset stats;
  { instance; pager; dn_index; attr_index; pool; window; result_cache;
    mode; planner; calib = None; directory;
    n_path_index = 0; n_path_scan = 0; n_path_cache = 0 }

let stats t = Pager.stats t.pager

(* Bring both indexes up to date with a watched directory before they
   are read, so a post-update query through either path sees the new
   values.  When the directory's instance is no longer the engine's,
   [Instance.diff] skips the subtrees the two share and only the
   changed entries move their postings in the attribute index, in
   place; the dn-index, a view, takes the new instance.  Maintenance
   I/O is not query cost, so it is not left on the query counters. *)
let refresh_if_dirty t =
  match t.directory with
  | Some dir when Directory.instance dir != t.instance ->
      let s = stats t in
      let r0 = s.Io_stats.page_reads and w0 = s.Io_stats.page_writes in
      let instance = Directory.instance dir in
      Option.iter
        (fun idx ->
          Instance.diff t.instance instance ~removed:(Attr_index.remove_entry idx)
            ~added:(Attr_index.add_entry idx))
        t.attr_index;
      t.instance <- instance;
      t.dn_index <- Dn_index.build ?pool:t.pool t.pager instance;
      s.Io_stats.page_reads <- r0;
      s.Io_stats.page_writes <- w0;
      Metrics.incr m_refreshes
  | _ -> ()

let pager t = t.pager
let window t = t.window
let instance t = t.instance

let dn_index t =
  refresh_if_dirty t;
  t.dn_index

let attr_index t = t.attr_index
let cache t = t.pool
let result_cache t = t.result_cache
let reset_stats t = Io_stats.reset (stats t)
let mode t = t.mode
let set_mode t mode = t.mode <- mode
let planner t = t.planner
let set_planner t p = t.planner <- p
let calibration t = t.calib
let set_calibration t c = t.calib <- c
let path_counts t = (t.n_path_index, t.n_path_scan, t.n_path_cache)

(* --- Atomic queries ----------------------------------------------------- *)

(* The one pricing pass with the engine's handles, over its indexes as
   they stand: under [Auto] it also reorders boolean chains; forced
   modes pin every path and keep the tree as given. *)
let plan_as_is ?(reorder = true) ~mode t q =
  let force =
    match t.planner with
    | Force_index -> Some Plan.Index
    | Force_scan -> Some Plan.Scan
    | Auto -> None
  in
  Plan.plan ~pager:t.pager ~instance:t.instance ?attr_index:t.attr_index
    ?cache:t.result_cache ?calib:t.calib ~streaming:(mode = Streaming) ?force
    ~reorder:(reorder && t.planner = Auto) q

let plan ?mode t q =
  refresh_if_dirty t;
  plan_as_is ~mode:(Option.value mode ~default:t.mode) t q

(* A plan runs only in the instance it resolved.  When a watched
   directory moved on since it was made, its tree is planned again as
   it stands (no reordering, so every atomic keeps its identity) over
   the current instance: its ranks never index a newer snapshot. *)
let current t ~mode plan =
  refresh_if_dirty t;
  if Plan.resolved_in t.instance plan then plan
  else plan_as_is ~reorder:false ~mode t plan.Plan.query

(* Serve a sub-scope atomic's cache hit, if one is (still) fresh, under
   the text its plan printed: the mutating [find] re-prices the entry
   (GreedyDual-Size) and counts the hit, which the planner's read-only
   peek deliberately skipped. *)
let atomic_cache_hit t q (atom : Plan.atom) =
  match (t.result_cache, atom.Plan.text) with
  | Some c, Some query -> (
      match Cache.find c ~query q with
      | Cache.Hit arr -> Some arr
      | Cache.Miss | Cache.Stale -> None)
  | _ -> None

(* Of a choice's paths, the best one that is not the cache — the
   fallback when a peeked entry vanished by execution time. *)
let best_uncached (choice : Plan.choice) =
  let alts = choice.Plan.chosen :: choice.Plan.rejected in
  match
    List.filter (fun (alt : Plan.alt) -> alt.Plan.alt_path <> Plan.Cached) alts
  with
  | [] -> Plan.Scan
  | best :: rest ->
      (List.fold_left
         (fun (b : Plan.alt) (alt : Plan.alt) ->
           if alt.Plan.alt_reads + alt.Plan.alt_writes
              < b.Plan.alt_reads + b.Plan.alt_writes
           then alt
           else b)
         best rest)
        .Plan.alt_path

let count_path t = function
  | Plan.Index ->
      t.n_path_index <- t.n_path_index + 1;
      Metrics.incr m_path_index
  | Plan.Scan ->
      t.n_path_scan <- t.n_path_scan + 1;
      Metrics.incr m_path_scan
  | Plan.Cached ->
      t.n_path_cache <- t.n_path_cache + 1;
      Metrics.incr m_path_cache

(* One atomic query, its sorted hits leaving as a live source, read off
   its plan node: the resolved base's range, and for a sub-scope atomic
   the path its plan chose, with the probe and cache text it resolved.
   A result-cache hit under [Materialized] stays the resident list its
   consumer scans and under [Streaming] flows on free. *)
let atomic_src t ~mode plan q (a : Ast.atomic) =
  let access, atom =
    match Plan.find plan q with
    | Some { Plan.access; atom = Some atom; _ } -> (access, atom)
    | _ -> invalid_arg "Engine.leaf: an atomic its plan did not resolve"
  in
  let keep e = Afilter.matches a.filter e in
  let scan () = Dn_index.scan t.dn_index a.scope atom.Plan.range ~keep in
  (* the index path: refine the probed postings to the scope and the
     full filter, sort; charges reading the postings *)
  let indexed idx probe =
    let candidates = Attr_index.lookup idx probe in
    let prefix = atom.Plan.range.Instance.key in
    let hits =
      List.filter
        (fun e -> Entry.key_is_prefix ~prefix (Entry.key e) && keep e)
        candidates
      |> List.sort_uniq Entry.compare_rev
    in
    Pager.charge_scan_read t.pager (List.length candidates);
    Ext_list.Source.of_array (Array.of_list hits)
  in
  let run = function
    | Plan.Index | Plan.Cached -> (
        match (t.attr_index, atom.Plan.probe) with
        | Some idx, Some probe ->
            count_path t Plan.Index;
            indexed idx probe
        | _ ->
            count_path t Plan.Scan;
            scan ())
    | Plan.Scan ->
        count_path t Plan.Scan;
        scan ()
  in
  match access with
  | None -> scan ()
  | Some choice -> (
      match choice.Plan.chosen.Plan.alt_path with
      | Plan.Cached -> (
          match atomic_cache_hit t q atom with
          | Some arr -> (
              count_path t Plan.Cached;
              match mode with
              | Streaming -> Ext_list.Source.of_array arr
              | Materialized ->
                  Ext_list.Source.of_list
                    (Ext_list.of_array_resident t.pager arr))
          | None -> run (best_uncached choice))
      | (Plan.Index | Plan.Scan) as p -> run p)

let leaf t mode plan =
  let plan = current t ~mode plan in
  function
  | Ast.Atomic a as q -> Some (atomic_src t ~mode plan q a)
  | _ -> None

(* --- Query trees --------------------------------------------------------- *)

let span_detail : Ast.t -> string = function
  | Ast.Atomic a -> Afilter.to_string a.Ast.filter
  | _ -> ""

(* The edge policy (Theorem 8.3) for one binary operator: a pipelined
   node consumes its inputs' sources and hands on a live one; a
   materialized node runs the operator's list entry point over resident
   inputs (forcing an untouched list-backed source is free) and hands
   on a scan of the list it wrote. *)
let binary ~mode pager src lst s1 s2 =
  match mode with
  | Streaming -> src s1 s2
  | Materialized ->
      let force = Ext_list.Source.force pager in
      Ext_list.Source.of_list (lst (force s1) (force s2))

let union ~mode pager =
  binary ~mode pager (Bool_ops.or_src pager) Bool_ops.or_

(* The one query-tree walker: one traced span per node, children left
   to right.  [leaf] answers every atomic and may intercept any other
   subtree; under [Materialized] a leaf's output is written inside its
   own span, like an operator's. *)
let rec walk_src ~pager ~window ~mode ~leaf (q : Ast.t) =
  let go = walk_src ~pager ~window ~mode ~leaf in
  let binary = binary ~mode pager in
  let force = Ext_list.Source.force pager in
  let detail = if Trace.enabled () then span_detail q else "" in
  Trace.with_span ~detail ~stats:(Pager.stats pager)
    (Plan.op_label q) (fun () ->
      let out =
        match leaf q with
        | Some s -> (
            match mode with
            | Streaming -> s
            | Materialized -> Ext_list.Source.of_list (force s))
        | None -> (
            match q with
            | Ast.Atomic _ -> invalid_arg "Engine.walk: leaf left an atomic"
            | Ast.And (q1, q2) ->
                let s1 = go q1 in
                binary (Bool_ops.and_src pager) Bool_ops.and_ s1 (go q2)
            | Ast.Or (q1, q2) ->
                let s1 = go q1 in
                union ~mode pager s1 (go q2)
            | Ast.Diff (q1, q2) ->
                let s1 = go q1 in
                binary (Bool_ops.diff_src pager) Bool_ops.diff s1 (go q2)
            | Ast.Hier (op, q1, q2, agg) ->
                let s1 = go q1 in
                binary
                  (Hs_agg.compute_hier_src ~window ?agg pager op)
                  (Hs_agg.compute_hier ~window ?agg op)
                  s1 (go q2)
            | Ast.Hier3 (op, q1, q2, q3, agg) -> (
                let s1 = go q1 in
                let s2 = go q2 in
                let s3 = go q3 in
                match mode with
                | Streaming ->
                    Hs_agg.compute_hier3_src ~window ?agg pager op s1 s2 s3
                | Materialized ->
                    Ext_list.Source.of_list
                      (Hs_agg.compute_hier3 ~window ?agg op (force s1)
                         (force s2) (force s3)))
            | Ast.Gsel (q1, f) -> (
                let s1 = go q1 in
                match mode with
                | Streaming -> Simple_agg.compute_src pager f s1
                | Materialized ->
                    Ext_list.Source.of_list (Simple_agg.compute f (force s1)))
            | Ast.Eref (op, q1, q2, attr, agg) ->
                let s1 = go q1 in
                binary
                  (fun s1 s2 -> Er.compute_src ?agg pager op s1 s2 attr)
                  (fun l1 l2 -> Er.compute ?agg op l1 l2 attr)
                  s1 (go q2))
      in
      (* rows per operator, for :trace and the journal's op rows *)
      Trace.set_rows (Ext_list.Source.length out);
      out)

(* The root result is always materialized (exception (a) of Thm 8.3):
   it is what the caller scans, pages through, or offers to the result
   cache.  Under [Materialized] the root node already wrote it. *)
let walk ~pager ~window ~mode ~leaf q =
  let src = walk_src ~pager ~window ~mode ~leaf q in
  match mode with
  | Streaming -> Ext_list.Source.materialize pager src
  | Materialized -> Ext_list.Source.force pager src

let run_src t plan =
  walk_src ~pager:t.pager ~window:t.window ~mode:Streaming
    ~leaf:(leaf t Streaming plan) plan.Plan.query

let eval_node_src t q = run_src t (plan ~mode:Streaming t q)

let run_root t ~mode plan =
  walk ~pager:t.pager ~window:t.window ~mode ~leaf:(leaf t mode plan)
    plan.Plan.query

(* --- The query ledger ------------------------------------------------------ *)

(* Every measured query run — the engine's own (hit or miss), the
   distributed coordinator's and a served request's — goes through
   [ledger]: one reading of the counters, one root span, one journal
   event, one offer to [Tail].  Process-wide metrics are bumped by the
   callers from the cost it returns, so cross-query aggregates survive
   after individual traces are evicted. *)

let m_queries =
  Metrics.counter ~help:"query trees evaluated" "engine_queries_total"

let m_latency =
  Metrics.histogram ~help:"wall-clock nanoseconds per query tree"
    "engine_query_ns"

let m_reads =
  Metrics.counter ~help:"pages read while evaluating queries"
    "engine_page_reads_total"

let m_writes =
  Metrics.counter ~help:"pages written while evaluating queries"
    "engine_page_writes_total"

let m_alloc =
  Metrics.counter ~help:"bytes allocated while evaluating queries"
    "engine_alloc_bytes_total"

let short_detail s = if String.length s > 60 then String.sub s 0 59 ^ "…" else s
let query_detail q = short_detail (Qprinter.to_string q)

(* A journaled query needs the span tree for per-operator attribution,
   so the journal forces tracing for the query's extent even when
   :trace is off.  The force is counted: with concurrent workers each
   journaling, tracing stays on until the last forcing query finishes
   rather than being switched off under a still-running neighbour. *)
let force_mu = Mutex.create ()
let force_count = ref 0
let force_owner = ref false  (* the force flipped the flag on, so it flips it off *)

let with_forced_tracing journal f =
  if not journal then f ()
  else begin
    Mutex.lock force_mu;
    if !force_count = 0 then force_owner := not (Trace.enabled ());
    if !force_owner then Trace.set_enabled true;
    incr force_count;
    Mutex.unlock force_mu;
    let release () =
      Mutex.lock force_mu;
      decr force_count;
      if !force_count = 0 && !force_owner then begin
        Trace.set_enabled false;
        force_owner := false
      end;
      Mutex.unlock force_mu
    in
    Fun.protect ~finally:release f
  end

(* Hit-vs-miss latency: the histograms behind the "is the cache worth
   it" question. *)
let m_hit_ns =
  Metrics.histogram ~help:"wall ns per query by result-cache outcome"
    ~labels:[ ("cache", "hit") ]
    "engine_cache_query_ns"

let m_miss_ns =
  Metrics.histogram ~help:"wall ns per query by result-cache outcome"
    ~labels:[ ("cache", "miss") ]
    "engine_cache_query_ns"

(* Estimated writes under a boundary mode: a pipeline saves
   [saved] of the materialized [writes] (Thm 8.3). *)
let est_writes ~mode ~writes ~saved =
  match mode with
  | Streaming -> max 0 (writes - saved)
  | Materialized -> writes

let node_path (n : Plan.node) =
  Option.map
    (fun (c : Plan.choice) -> Plan.path_name c.Plan.chosen.Plan.alt_path)
    n.Plan.access

(* Join the estimated plan onto the span tree's per-operator rows.  The
   walker opens one span per operator, children left to right, so the
   span tree under the root mirrors the AST and the two preorder
   flattenings pair positionally — the label check guards the join
   against any shape mismatch (then the rows simply stay unannotated). *)
let annotate_ops ~mode plan (ops : Qlog.op list) =
  match ops with
  | root :: rest ->
      let flat = Plan.flatten plan in
      if
        List.compare_lengths rest flat = 0
        && List.for_all2
             (fun (o : Qlog.op) ((n : Plan.node), _) ->
               String.equal o.Qlog.op_name n.Plan.label)
             rest flat
      then
        root
        :: List.map2
             (fun (o : Qlog.op) ((n : Plan.node), _) ->
               {
                 o with
                 Qlog.op_est_rows = Some n.Plan.est_rows;
                 op_est_reads = Some n.Plan.est_reads;
                 op_est_writes =
                   Some
                     (est_writes ~mode ~writes:n.Plan.est_writes
                        ~saved:n.Plan.est_writes_saved);
                 op_path = node_path n;
               })
             rest flat
      else ops
  | [] -> []

(* The comma-joined distinct access paths a plan chose, sorted — the
   event-level "path=" summary (["index"], ["index,scan"], ...). *)
let plan_paths plan =
  Plan.flatten plan
  |> List.filter_map (fun (n, _) -> node_path n)
  |> List.sort_uniq String.compare
  |> function [] -> None | ps -> Some (String.concat "," ps)

type subject =
  | Tree of Ast.t
  | Keyed of Ast.t * string  (* with its printed text *)
  | Text of string

type report = {
  planned : Plan.node option;
  rows : int;
  failure : (Tail.outcome * string) option;
}

type note = {
  cache : string option;
  server : string option;
  shipped : (string * int * int) list option;
  annotate : mode:mode -> Plan.node -> Qlog.op list -> Qlog.op list;
}

type cost = {
  wall_ns : int;
  reads : int;
  writes : int;
  alloc_bytes : int;
  trace_id : string option;
}

let plain_note cache () =
  { cache; server = None; shipped = None; annotate = annotate_ops }

(* The journal event of one run: the plan that ran joined onto the span
   tree's rows, its access paths and totals and, when [Tail.is_slow], a
   capture.  A run that planned nothing (a cache hit, text that never
   parsed, a run that raised) carries no estimate. *)
let journal_run ~mode subject (n : note) ~plan ~rows ~outcome ~wall_ns ~reads
    ~writes ~alloc_bytes span =
  let ops =
    match (span, plan) with
    | Some sp, Some p -> n.annotate ~mode p (Qlog.ops_of_span sp)
    | Some sp, None -> Qlog.ops_of_span sp
    | None, _ -> []
  in
  let capture =
    if Tail.is_slow wall_ns then
      Some
        {
          Qlog.span_text =
            (match span with Some sp -> Fmt.str "%a" Trace.pp_span sp | None -> "");
          plan_text = (match plan with Some p -> Plan.to_string p | None -> "");
        }
    else None
  in
  let trace_id =
    match span with
    | Some sp -> Some sp.Trace.trace_id
    | None -> Trace.current_trace_id ()
  in
  let query, fingerprint =
    match (subject, plan) with
    | Tree q, _ -> (Qprinter.to_string q, Plan.fingerprint q)
    | Keyed (q, text), _ -> (text, Plan.fingerprint q)
    | Text s, Some p -> (s, Plan.fingerprint p.Plan.query)
    | Text s, None -> (s, "(parse)")
  in
  Qlog.record ?cache:n.cache ?path:(Option.bind plan plan_paths)
    ?server:n.server ?trace_id ?shipped:n.shipped ~ops ?capture ~query
    ~fingerprint ~result_count:rows ~reads ~writes ~wall_ns ~alloc_bytes
    ~outcome
    ?est_card:(Option.map (fun p -> p.Plan.est_rows) plan)
    ?est_reads:(Option.map Plan.total_est_reads plan)
    ?est_writes:
      (Option.map
         (fun p ->
           est_writes ~mode ~writes:(Plan.total_est_writes p)
             ~saved:(Plan.total_est_writes_saved p))
         plan)
    ()

let measured ~mode ~label ~origin stats subject ~note ~journal run =
  let reads0 = stats.Io_stats.page_reads
  and writes0 = stats.Io_stats.page_writes in
  let alloc0 = Mclock.allocated_words () in
  let t0 = Mclock.now_ns () in
  let detail =
    if not (Trace.enabled ()) then ""
    else
      match subject with
      | Tree q -> query_detail q
      | Keyed (_, s) -> short_detail s
      | Text s -> s
  in
  (* the thunk catches, so a failed run's tree is ours too *)
  let result, span =
    Trace.with_span_out ~detail ~stats label (fun () ->
        match run () with
        | (_, r) as ran ->
            Trace.set_rows r.rows;
            Ok ran
        | exception e -> Error e)
  in
  let wall_ns = Mclock.now_ns () - t0 in
  let reads = stats.Io_stats.page_reads - reads0
  and writes = stats.Io_stats.page_writes - writes0
  and alloc_bytes = Mclock.bytes_of_words (Mclock.allocated_words () - alloc0) in
  let failure =
    match result with
    | Ok (_, r) -> r.failure
    | Error e -> Some (`Error, Printexc.to_string e)
  in
  (* journal first, then offer the tree with its event to the tail
     store, which decides whether to keep it.  A run nested in a served
     or coordinated query shares the root's trace id, and the root tree
     supersedes it. *)
  let event =
    if not journal then None
    else
      let plan, rows =
        match result with Ok (_, r) -> (r.planned, r.rows) | Error _ -> (None, 0)
      in
      let outcome =
        match failure with None -> Qlog.Ok | Some (_, msg) -> Qlog.Failed msg
      in
      Some
        (journal_run ~mode subject (note ()) ~plan ~rows ~outcome ~wall_ns
           ~reads ~writes ~alloc_bytes span)
  in
  (match span with
  | Some sp ->
      let outcome = match failure with None -> `Ok | Some (o, _) -> o in
      ignore (Tail.consider ?event ~origin ~outcome ~wall_ns sp)
  | None -> ());
  match result with
  | Error e -> raise e
  | Ok (v, _) ->
      let trace_id =
        match span with Some sp -> Some sp.Trace.trace_id | None -> None
      in
      (v, { wall_ns; reads; writes; alloc_bytes; trace_id })

let ledger ~mode ~label ~origin stats subject ~note run =
  if Qlog.enabled () then
    with_forced_tracing true (fun () ->
        measured ~mode ~label ~origin stats subject ~note ~journal:true run)
  else measured ~mode ~label ~origin stats subject ~note ~journal:false run

(* A cache hit charges no page io, so it takes no counter lock for it. *)
let count_query (c : cost) =
  Metrics.incr m_queries;
  Metrics.observe_ns ?trace_id:c.trace_id m_latency c.wall_ns;
  if c.reads > 0 then Metrics.add m_reads c.reads;
  if c.writes > 0 then Metrics.add m_writes c.writes;
  Metrics.add m_alloc c.alloc_bytes

(* Static notes, so a run allocates none. *)
let note_bypass = plain_note (Some "bypass")
let note_miss = plain_note (Some "miss")
let note_stale = plain_note (Some "stale")
let note_hit = plain_note (Some "hit")

(* Full evaluation of [q], planned inside the run unless [planned]
   already holds its plan.  [probe] says how the result cache answered
   the lookup ([`Bypass] when there is none): a [`Miss] or [`Stale]
   result is offered back to the cache — admission decides — under the
   text the lookup took, with the measured io as its cost and its
   dn-subtree footprint for invalidation. *)
let eval_uncached t ~mode q ~planned ~probe =
  let subject, note =
    match probe with
    | `Bypass -> (Tree q, note_bypass)
    | `Miss text -> (Keyed (q, text), note_miss)
    | `Stale text -> (Keyed (q, text), note_stale)
  in
  let out, cost =
    ledger ~mode ~label:"execute" ~origin:"engine" (stats t) subject ~note
      (fun () ->
        let p = match planned with Some p -> p | None -> plan ~mode t q in
        let out = run_root t ~mode p in
        (out, { planned = Some p; rows = Ext_list.length out; failure = None }))
  in
  count_query cost;
  (match (t.result_cache, probe) with
  | Some c, (`Miss query | `Stale query) ->
      Metrics.observe_ns m_miss_ns cost.wall_ns;
      let arr = Ext_list.to_array out in
      ignore
        (Cache.store c ~query q ~footprint:(Footprint.of_query q)
           ~cost_io:(cost.reads + cost.writes)
           ~pages:(Pager.pages_of t.pager (Array.length arr))
           arr)
  | _ -> ());
  out

(* A hit re-serves the materialized result as a disk-resident list:
   creation is free (the pages are already paid for in the cache's
   budget), downstream scans charge normally.  Nothing was planned, so
   its event carries no estimate. *)
let serve_hit t ~mode subject arr =
  let out, cost =
    ledger ~mode ~label:"execute" ~origin:"engine" (stats t) subject
      ~note:note_hit (fun () ->
        ( Ext_list.of_array_resident t.pager arr,
          { planned = None; rows = Array.length arr; failure = None } ))
  in
  count_query cost;
  Metrics.observe_ns m_hit_ns cost.wall_ns;
  out

(* Under the cost-based planner a tree with a boolean merge is planned
   before its cache lookup: the plan may reorder its chains, and the
   fingerprint is taken of the tree that runs, so the cache, journal and
   spans all see that tree.  Any other tree is looked up as given and
   planned only on a miss. *)
let rec has_bool : Ast.t -> bool = function
  | Ast.Atomic _ -> false
  | Ast.And _ | Ast.Or _ -> true
  | Ast.Diff (q1, q2) -> has_bool q1 || has_bool q2
  | Ast.Hier (_, q1, q2, _) -> has_bool q1 || has_bool q2
  | Ast.Hier3 (_, q1, q2, q3, _) -> has_bool q1 || has_bool q2 || has_bool q3
  | Ast.Gsel (q1, _) -> has_bool q1
  | Ast.Eref (_, q1, q2, _, _) -> has_bool q1 || has_bool q2

(* [eval] refreshes a watched engine's indexes before this plan;
   [plan_rewrite], a view of it, prices them as they stand. *)
let pre_plan ~mode t q =
  if t.planner = Auto && has_bool q then Some (plan_as_is ~mode t q) else None

let plan_rewrite ?mode t q =
  match pre_plan ~mode:(Option.value mode ~default:t.mode) t q with
  | Some p -> p.Plan.query
  | None -> q

let eval ?mode t q =
  let mode = Option.value mode ~default:t.mode in
  refresh_if_dirty t;
  let planned = pre_plan ~mode t q in
  let q = match planned with Some p -> p.Plan.query | None -> q in
  match t.result_cache with
  | None -> eval_uncached t ~mode q ~planned ~probe:`Bypass
  | Some c -> (
      (* the cache key, printed once for the lookup, the store and the
         journal *)
      let text = Qprinter.to_string q in
      match Cache.find c ~query:text q with
      | Cache.Hit arr -> serve_hit t ~mode (Keyed (q, text)) arr
      | Cache.Miss -> eval_uncached t ~mode q ~planned ~probe:(`Miss text)
      | Cache.Stale -> eval_uncached t ~mode q ~planned ~probe:(`Stale text))

let eval_entries ?mode t q = Ext_list.to_list (eval ?mode t q)

(* Closure: wrap the result back into an instance over the same schema. *)
let eval_instance ?mode t q =
  Instance.of_result t.instance (eval_entries ?mode t q)

(* Paged results, RFC-2696 style: evaluate once, hand back fixed-size
   pages with an opaque cookie.  The cookie encodes the key of the last
   entry delivered, so paging survives re-evaluation (and concurrent
   inserts simply appear in their sorted position on later pages). *)
type page = {
  entries : Entry.t list;
  cookie : string option;  (* None: no more pages *)
}

let eval_paged ?mode t ?(page_size = 100) ?cookie q =
  if page_size <= 0 then invalid_arg "Engine.eval_paged: page_size <= 0";
  let result = eval ?mode t q in
  let n = Ext_list.length result in
  (* first index strictly after the cookie key *)
  let start =
    match cookie with
    | None -> 0
    | Some last_key ->
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if String.compare (Entry.key (Ext_list.unsafe_get result mid)) last_key
             <= 0
          then lo := mid + 1
          else hi := mid
        done;
        !lo
  in
  let len = min page_size (n - start) in
  let entries = List.init (max 0 len) (fun i -> Ext_list.unsafe_get result (start + i)) in
  let cookie =
    if start + len >= n || entries = [] then None
    else Some (Entry.key (List.nth entries (len - 1)))
  in
  { entries; cookie }

(* Parse-and-run convenience for the shell and examples. *)
let eval_string ?mode t s =
  let q =
    Trace.with_span ~detail:s "parse" (fun () ->
        Qparser.of_string ~schema:(Instance.schema t.instance) s)
  in
  (q, eval_entries ?mode t q)
