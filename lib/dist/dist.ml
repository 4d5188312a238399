(* Distributed query evaluation (Sections 3.3 and 8.3).

   The hierarchical namespace is split into domains, DNS-style: a domain
   is registered at a dn, owns the subtree rooted there minus any
   delegated subdomains, and is served by one directory server.  A
   query is evaluated by the server it is posed to (the coordinator):

   - each atomic sub-query is routed to the server owning its base dn
     (longest-suffix domain match, as in DNS resolution);
   - remote servers evaluate their atomic queries locally and ship the
     sorted result lists back;
   - the coordinator then runs the ordinary operator algorithms over the
     shipped lists (Section 8.3's bottom-up strategy).

   Everything runs in-process; shipping is accounted in messages and
   bytes on the coordinator's [Io_stats]. *)

type server = {
  name : string;
  domain : Dn.t;  (* the root of the namespace this server owns *)
  instance : Instance.t;  (* only the entries the server owns *)
  engine : Engine.t;
}

type network = {
  servers : server list;  (* the registry, most specific domains first *)
  block : int;
}

(* --- Partitioning ------------------------------------------------------- *)

(* DNS-style ownership: an entry belongs to the most specific registered
   domain that is an ancestor-or-self of its dn. *)
let owner_domain domains dn =
  let covers d = Dn.is_self_or_descendant_of ~descendant:dn ~ancestor:d in
  let best =
    List.fold_left
      (fun best d ->
        if covers d then
          match best with
          | Some b when Dn.depth b >= Dn.depth d -> best
          | _ -> Some d
        else best)
      None domains
  in
  best

(* Split [instance] into one server per domain.  Entries not covered by
   any domain go to the first (root-most) server, which models the
   queried server also acting as the default owner. *)
let deploy ?(block = 64) instance domains =
  (match domains with [] -> invalid_arg "Dist.deploy: no domains" | _ -> ());
  let sorted_domains =
    List.sort (fun a b -> Int.compare (Dn.depth b) (Dn.depth a)) domains
  in
  let buckets = Hashtbl.create 8 in
  List.iter (fun d -> Hashtbl.replace buckets (Dn.rev_key d) []) sorted_domains;
  let fallback =
    match List.rev sorted_domains with d :: _ -> d | [] -> assert false
  in
  Instance.iter
    (fun e ->
      let d =
        match owner_domain sorted_domains (Entry.dn e) with
        | Some d -> d
        | None -> fallback
      in
      let key = Dn.rev_key d in
      Hashtbl.replace buckets key (e :: Option.value ~default:[] (Hashtbl.find_opt buckets key)))
    instance;
  let servers =
    List.mapi
      (fun i d ->
        let entries = List.rev (Option.value ~default:[] (Hashtbl.find_opt buckets (Dn.rev_key d))) in
        let sub = Instance.of_entries ~validate:false (Instance.schema instance) entries in
        {
          name = Printf.sprintf "server%d@%s" i (if Dn.equal d Dn.root then "<root>" else Dn.to_string d);
          domain = d;
          instance = sub;
          engine = Engine.create ~block sub;
        })
      sorted_domains
  in
  { servers; block }

let find_server network dn =
  let d =
    match owner_domain (List.map (fun s -> s.domain) network.servers) dn with
    | Some d -> d
    | None -> (match List.rev network.servers with s :: _ -> s.domain | [] -> assert false)
  in
  List.find (fun s -> Dn.equal s.domain d) network.servers

(* --- The coordinator ----------------------------------------------------- *)

type coordinator = {
  network : network;
  home : server;  (* the server the query was posed to *)
  stats : Io_stats.t;  (* coordinator-side cost, incl. shipping *)
  pager : Pager.t;
  result_cache : Cache.t option;  (* shipped sub-query results, per server *)
}

let coordinator ?result_cache network home_dn =
  let home = find_server network home_dn in
  let stats = Io_stats.create () in
  {
    network;
    home;
    stats;
    pager = Pager.create ~block:network.block stats;
    result_cache;
  }

let note_update ?subtree t dn =
  match t.result_cache with
  | Some c -> Cache.note_update ?subtree c dn
  | None -> ()

(* An atomic query generally spans several domains: the owner of the base
   dn plus every server whose domain lies inside the base's subtree.
   Each involved server answers from its own partition; the coordinator
   merges the sorted partial results (domains are disjoint subtrees, so
   partial results interleave but merging keeps the canonical order). *)
let involved_servers t (a : Ast.atomic) =
  let owner = find_server t.network a.Ast.base in
  let inside =
    List.filter
      (fun s ->
        (not (Dn.equal s.domain owner.domain))
        && Dn.is_self_or_descendant_of ~descendant:s.domain ~ancestor:a.Ast.base)
      t.network.servers
  in
  owner :: inside

let query_bytes q = String.length (Qprinter.to_string (Ast.Atomic q))

(* Cross-server traffic also feeds the process-wide metrics registry,
   labeled by the answering server, so the shipping profile survives
   across queries and coordinators. *)
let m_messages server =
  Metrics.counter ~help:"messages shipped between directory servers"
    ~labels:[ ("server", server) ]
    "dist_messages_total"

let m_bytes server =
  Metrics.counter ~help:"payload bytes shipped between directory servers"
    ~labels:[ ("server", server) ]
    "dist_bytes_shipped_total"

let ship t server ~bytes =
  Io_stats.message ~bytes t.stats;
  Metrics.incr (m_messages server.name);
  Metrics.add (m_bytes server.name) bytes

(* Traffic the result cache saved: counted per answering server, like
   the shipping counters it offsets. *)
let m_saved_messages server =
  Metrics.counter ~help:"messages saved by the coordinator result cache"
    ~labels:[ ("server", server) ]
    "dist_cache_saved_messages_total"

let m_saved_bytes server =
  Metrics.counter ~help:"shipped bytes saved by the coordinator result cache"
    ~labels:[ ("server", server) ]
    "dist_cache_saved_bytes_total"

let entries_bytes = Array.fold_left (fun n e -> n + Entry.byte_size e) 0

(* Evaluate one atomic query on every involved server.  Each shipped
   result is materialized at the coordinator (streaming never crosses
   the wire: a shard arrives whole before the pipeline can consume it). *)
let eval_shards t (a : Ast.atomic) =
    List.map
      (fun s ->
        (* One child span per involved server, remote or not; journal
           events recorded by the server's engine (the remote side of
           the shipped sub-query) are attributed to that server. *)
        Trace.with_span ~detail:s.name ~stats:t.stats "ship" (fun () ->
            Qlog.with_server s.name (fun () ->
                let local = Dn.equal s.domain t.home.domain in
                (* Remote shards can be answered from the coordinator's
                   result cache, skipping the round trip entirely; the
                   key scopes the sub-query's text to the server. *)
                let probe =
                  if local then None
                  else
                    match t.result_cache with
                    | None -> None
                    | Some c ->
                        let fingerprint = Plan.fingerprint (Ast.Atomic a) in
                        let ckey =
                          Qprinter.to_string (Ast.Atomic a) ^ " @" ^ s.name
                        in
                        Some (c, fingerprint, ckey,
                              Cache.find c ~fingerprint ~query:ckey)
                in
                match probe with
                | Some (_, _, _, Cache.Hit arr) ->
                    Metrics.add (m_saved_messages s.name) 2;
                    Metrics.add (m_saved_bytes s.name)
                      (query_bytes a + entries_bytes arr);
                    Ext_list.materialize t.pager arr
                | _ ->
                    (* Ship the atomic query out and the result back.
                       The server's engine spans carry its name as
                       actor, so a stitched trace shows each shard's
                       work in its own lane. *)
                    if not local then ship t s ~bytes:(query_bytes a);
                    let result =
                      Trace.with_actor s.name (fun () ->
                          Engine.eval s.engine (Ast.Atomic a))
                    in
                    let arr = Array.of_list (Ext_list.to_list result) in
                    if not local then ship t s ~bytes:(entries_bytes arr);
                    (match probe with
                    | Some (c, fingerprint, ckey, (Cache.Miss | Cache.Stale))
                      ->
                        (* Cost is counted in messages: a hit saves the
                           two of a round trip. *)
                        ignore
                          (Cache.store c ~fingerprint ~query:ckey
                             ~footprint:(Footprint.of_query (Ast.Atomic a))
                             ~cost_io:2
                             ~pages:(Pager.pages_of t.pager (Array.length arr))
                             arr)
                    | _ -> ());
                    (* Materialize the shipped list at the coordinator. *)
                    Ext_list.materialize t.pager arr)))
      (involved_servers t a)

(* The coordinator's leaf: an atomic's shards merged by pairwise
   unions under the walker's edge policy, charged to the coordinator. *)
let combine t ~mode (a : Ast.atomic) =
  let shards = eval_shards t a in
  Trace.with_span ~stats:t.stats "combine" (fun () ->
      match List.map Ext_list.Source.of_list shards with
      | [] -> Ext_list.Source.of_array [||]
      | first :: rest -> List.fold_left (Engine.union ~mode t.pager) first rest)

(* --- The coordinator's own journal entry --------------------------------- *)

let m_dist_queries =
  Metrics.counter ~help:"coordinator query trees evaluated" "dist_queries_total"

let m_dist_latency =
  Metrics.histogram ~help:"wall-clock nanoseconds per coordinator query"
    "dist_query_ns"

(* Per-server cumulative shipping counters, snapshotted around a query
   so the coordinator's journal event attributes traffic per server. *)
let shipping_snapshot t =
  List.map
    (fun s ->
      ( s.name,
        Metrics.counter_value (m_messages s.name),
        Metrics.counter_value (m_bytes s.name) ))
    t.network.servers

let shipping_delta before after =
  List.filter_map
    (fun (name, msgs1, bytes1) ->
      match List.assoc_opt name (List.map (fun (n, m, b) -> (n, (m, b))) before) with
      | Some (msgs0, bytes0) when msgs1 > msgs0 || bytes1 > bytes0 ->
          Some (name, msgs1 - msgs0, bytes1 - bytes0)
      | Some _ -> None
      | None -> Some (name, msgs1, bytes1))
    after

(* Summarize the per-shard cache outcomes of one query tree from the
   cache's counter deltas: all lookups hit -> "hit", any invalidated ->
   "stale", otherwise "miss" (including trees with no remote shard). *)
let cache_probe_snapshot t =
  match t.result_cache with
  | None -> None
  | Some c ->
      let s = Cache.stats c in
      Some (s.Cache.hits, s.Cache.misses, s.Cache.stale)

let cache_note t before =
  match (t.result_cache, before) with
  | None, _ | _, None -> "bypass"
  | Some c, Some (h0, m0, s0) ->
      let s = Cache.stats c in
      let hits = s.Cache.hits - h0
      and misses = s.Cache.misses - m0
      and stale = s.Cache.stale - s0 in
      if stale > 0 then "stale"
      else if misses > 0 || hits = 0 then "miss"
      else "hit"

(* Attach the plan's atomic-leaf cardinality estimates to the
   coordinator's "combine" rows.  The span tree under "coordinate"
   holds one combine per atomic sub-query (nested in its operator
   span), in evaluation order (left to right), which is exactly the
   preorder order of the plan's atomic leaves; counts must agree or
   the rows stay unannotated.  Reads/writes are left out: a combine
   merges already-shipped lists, which the per-node cost model doesn't
   price.  The estimates come from the home partition (the coordinator
   never sees the global instance), so their q-error also measures
   partition-blindness. *)
let annotate_combines ~mode:_ plan (ops : Qlog.op list) =
  let leaves =
    List.filter_map
      (fun ((n : Plan.node), _) ->
        if String.equal n.Plan.label "atomic" then Some n else None)
      (Plan.flatten plan)
  in
  let is_combine (o : Qlog.op) = String.equal o.Qlog.op_name "combine" in
  let combines = List.length (List.filter is_combine ops) in
  if combines <> List.length leaves then ops
  else begin
    let remaining = ref leaves in
    List.map
      (fun (o : Qlog.op) ->
        if is_combine o then
          match !remaining with
          | n :: tl ->
              remaining := tl;
              { o with Qlog.op_est_rows = Some n.Plan.est_rows }
          | [] -> o
        else o)
      ops
  end

(* One ledger run on the home engine, which estimates over the home
   partition with its own handles — the coordinator never materializes
   the global instance; the two pagers share the network's blocking
   factor, so the page math is the same.  Trace-context propagation:
   one fresh trace id per coordinated query, bound for its whole
   extent, so the coordinator's merge spans and every involved server's
   engine spans (and their journal events) stitch into one causal tree.
   The coordinator itself is the root actor; [eval_shards] rebinds per
   server.  The ledger traces whenever the journal is open. *)
let eval ?(mode = Engine.Streaming) t q =
  let journal = Qlog.enabled () in
  let ship0 = if journal then shipping_snapshot t else [] in
  let probe0 = cache_probe_snapshot t in
  let note () =
    {
      Engine.cache = Some (cache_note t probe0);
      server = Some t.home.name;
      shipped = Some (shipping_delta ship0 (shipping_snapshot t));
      annotate = annotate_combines;
    }
  in
  let stitch f =
    if journal || Trace.enabled () then
      Trace.with_trace_id (Trace.next_trace_id ()) (fun () ->
          Trace.with_actor "coordinator" f)
    else f ()
  in
  let leaf = function Ast.Atomic a -> Some (combine t ~mode a) | _ -> None in
  let out, cost =
    stitch @@ fun () ->
    Engine.ledger t.home.engine ~mode ~label:"coordinate" ~origin:"dist"
      t.stats (Engine.Tree q) ~note (fun () ->
        let out =
          Engine.walk ~pager:t.pager ~window:(Engine.window t.home.engine)
            ~mode ~leaf q
        in
        (out, { Engine.planned = Some q; rows = Ext_list.length out; failure = None }))
  in
  Metrics.incr m_dist_queries;
  Metrics.observe_ns m_dist_latency cost.Engine.wall_ns;
  out

let eval_entries ?mode t q = Ext_list.to_list (eval ?mode t q)

(* Aggregate server-side I/O across the network, for the experiments. *)
let server_stats network =
  List.map (fun s -> (s.name, Engine.stats s.engine)) network.servers

let reset_all t =
  Io_stats.reset t.stats;
  List.iter (fun s -> Engine.reset_stats s.engine) t.network.servers
