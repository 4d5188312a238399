(* The semantic query-result cache (see cache.mli).

   Entries are keyed by query text and hold the tree they were stored
   for, with its dn-subtree footprint and the footprint's {!Vtrie}
   stamps.  Replacement is GreedyDual-Size (Cao & Irani, USITS 1997)
   over page io: priority [L + cost_io / pages], reset on each hit; an
   eviction takes the lowest priority, ties to the least recently used,
   and raises [L] to it.  The entries sit in a binary min-heap, each
   knowing its slot, and priorities are ints (density in 1/65536ths of
   an io per page), so a hit re-prices in O(log n) allocating nothing.
   No wall time enters a priority, so replacement repeats exactly. *)

type outcome = Hit of Entry.t array | Stale | Miss

type cached = {
  query : string;
  tree : Ast.t;
  footprint : Footprint.t;
  stamps : int array;  (* per footprint base; [|epoch|] for Whole *)
  result : Entry.t array;
  pages : int;
  bytes : int;
  density : int;  (* cost_io per page, in 1/65536ths *)
  mutable prio : int;  (* L + density, as of the last store or hit *)
  mutable used : int;  (* the tick of that store or hit *)
  mutable slot : int;  (* position in the heap *)
}

(* Hashed by text only; equal only if the trees are equal too. *)
module Table = Hashtbl.Make (struct
  type t = string * Ast.t

  let equal (s, q) (s', q') = String.equal s s' && q = q'
  let hash (s, _) = Hashtbl.hash s
end)

type t = {
  mutable budget_pages : int;
  mutable admit_min_io : int;
  trie : Vtrie.t;
  table : cached Table.t;
  mutable heap : cached array;  (* min-heap on (prio, used) over [0, size) *)
  mutable size : int;
  mutable floor : int;  (* L: the priority of the last eviction *)
  mutable tick : int;
  mutable used_pages : int;
  mutable used_bytes : int;
  mutable dir : Directory.t option;
  mutable seen_generation : int;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evictions : int;
  mutable rejects : int;
}

(* Process-wide series, shared by every cache like Buffer_pool's. *)
let m_hits = Metrics.counter ~help:"result-cache hits" "cache_hits_total"
let m_misses = Metrics.counter ~help:"result-cache misses" "cache_misses_total"

let m_stale = Metrics.counter ~help:"result-cache entries invalidated on lookup" "cache_stale_total"

let m_evictions = Metrics.counter ~help:"result-cache evictions" "cache_evictions_total"

let m_rejects =
  Metrics.counter ~help:"results refused by cost-aware admission" "cache_admission_rejects_total"

let m_bytes = Metrics.gauge ~help:"bytes resident in result caches" "cache_resident_bytes"
let m_pages = Metrics.gauge ~help:"pages resident in result caches" "cache_resident_pages"

let gauge_add g d = Metrics.set g (Metrics.gauge_value g +. float_of_int d)

let create ?(budget_pages = 256) ?(admit_min_io = 2) () =
  {
    budget_pages = max 0 budget_pages;
    admit_min_io;
    trie = Vtrie.create ();
    table = Table.create 64;
    heap = [||];
    size = 0;
    floor = 0;
    tick = 0;
    used_pages = 0;
    used_bytes = 0;
    dir = None;
    seen_generation = 0;
    hits = 0;
    misses = 0;
    stale = 0;
    evictions = 0;
    rejects = 0;
  }

(* --- The priority heap ---------------------------------------------------- *)

let before a b = a.prio < b.prio || (a.prio = b.prio && a.used < b.used)

let place t i c =
  t.heap.(i) <- c;
  c.slot <- i

let rec sift_up t i c =
  let p = (i - 1) / 2 in
  if i > 0 && before c t.heap.(p) then (place t i t.heap.(p); sift_up t p c)
  else place t i c

let rec sift_down t i c =
  let l = (2 * i) + 1 in
  let m = if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
  if l < t.size && before t.heap.(m) c then (place t i t.heap.(m); sift_down t m c)
  else place t i c

let push t c =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 64 (2 * t.size)) c in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) c

(* A freed slot is refilled with a live entry (or the heap let go), so
   no evicted result is kept alive. *)
let remove t c =
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  if last != c then
    if before last c then sift_up t c.slot last else sift_down t c.slot last;
  if t.size = 0 then t.heap <- [||] else t.heap.(t.size) <- t.heap.(0)

(* Price [c] as used now: [L] never falls, so it can only sink. *)
let touch t c =
  t.tick <- t.tick + 1;
  c.prio <- t.floor + c.density;
  c.used <- t.tick

(* --- Entries -------------------------------------------------------------- *)

(* Forget an entry already out of the heap; an eviction raises [L]. *)
let forget ?(evicted = false) t c =
  Table.remove t.table (c.query, c.tree);
  t.used_pages <- t.used_pages - c.pages;
  t.used_bytes <- t.used_bytes - c.bytes;
  gauge_add m_pages (-c.pages);
  gauge_add m_bytes (-c.bytes);
  if evicted then begin
    t.floor <- c.prio;
    t.evictions <- t.evictions + 1;
    Metrics.incr m_evictions
  end

let drop ?evicted t c =
  remove t c;
  forget ?evicted t c

(* Evict the lowest priorities until [pages] more fit — unless one of
   them is above [prio]: then put every victim back and refuse. *)
let make_room t ~pages ~prio =
  let rec take victims freed =
    if t.used_pages - freed + pages <= t.budget_pages then (
      List.iter (forget ~evicted:true t) (List.rev victims);
      true)
    else
      let c = t.heap.(0) in
      if c.prio > prio then (List.iter (push t) victims; false)
      else (remove t c; take (c :: victims) (freed + c.pages))
  in
  take [] 0

(* --- Invalidation -------------------------------------------------------- *)

let note_update ?(subtree = false) t dn = Vtrie.bump ~subtree t.trie dn

(* The generation safety net: any mutation that reached the attached
   directory without a hook notification invalidates everything. *)
let sync t =
  match t.dir with
  | Some d when Directory.generation d <> t.seen_generation ->
      t.seen_generation <- Directory.generation d;
      Vtrie.bump_all t.trie
  | _ -> ()

let attach t dir =
  t.dir <- Some dir;
  t.seen_generation <- Directory.generation dir;
  Directory.on_update dir (fun (u : Directory.update) ->
      t.seen_generation <- Directory.generation dir;
      note_update ~subtree:u.Directory.subtree t u.Directory.dn)

(* --- Lookup / store ------------------------------------------------------- *)

let current_stamps t = function
  | Footprint.Whole -> [| Vtrie.epoch t.trie |]
  | Footprint.Bases bs -> Array.of_list (List.map (Vtrie.stamp t.trie) bs)

let is_fresh t c =
  match c.footprint with
  | Footprint.Whole -> c.stamps.(0) = Vtrie.epoch t.trie
  | Footprint.Bases bs ->
      let rec go i = function
        | [] -> true
        | b :: bs -> Vtrie.stamp t.trie b = c.stamps.(i) && go (i + 1) bs
      in
      go 0 bs

let find t ~query tree =
  sync t;
  match Table.find_opt t.table (query, tree) with
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_misses;
      Miss
  | Some c when is_fresh t c ->
      t.hits <- t.hits + 1;
      Metrics.incr m_hits;
      touch t c;
      sift_down t c.slot c;
      Hit c.result
  | Some c ->
      t.stale <- t.stale + 1;
      Metrics.incr m_stale;
      drop t c;
      Stale

(* Read-only probe for the planner: is a fresh result available?  No
   counters move and no priority changes — pricing an access path must
   not look like serving a query, or planning a query that then scans
   would still rejuvenate (and account) a cache entry it never used.
   Staleness is respected but the stale entry is left for the next real
   lookup to collect. *)
let peek t ~query tree =
  sync t;
  match Table.find_opt t.table (query, tree) with
  | Some c when is_fresh t c -> Some c.result
  | _ -> None

let store t ~query tree ~footprint ~cost_io ~pages result =
  sync t;
  Option.iter (drop t) (Table.find_opt t.table (query, tree));
  let density = (max 0 cost_io lsl 16) / max 1 pages in
  if
    cost_io < t.admit_min_io
    || pages > t.budget_pages
    || not (make_room t ~pages ~prio:(t.floor + density))
  then begin
    t.rejects <- t.rejects + 1;
    Metrics.incr m_rejects;
    false
  end
  else begin
    let bytes = Array.fold_left (fun n e -> n + Entry.byte_size e) 0 result in
    let stamps = current_stamps t footprint in
    let c =
      { query; tree; footprint; stamps; result; pages; bytes; density; prio = 0; used = 0; slot = 0 }
    in
    touch t c;
    push t c;
    Table.replace t.table (query, tree) c;
    t.used_pages <- t.used_pages + pages;
    t.used_bytes <- t.used_bytes + bytes;
    gauge_add m_pages pages;
    gauge_add m_bytes bytes;
    true
  end

(* --- Maintenance ---------------------------------------------------------- *)

let clear t =
  while t.size > 0 do
    drop t t.heap.(0)
  done

let budget_pages t = t.budget_pages

let set_budget_pages t n =
  t.budget_pages <- max 0 n;
  while t.used_pages > t.budget_pages do
    drop ~evicted:true t t.heap.(0)
  done

let admit_min_io t = t.admit_min_io
let set_admit_min_io t n = t.admit_min_io <- n

let check t =
  let fail what = failwith ("Cache.check: " ^ what) in
  let pages = ref 0 and bytes = ref 0 in
  for i = 0 to t.size - 1 do
    let c = t.heap.(i) in
    if c.slot <> i then fail "an entry lost its slot";
    if i > 0 && before c t.heap.((i - 1) / 2) then fail "heap order broken";
    (match Table.find_opt t.table (c.query, c.tree) with
    | Some c' when c' == c -> ()
    | _ -> fail "a heap entry is not in the table");
    pages := !pages + c.pages;
    bytes := !bytes + c.bytes
  done;
  if Table.length t.table <> t.size then fail "table and heap disagree";
  if !pages <> t.used_pages || !bytes <> t.used_bytes then fail "totals drifted";
  if t.used_pages > t.budget_pages then fail "over budget"

(* --- Stats ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  stale : int;
  evictions : int;
  rejects : int;
  entries : int;
  used_pages : int;
  used_bytes : int;
  budget_pages : int;
  admit_min_io : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    stale = t.stale;
    evictions = t.evictions;
    rejects = t.rejects;
    entries = t.size;
    used_pages = t.used_pages;
    used_bytes = t.used_bytes;
    budget_pages = t.budget_pages;
    admit_min_io = t.admit_min_io;
  }

let hit_rate s =
  let looked = s.hits + s.misses + s.stale in
  if looked = 0 then 0. else float_of_int s.hits /. float_of_int looked

(* The stats record as JSON, for the introspection server's /cache
   route (and anything else that wants a machine-readable snapshot). *)
let stats_json (t : t) =
  let s = stats t in
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("hits", num s.hits);
      ("misses", num s.misses);
      ("stale", num s.stale);
      ("hit_rate", Json.Num (hit_rate s));
      ("evictions", num s.evictions);
      ("rejects", num s.rejects);
      ("entries", num s.entries);
      ("used_pages", num s.used_pages);
      ("used_bytes", num s.used_bytes);
      ("budget_pages", num s.budget_pages);
      ("admit_min_io", num s.admit_min_io);
    ]

let pp ppf t =
  let s = stats t in
  Fmt.pf ppf
    "hits=%d misses=%d stale=%d (hit rate %.1f%%)@ entries=%d pages=%d/%d \
     bytes=%d@ evictions=%d admission_rejects=%d threshold_io=%d"
    s.hits s.misses s.stale
    (100. *. hit_rate s)
    s.entries s.used_pages s.budget_pages s.used_bytes s.evictions s.rejects
    s.admit_min_io
