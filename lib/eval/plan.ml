(* Query plans: the annotated-tree representation, cost-based access-path
   selection, the one pricing pass, a normalized plan fingerprint, and
   rendering.

   The paper's Section 8.2 evaluation strategy is fixed (bottom-up,
   sorted pipeline), so a "plan" here is the query tree annotated with
   costs — plus, since the planner became cost-based, one access-path
   decision per sub-scope atomic: index probe + prefix filter + sort,
   dn-index subtree scan, or a result-cache hit, each priced in page
   reads/writes before any postings are materialized.  [plan] prices a
   tree once, from a pager, an instance and optional index / cache /
   calibration handles, resolving each atomic (base range, index probe,
   cache text) on its node; execution, [Explain], the query journal,
   the distributed coordinator and the server all read the node it
   returns, so no two of them can decide or derive differently. *)

(* --- Access paths ------------------------------------------------------------ *)

type path = Index | Scan | Cached

let path_name = function Index -> "index" | Scan -> "scan" | Cached -> "cache"

type alt = {
  alt_path : path;
  alt_rows : int;  (* estimated output cardinality on this path *)
  alt_reads : int;  (* estimated page reads to produce it *)
  alt_writes : int;  (* estimated output writes (a pipeline saves them) *)
}

type choice = { chosen : alt; rejected : alt list }

type atom = {
  range : Instance.range;  (* the base, resolved in the priced instance *)
  probe : Attr_index.probe option;  (* sub scope, with an index *)
  text : string option;  (* the printed atomic: sub scope, with a cache *)
}

type node = {
  label : string;  (* operator name *)
  query : Ast.t;  (* the subtree this node prices, as it runs *)
  est_rows : int;
  est_io : int;  (* = est_reads + est_writes *)
  est_reads : int;
  est_writes : int;
  est_writes_saved : int;  (* writes a streaming pipeline avoids *)
  actual_rows : int option;
  actual_io : int option;
  actual_ns : int option;  (* wall-clock, excluding children *)
  actual_alloc : int option;  (* bytes allocated, excluding children *)
  access : choice option;  (* the atomic's access-path decision, if any *)
  atom : atom option;  (* the atomic's resolution *)
  children : node list;
}

(* Operator names: plan node labels and the walker's span names. *)
let op_label : Ast.t -> string = function
  | Ast.Atomic _ -> "atomic"
  | Ast.And _ -> "&"
  | Ast.Or _ -> "|"
  | Ast.Diff _ -> "-"
  | Ast.Hier (op, _, _, _) -> Qprinter.hier_op_to_string op
  | Ast.Hier3 (op, _, _, _, _) -> Qprinter.hier_op3_to_string op
  | Ast.Gsel _ -> "g"
  | Ast.Eref (op, _, _, _, _) -> Qprinter.ref_op_to_string op

(* Assemble a node from the read/write decomposition; [est_io] stays the
   sum so existing consumers keep one number. *)
let mk ?access ?atom ~query ~est_rows ~est_reads ~est_writes
    ~est_writes_saved children =
  {
    label = op_label query;
    query;
    est_rows;
    est_io = est_reads + est_writes;
    est_reads;
    est_writes;
    est_writes_saved = max 0 est_writes_saved;
    actual_rows = None;
    actual_io = None;
    actual_ns = None;
    actual_alloc = None;
    access;
    atom;
    children;
  }

(* --- Cardinality estimation: selectivity fallback ----------------------------- *)

(* Crude textbook selectivities, the fallback when no index can be
   probed; the point is order-of-magnitude cost attribution, not a real
   optimizer. *)
let filter_selectivity = function
  | Afilter.Present _ -> 0.6
  | Afilter.Str_eq (a, _) when String.equal a Schema.object_class -> 0.4
  | Afilter.Str_eq _ -> 0.1
  | Afilter.Substr _ -> 0.2
  | Afilter.Int_cmp (_, Afilter.Eq, _) -> 0.05
  | Afilter.Int_cmp _ -> 0.33
  | Afilter.Dn_eq _ -> 0.01

let pages pager n = Pager.pages_of pager n

(* --- Normalized plan fingerprint ---------------------------------------------- *)

(* The evaluation strategy being fixed, the plan of a query is its
   operator tree; the fingerprint is that tree with literal constants
   elided, so the journal groups "the same query with different
   constants" under one plan. *)

let filter_shape = function
  | Afilter.Present a -> a ^ "=*"
  | Afilter.Str_eq (a, _) -> a ^ "=?"
  | Afilter.Substr (a, _) -> a ^ "~?"
  | Afilter.Int_cmp (a, op, _) ->
      a
      ^ (match op with
        | Afilter.Lt -> "<"
        | Afilter.Le -> "<="
        | Afilter.Eq -> "="
        | Afilter.Ge -> ">="
        | Afilter.Gt -> ">")
      ^ "?"
  | Afilter.Dn_eq (a, _) -> a ^ "=dn:?"

let agg_shape = function None -> "" | Some _ -> ";agg"

let rec shape (q : Ast.t) =
  match q with
  | Ast.Atomic a ->
      Printf.sprintf "atomic(%s;%s;%s)"
        (Dn.to_string a.Ast.base)
        (Ast.scope_to_string a.Ast.scope)
        (filter_shape a.Ast.filter)
  | Ast.And (q1, q2) -> "&(" ^ shape q1 ^ "," ^ shape q2 ^ ")"
  | Ast.Or (q1, q2) -> "|(" ^ shape q1 ^ "," ^ shape q2 ^ ")"
  | Ast.Diff (q1, q2) -> "-(" ^ shape q1 ^ "," ^ shape q2 ^ ")"
  | Ast.Hier (op, q1, q2, agg) ->
      Qprinter.hier_op_to_string op
      ^ "(" ^ shape q1 ^ "," ^ shape q2 ^ agg_shape agg ^ ")"
  | Ast.Hier3 (op, q1, q2, q3, agg) ->
      Qprinter.hier_op3_to_string op
      ^ "(" ^ shape q1 ^ "," ^ shape q2 ^ "," ^ shape q3 ^ agg_shape agg ^ ")"
  | Ast.Gsel (q1, f) ->
      "g(" ^ shape q1 ^ ";" ^ Qprinter.agg_filter_to_string f ^ ")"
  | Ast.Eref (op, q1, q2, attr, agg) ->
      Qprinter.ref_op_to_string op
      ^ "(" ^ shape q1 ^ "," ^ shape q2 ^ ";" ^ attr ^ agg_shape agg ^ ")"

(* FNV-1a, 64-bit: tiny, stable across runs (unlike Hashtbl.hash no
   promise is broken by a compiler upgrade changing it: the constants
   are spelled out here). *)
let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fingerprint q = Printf.sprintf "%016Lx" (fnv64 (shape q))

(* --- Access-path selection ------------------------------------------------------ *)

(* Apply a calibration store's learned corrections to an estimated
   alternative: per-path classes ("atomic:index", "atomic:scan") first,
   the plain "atomic" class as fallback, nothing when there is no
   support.  This is where self-tuning has leverage — e.g. the suffix
   trie's collection really costs more than the [c]-reads proxy below,
   the reads bias on "atomic:index" learns the multiplier, and a
   mid-selectivity substring flips from index to scan. *)
let calibrate pager calib alt =
  match calib with
  | None -> alt
  | Some st ->
      let cls = "atomic:" ^ path_name alt.alt_path in
      let lookup f =
        match f st ~op:cls ~rows:alt.alt_rows with
        | Some _ as b -> b
        | None -> f st ~op:"atomic" ~rows:alt.alt_rows
      in
      let corrected v = function
        | None -> v
        | Some b -> int_of_float ((float_of_int v *. b) +. 0.5)
      in
      let rows = corrected alt.alt_rows (lookup Planstats.bias_card) in
      let reads = corrected alt.alt_reads (lookup Planstats.bias_reads) in
      { alt with alt_rows = rows; alt_reads = reads; alt_writes = pages pager rows }

(* The selectivity model's output cardinality over [n] scoped entries. *)
let scope_rows n (a : Ast.atomic) =
  max 0 (int_of_float (float_of_int n *. filter_selectivity a.Ast.filter))

(* --- The one pricing pass ---------------------------------------------------- *)

type ctx = {
  c_pager : Pager.t;
  c_instance : Instance.t;
  c_attr_index : Attr_index.t option;
  c_cache : Cache.t option;
  c_calib : Planstats.t option;
  c_streaming : bool;
  c_force : path option;
  c_reorder : bool;
}

(* Resolve an atomic once, for pricing and execution alike: its base's
   key and rank range, and for a sub-scope atomic the index probe and
   the cache key text when those handles are attached. *)
let resolve ctx q (a : Ast.atomic) =
  let sub = a.Ast.scope = Ast.Sub in
  {
    range = Instance.resolve ctx.c_instance a.Ast.base;
    probe =
      (match ctx.c_attr_index with
      | Some _ when sub -> Attr_index.probe a.Ast.filter
      | _ -> None);
    text = (match ctx.c_cache with Some _ when sub -> Some (Qprinter.to_string q) | _ -> None);
  }

(* Entries at or below the base: what a [one] or [sub] scan reads. *)
let width atom = atom.range.Instance.hi - atom.range.Instance.lo

(* Price the access paths of one resolved sub-scope atomic and pick the
   cheapest (or the forced one).  The index probe consults maintained
   counters — they are this system's optimizer statistics, so their
   descents are refunded from the pager's read counter: planning is
   free, execution pays only for the path actually taken, and a
   forced-path run costs exactly what the auto-chosen run costs on the
   same path. *)
let choose ctx q (a : Ast.atomic) atom =
  let pager = ctx.c_pager and calib = ctx.c_calib in
  let scope_size = width atom in
  let sel_rows = scope_rows scope_size a in
  let scan =
    calibrate pager calib
      {
        alt_path = Scan;
        alt_rows = sel_rows;
        alt_reads = 1 + pages pager scope_size;
        alt_writes = pages pager sel_rows;
      }
  in
  let index =
    match (ctx.c_attr_index, atom.probe) with
    | None, _ | _, None -> None
    | Some idx, Some probe ->
        let stats = Pager.stats pager in
        let r0 = stats.Io_stats.page_reads in
        let c = Attr_index.count idx probe in
        let descent = stats.Io_stats.page_reads - r0 in
        stats.Io_stats.page_reads <- r0;
        (* candidates are instance-wide; the scope prefix filter keeps
           roughly the subtree's share, and a component probe
           (substring patterns) overshoots the full pattern *)
        let frac =
          float_of_int scope_size /. float_of_int (max 1 (Instance.size ctx.c_instance))
        in
        let exactness =
          match probe with
          | Attr_index.Int_range _ | Attr_index.Exact _ | Attr_index.Ref _ -> 1.0
          | Attr_index.Prefix _ | Attr_index.Substring _ -> 0.5
        in
        let rows = min c (int_of_float ((float_of_int c *. frac *. exactness) +. 0.5)) in
        (* the lookup re-walks the probe's descent, then collects:
           half-full order-16 leaves for the B-tree, the terminal list
           for exact tries (already in hand), about one node per payload
           for prefix / suffix subtree walks; reading the candidate
           postings bills like any scan *)
        let descent, collect =
          match probe with
          | Attr_index.Int_range _ -> (max 1 (descent / 2), (c + 7) / 8)
          | Attr_index.Exact _ | Attr_index.Ref _ -> (descent, 0)
          | Attr_index.Prefix _ | Attr_index.Substring _ -> (descent, c)
        in
        Some
          (calibrate pager calib
             {
               alt_path = Index;
               alt_rows = rows;
               alt_reads = descent + collect + pages pager c;
               alt_writes = pages pager rows;
             })
  in
  let cached =
    match (ctx.c_cache, atom.text) with
    | None, _ | _, None -> None
    | Some c, Some query -> (
        match Cache.peek c ~query q with
        | Some arr ->
            (* the cached array re-serves as a resident list: no reads,
               no output write, and the cardinality is exact *)
            Some { alt_path = Cached; alt_rows = Array.length arr; alt_reads = 0; alt_writes = 0 }
        | None -> None)
  in
  let alts = List.filter_map Fun.id [ cached; index; Some scan ] in
  let cost alt = alt.alt_reads + if ctx.c_streaming then 0 else alt.alt_writes in
  let best =
    List.fold_left (fun b a -> if cost a < cost b then a else b) (List.hd alts) (List.tl alts)
  in
  let chosen =
    match ctx.c_force with
    | None -> best
    | Some p -> (
        (* a forced path that is not available falls back to the best *)
        match List.find_opt (fun alt -> alt.alt_path = p) alts with
        | Some alt -> alt
        | None -> best)
  in
  { chosen; rejected = List.filter (fun alt -> alt != chosen) alts }

(* One bottom-up pass prices every node: each atomic resolved once and
   each sub-scope one priced through [choose], and every operator from
   its children's rows.
   With [c_reorder], the operands of a maximal [And] / [Or] chain are
   sorted ascending by those same row estimates and the chain is rebuilt
   left-deep, so the returned node's [query] is the tree to run and its
   numbers are that tree's.  Ascending [And] chains drive every
   intermediate toward the most selective operand's size: fewer
   comparisons always, fewer boundary writes when materialized.  [Diff]
   and the hierarchical operators are order-sensitive: their operands
   only recurse.  No text is built here but a cached atomic's key;
   [detail] renders a node's [query] when it is printed. *)
let rec price ctx (q : Ast.t) =
  let pages = pages ctx.c_pager in
  match q with
  | Ast.Atomic a -> (
      let atom = resolve ctx q a in
      match a.Ast.scope with
      | Ast.Sub ->
          (* cost-based: the chosen access path prices the node *)
          let choice = choose ctx q a atom in
          let c = choice.chosen in
          mk ~access:choice ~atom ~query:q ~est_rows:c.alt_rows
            ~est_reads:c.alt_reads ~est_writes:c.alt_writes
            ~est_writes_saved:c.alt_writes []
      | Ast.Base | Ast.One ->
          (* a [one] scan reads the whole subtree range, filtered by depth *)
          let scope_size = if a.Ast.scope = Ast.Base then 1 else width atom in
          let est_rows = scope_rows scope_size a in
          (* descent + range scan; streaming skips the output write *)
          mk ~atom ~query:q ~est_rows
            ~est_reads:(1 + pages scope_size)
            ~est_writes:(pages est_rows)
            ~est_writes_saved:(pages est_rows) [])
  | Ast.And (q1, q2) | Ast.Or (q1, q2) -> (
      let is_and = match q with Ast.And _ -> true | _ -> false in
      (* operands of the maximal chain, in source order *)
      let rec operands q acc =
        match q with
        | Ast.And (a, b) when is_and -> operands a (operands b acc)
        | Ast.Or (a, b) when not is_and -> operands a (operands b acc)
        | _ -> q :: acc
      in
      let priced =
        if ctx.c_reorder then
          List.stable_sort
            (fun n1 n2 -> Int.compare n1.est_rows n2.est_rows)
            (List.map (price ctx) (operands q []))
        else [ price ctx q1; price ctx q2 ]
      in
      match priced with
      | [] -> assert false
      | first :: rest ->
          List.fold_left
            (fun c1 c2 ->
              let est_rows, query =
                if is_and then
                  (min c1.est_rows c2.est_rows / 2, Ast.And (c1.query, c2.query))
                else (c1.est_rows + c2.est_rows, Ast.Or (c1.query, c2.query))
              in
              binary ctx query est_rows c1 c2)
            first rest)
  | Ast.Diff (q1, q2) ->
      let c1 = price ctx q1 and c2 = price ctx q2 in
      binary ctx (Ast.Diff (c1.query, c2.query)) (c1.est_rows / 2) c1 c2
  | Ast.Hier (op, q1, q2, agg) ->
      let c1 = price ctx q1 and c2 = price ctx q2 in
      let est_rows = c1.est_rows / 2 in
      let p1 = pages c1.est_rows in
      (* merged scan + annotation rescan (reads); annotated copy + output
         (writes).  A pipeline skips both writes, unless the aggregate
         filter needs entry sets, which keeps the annotated copy. *)
      mk
        ~query:(Ast.Hier (op, c1.query, c2.query, agg))
        ~est_rows
        ~est_reads:((2 * p1) + pages c2.est_rows)
        ~est_writes:(p1 + pages est_rows)
        ~est_writes_saved:
          (pages est_rows + if hier_keeps_annots agg then 0 else p1)
        [ c1; c2 ]
  | Ast.Hier3 (op, q1, q2, q3, agg) ->
      let c1 = price ctx q1 and c2 = price ctx q2 and c3 = price ctx q3 in
      let est_rows = c1.est_rows / 2 in
      let p1 = pages c1.est_rows in
      mk
        ~query:(Ast.Hier3 (op, c1.query, c2.query, c3.query, agg))
        ~est_rows
        ~est_reads:((2 * p1) + pages c2.est_rows + pages c3.est_rows)
        ~est_writes:(p1 + pages est_rows)
        ~est_writes_saved:
          (pages est_rows + if hier_keeps_annots agg then 0 else p1)
        [ c1; c2; c3 ]
  | Ast.Gsel (q1, f) ->
      let c1 = price ctx q1 in
      let scans = if Simple_agg.needs_global f then 2 else 1 in
      let est_rows = c1.est_rows / 2 in
      (* A global aggregate consumes its input twice, so a pipeline must
         force a live input resident — charging back one write. *)
      mk ~query:(Ast.Gsel (c1.query, f)) ~est_rows
        ~est_reads:(scans * pages c1.est_rows)
        ~est_writes:(pages est_rows)
        ~est_writes_saved:
          (pages est_rows - if scans > 1 then pages c1.est_rows else 0)
        [ c1 ]
  | Ast.Eref (op, q1, q2, attr, agg) ->
      let c1 = price ctx q1 and c2 = price ctx q2 in
      let m = 2 (* assumed mean reference fan-out *) in
      let source = match op with Ast.Vd -> c1.est_rows | Ast.Dv -> c2.est_rows in
      let p = max 1 (pages (source * m)) in
      let rec log2 n = if n <= 1 then 1 else 1 + log2 (n / 2) in
      let est_rows = c1.est_rows / 2 in
      (* The pair list and its sort are boundaries either way; [vd]
         consumes $1 twice, so streaming forces it resident. *)
      mk
        ~query:(Ast.Eref (op, c1.query, c2.query, attr, agg))
        ~est_rows
        ~est_reads:((p * log2 p) + pages c1.est_rows + pages c2.est_rows)
        ~est_writes:((p * log2 p) + pages est_rows)
        ~est_writes_saved:
          (pages est_rows
          - match op with Ast.Vd -> pages c1.est_rows | Ast.Dv -> 0)
        [ c1; c2 ]

and binary ctx query est_rows c1 c2 =
  let pages = pages ctx.c_pager in
  mk ~query ~est_rows
    ~est_reads:(pages c1.est_rows + pages c2.est_rows)
    ~est_writes:(pages est_rows) ~est_writes_saved:(pages est_rows)
    [ c1; c2 ]

(* Does the hierarchical operator's finish phase keep a materialized
   annotated copy even when streaming?  Only when the filter aggregates
   over entry sets (the copy is rescanned to collect global values). *)
and hier_keeps_annots agg =
  Hs_agg.has_entry_set_aggs (Option.value ~default:Ast.has_witness agg)

(* The root's result is materialized in every mode (it is what the
   caller scans), so its own output write is never saved. *)
let plan ~pager ~instance ?attr_index ?cache ?calib ?(streaming = false) ?force
    ~reorder q =
  let ctx =
    {
      c_pager = pager;
      c_instance = instance;
      c_attr_index = attr_index;
      c_cache = cache;
      c_calib = calib;
      c_streaming = streaming;
      c_force = force;
      c_reorder = reorder;
    }
  in
  let n = price ctx q in
  let root_out = pages pager n.est_rows in
  { n with est_writes_saved = max 0 (n.est_writes_saved - root_out) }

let estimate ~pager ~instance ?attr_index ?cache ?calib ?streaming ?force q =
  plan ~pager ~instance ?attr_index ?cache ?calib ?streaming ?force
    ~reorder:false q

(* The node the pass made for the atomic [q], a subtree of the planned
   tree (found by identity: the pass keeps every atomic). *)
let rec find n q = if n.query == q then Some n else List.find_map (fun c -> find c q) n.children

let rec resolved_in inst n =
  (match n.atom with Some a -> a.range.Instance.inst == inst | None -> true)
  && List.for_all (resolved_in inst) n.children

(* --- Rendering --------------------------------------------------------------- *)

(* A node's filter / aggregate text, built only when it is printed. *)
let detail n =
  let agg = function
    | None -> "count($2) > 0"
    | Some f -> Qprinter.agg_filter_to_string f
  in
  match n.query with
  | Ast.Atomic a ->
      Printf.sprintf "%s ? %s ? %s" (Dn.to_string a.Ast.base)
        (Ast.scope_to_string a.Ast.scope)
        (Afilter.to_string a.Ast.filter)
  | Ast.And _ | Ast.Or _ | Ast.Diff _ -> ""
  | Ast.Hier (_, _, _, f) | Ast.Hier3 (_, _, _, _, f) -> agg f
  | Ast.Gsel (_, f) -> Qprinter.agg_filter_to_string f
  | Ast.Eref (_, _, _, attr, None) -> attr
  | Ast.Eref (_, _, _, attr, Some f) -> attr ^ " " ^ Qprinter.agg_filter_to_string f

let pp_alt ppf a =
  Fmt.pf ppf "%s rows=%d reads=%d+%dw" (path_name a.alt_path) a.alt_rows
    a.alt_reads a.alt_writes

let rec pp_node ppf (n : node) =
  let opt = function None -> "-" | Some v -> string_of_int v in
  let time = function None -> "-" | Some ns -> Mclock.ns_to_string ns in
  let bytes = function
    | None -> "-"
    | Some b -> Fmt.str "%a" Trace.pp_bytes b
  in
  Fmt.pf ppf
    "@[<v2>%s%s  [rows est=%d got=%s | io est=%d (%dr+%dw, saves %dw) \
     got=%s | alloc=%s | t=%s]%a%a@]"
    n.label
    (match detail n with "" -> "" | d -> " " ^ d)
    n.est_rows (opt n.actual_rows) n.est_io n.est_reads n.est_writes
    n.est_writes_saved (opt n.actual_io)
    (bytes n.actual_alloc)
    (time n.actual_ns)
    (fun ppf access ->
      match access with
      | None -> ()
      | Some ch ->
          Fmt.pf ppf "@,path %a%a" pp_alt ch.chosen
            (fun ppf rejected ->
              List.iter (fun a -> Fmt.pf ppf "  !%a" pp_alt a) rejected)
            ch.rejected)
    n.access
    (fun ppf children ->
      List.iter (fun c -> Fmt.pf ppf "@,%a" pp_node c) children)
    n.children

let to_string n = Fmt.str "%a" pp_node n

let rec sum f n = List.fold_left (fun a c -> a + sum f c) (f n) n.children
let total_actual_io = sum (fun n -> Option.value ~default:0 n.actual_io)
let total_actual_ns = sum (fun n -> Option.value ~default:0 n.actual_ns)
let total_est_writes_saved = sum (fun n -> n.est_writes_saved)
let total_est_reads = sum (fun n -> n.est_reads)
let total_est_writes = sum (fun n -> n.est_writes)

(* Preorder flattening with depths, the same shape [Qlog.ops_of_span]
   lifts from a span tree — the engine pairs the two row lists to join
   estimates onto the journal's per-operator actuals. *)
let flatten n =
  let rec go depth n acc =
    List.fold_left
      (fun acc c -> go (depth + 1) c acc)
      ((n, depth) :: acc) n.children
  in
  List.rev (go 0 n [])
