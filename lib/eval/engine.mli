(** The query evaluation engine (Section 8.2).

    Bottom-up evaluation of the query tree: atomic queries come sorted
    off the clustering dn-index (optionally index-assisted), and every
    operator consumes and produces canonically sorted lists, so nothing
    is ever re-sorted.  One walker ({!walk}) evaluates every tree — the
    engine's own, {!Explain.profile}'s, the distributed coordinator's
    and the fusion rewrite's — with the operator-boundary {!mode} as an
    edge policy inside it. *)

(** How operator boundaries are handled (Theorem 8.3): [Materialized]
    writes every intermediate result and re-reads it; [Streaming] fuses
    the tree into one pipeline, materializing only the root result, sort
    boundaries (Eref pair lists) and double-consumed operands. *)
type mode = Materialized | Streaming

(** How atomic access paths are decided.  [Auto] (the default) is the
    cost-based planner: per sub-scope atomic, price secondary-index
    probe vs dn-index subtree scan vs result-cache hit from the index's
    cardinality counters (calibrated by an attached {!Planstats} store)
    and take the cheapest, and reorder maximal [And]/[Or] chains
    ascending by estimated cardinality.  [Force_index] / [Force_scan]
    pin every atomic to one path and skip reordering — the clean
    baselines the planner is benchmarked against. *)
type planner = Auto | Force_index | Force_scan

type t

val create :
  ?block:int ->
  ?window:int ->
  ?with_attr_index:bool ->
  ?cache_pages:int ->
  ?result_cache:Cache.t ->
  ?stats:Io_stats.t ->
  ?mode:mode ->
  ?planner:planner ->
  ?directory:Directory.t ->
  Instance.t ->
  t
(** Build an engine over an instance.  [block] is the blocking factor
    (default 64), [window] the per-operator stack window in pages
    (default 2), [with_attr_index] controls secondary-index-assisted
    atomic evaluation (default on), [result_cache] plugs in a semantic
    query-result cache (default none — caching is opt-in), [mode] the
    default operator-boundary handling (default [Streaming]), [planner]
    the access-path policy (default [Auto]), [directory] a live
    directory to answer from.  Index construction cost is not charged
    to the query counters.

    Before each evaluation and {!dn_index} read, an engine with a
    [directory] whose instance an update replaced takes the new one:
    the dn-index is a view of it, and {!Instance.diff} hands only the
    changed entries to the attribute index, patched in place.  This
    maintenance is not query cost, and the engine registers no hook
    with the directory. *)

val mode : t -> mode
(** The engine's default boundary mode. *)

val set_mode : t -> mode -> unit
(** Change the default boundary mode (the shell's [:mode] command). *)

val planner : t -> planner
val set_planner : t -> planner -> unit
(** Change the access-path policy (the shell's [:planner] command). *)

val calibration : t -> Planstats.t option

val set_calibration : t -> Planstats.t option -> unit
(** Attach (or detach) a {!Planstats} store: the planner's estimates
    are then corrected by its learned per-path bias factors, closing
    the observe–calibrate loop. *)

val path_counts : t -> int * int * int
(** [(index, scan, cache)]: how many sub-scope atomics each access path
    served since the engine was built (the [:planner paths] view). *)

val plan_rewrite : ?mode:mode -> t -> Ast.t -> Ast.t
(** The planner's tree rewrite as {!eval} applies it: under [Auto],
    boolean chains reordered by estimated cardinality; otherwise the
    tree unchanged.  Exposed so {!Explain} can show the tree that would
    actually run. *)

val stats : t -> Io_stats.t
val pager : t -> Pager.t
val instance : t -> Instance.t

val window : t -> int
(** The per-operator stack window in pages. *)

val dn_index : t -> Dn_index.t
(** The engine's clustering index (shared with the fusion optimizer),
    over the watched directory's current instance. *)

val attr_index : t -> Attr_index.t option
(** The per-attribute secondary indexes, when built — the planner's
    statistics source (shared with the distributed journal).  The same
    value for the engine's whole life: after a watched directory's
    update, the next evaluation patches it in place. *)

val cache : t -> Buffer_pool.t option
(** The buffer pool, when [cache_pages > 0]. *)

val result_cache : t -> Cache.t option
(** The semantic result cache handed to {!create}, if any. *)

val reset_stats : t -> unit

val walk :
  pager:Pager.t ->
  window:int ->
  mode:mode ->
  leaf:(Ast.t -> Entry.t Ext_list.Source.src option) ->
  Ast.t ->
  Entry.t Ext_list.t
(** The query-tree walker: one traced span per node (children left to
    right), charged to [pager], hierarchical operators sweeping with a
    [window]-page stack.  [leaf] must answer every atomic and may
    intercept any other subtree.  [mode] is the policy at each edge:
    [Streaming] pipelines every operator, [Materialized] runs each
    operator's list entry point and writes every node's output (a
    leaf's included) inside its span.  The root result is materialized
    in both modes.  No planner rewrite, result cache, metrics or
    journal: those are {!eval}'s. *)

val leaf : t -> mode -> Ast.t -> Entry.t Ext_list.Source.src option
(** The engine's leaf for {!walk}: atomics answered from its indexes
    (or its result cache) through the access-path planner; no other
    subtree is intercepted. *)

val union :
  mode:mode ->
  Pager.t ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src
(** The walker's [|] node over two sources under the given edge
    policy (the distributed coordinator's shard merge). *)

val eval_node_src : t -> Ast.t -> Entry.t Ext_list.Source.src
(** {!walk} with the engine's leaf as one fused pipeline, returning
    the root's live source unmaterialized.  Used by the server, which
    ships rows as they are pulled; {!eval} materializes the root. *)

val estimate : mode:mode -> t -> Ast.t -> Plan.node
(** The engine-bound estimate of a tree as given (no rewrite): the
    engine's index / cache / calibration handles under its current
    planner policy, costs assuming [mode]. *)

val eval : ?mode:mode -> t -> Ast.t -> Entry.t Ext_list.t
(** Evaluate a query tree; the result list is canonically sorted.
    [mode] overrides the engine's default boundary handling for this
    call; under [Streaming] the whole tree runs as one pipeline and only
    the root result is written.
    Every call is one {!ledger} run (root span ["execute"], origin
    ["engine"]).

    With a [result_cache], the evaluation is preceded by a cache lookup
    (a fresh entry is served as a resident list, charging no page io)
    and followed by a store offer on miss or staleness; every journal
    event then carries the cache outcome ([hit|miss|stale], or
    [bypass] without a cache).  A hit plans nothing, so its event
    carries no estimate. *)

(** {1 The query ledger}

    The one path that measures and records a query run, shared by
    {!eval} (hit or miss), the distributed coordinator and the server. *)

(** What a run answers: a tree (journaled as its printed text), or
    text the run parses itself (journaled verbatim). *)
type subject = Tree of Ast.t | Text of string

(** What a run reports back. *)
type report = {
  planned : Ast.t option;
      (** the tree whose plan ran: estimated and fingerprinted for the
          journal.  [None] for a cache hit (fingerprinted from a [Tree]
          subject, no estimate) or text that never parsed (fingerprint
          ["(parse)"]). *)
  rows : int;  (** result rows delivered *)
  failure : (Tail.outcome * string) option;
      (** a failure the run returned instead of raising (a deadline, a
          parse error): its [Tail] outcome and journal message *)
}

(** The journal fields that differ by caller, read after the run and
    only when the journal is open. *)
type note = {
  cache : string option;  (** result-cache outcome *)
  server : string option;  (** the answering server *)
  shipped : (string * int * int) list option;  (** per-server shipping *)
  annotate : mode:mode -> Plan.node -> Qlog.op list -> Qlog.op list;
      (** joins the estimated plan onto the span tree's rows *)
}

(** What the ledger measured, for the caller's metrics. *)
type cost = {
  wall_ns : int;
  reads : int;
  writes : int;
  alloc_bytes : int;  (** {!Mclock.allocated_words} delta, in bytes *)
  trace_id : string option;  (** the root span's, when traced *)
}

val plain_note : string option -> unit -> note
(** A single engine's note: the given cache outcome, no server or
    shipping, and the positional join of plan nodes onto the walker's
    operator rows. *)

val ledger :
  t ->
  mode:mode ->
  label:string ->
  origin:string ->
  Io_stats.t ->
  subject ->
  note:(unit -> note) ->
  (unit -> 'a * report) ->
  'a * cost
(** [ledger t ~mode ~label ~origin stats subject ~note run] runs [run]
    inside one root span named [label], reading the clock, [stats]'
    page counters and the allocation meter around it.  When the query
    journal ({!Qlog}) is open, tracing is forced on for the run and
    one event is recorded: the text and fingerprint of [subject], the
    run's rows and outcome, the measured cost, the span tree's
    operator rows joined by [note]'s [annotate] to [t]'s estimate of
    the planned tree under [mode] ({!estimate}), the access paths and
    estimate totals and, when [Tail.is_slow wall_ns], a capture (span
    tree + rendered plan).  The span tree, with the event when
    journaled, is then offered to [Tail] as [origin] with the same
    wall time.  A run that raises is journaled as [Failed] and offered
    as [`Error], and the exception is re-raised.  An untraced,
    unjournaled run takes no lock and computes no estimate. *)

val with_forced_tracing : bool -> (unit -> 'a) -> 'a
(** [with_forced_tracing force f] runs [f] with span tracing enabled
    when [force] asks for it and tracing is off, restoring the previous
    state after.  The ledger forces it for journaled runs; the server
    and [Explain] force it for every run. *)

val eval_entries : ?mode:mode -> t -> Ast.t -> Entry.t list

val eval_instance : ?mode:mode -> t -> Ast.t -> Instance.t
(** Wrap the result back into an instance (closure property). *)

val eval_string : ?mode:mode -> t -> string -> Ast.t * Entry.t list
(** Parse (schema-aware) and evaluate. *)

(** RFC-2696-style paged results. *)
type page = {
  entries : Entry.t list;
  cookie : string option;  (** [None]: no more pages *)
}

val eval_paged : ?mode:mode -> t -> ?page_size:int -> ?cookie:string -> Ast.t -> page
(** Deliver the result page by page: pass each page's [cookie] back to
    get the next one.  The cookie encodes the last delivered key, so
    paging is stable across re-evaluation.
    @raise Invalid_argument if [page_size <= 0]. *)
