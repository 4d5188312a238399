(** Query plans below the engine: cost-based access-path selection, the
    annotated-tree representation, the one pricing pass, a normalized
    plan fingerprint, and rendering.

    Section 8.2's evaluation strategy is fixed (bottom-up sorted
    pipeline), so a plan is the query tree annotated with predicted
    cardinality and page-I/O and, after profiling, measured values —
    plus one access-path decision per sub-scope atomic: secondary-index
    probe, dn-index subtree scan, or result-cache hit, each priced
    before any postings are materialized.  {!plan} prices a tree once,
    from a pager, an instance and optional index / cache / calibration
    handles rather than an engine; execution, {!Explain}, the query
    journal, the distributed coordinator and the server all read the
    node it returns. *)

(** {1 Access paths} *)

type path =
  | Index  (** secondary-index probe + scope/filter refinement + sort *)
  | Scan  (** clustering dn-index subtree scan *)
  | Cached  (** fresh result-cache entry re-served resident *)

val path_name : path -> string
(** ["index"], ["scan"], ["cache"] — the journal's vocabulary. *)

type alt = {
  alt_path : path;
  alt_rows : int;  (** estimated output cardinality on this path *)
  alt_reads : int;  (** estimated page reads to produce it *)
  alt_writes : int;  (** estimated output writes (a pipeline saves them) *)
}

type choice = {
  chosen : alt;
  rejected : alt list;  (** the alternatives, with the costs that lost *)
}

val choose_path :
  pager:Pager.t ->
  instance:Instance.t ->
  ?attr_index:Attr_index.t ->
  ?cache:Cache.t ->
  ?calib:Planstats.t ->
  ?streaming:bool ->
  ?force:path ->
  Ast.atomic ->
  choice
(** Price the access paths of one atomic and pick the cheapest by
    estimated reads (plus output writes unless [streaming], where both
    paths pipe).  The index path is priced from the attribute index's
    cardinality counters ({!Attr_index.count_int_range} and friends) —
    this system's optimizer statistics, so the probes' descent reads
    are refunded from the pager's counter: planning is free and a
    forced path costs exactly what auto-selection costs on that path.
    The cache path is priced from a read-only {!Cache.peek}.  With
    [calib], estimates are corrected by the learned per-path bias
    (["atomic:index"], ["atomic:scan"], falling back to ["atomic"]).
    [force] pins the decision to a path when it is available.  Base and
    one-level scopes, which only the dn-index serves, always choose
    [Scan].  The CPU cost does not grow with the directory: the
    instance size is O(1), the scope size is the width of the base's
    rank range ({!Instance.subtree_size}, O(log n)), and the index
    counters are O(log n) / O(|pattern|).  {!plan} calls it once per
    sub-scope atomic; nothing else in the library prices a path. *)

val int_bounds : Afilter.cmp -> int -> int * int
(** The closed key range an integer comparison probes — shared with the
    engine's index lookup so pricing and execution agree. *)

val substr_probe : Afilter.substring -> (string * bool) option
(** The component an indexed substring filter probes with: the longest
    available one (ties prefer the anchored initial component, whose
    exact-trie walk is cheaper).  [true] = anchored at the start.
    [None] for a bare [*]. *)

(** {1 The annotated plan tree} *)

type node = {
  label : string;  (** operator name, as the walker names its span *)
  query : Ast.t;
      (** the subtree this node prices, as it runs: at the root, the
          tree to evaluate *)
  est_rows : int;
  est_io : int;  (** = [est_reads + est_writes] *)
  est_reads : int;
  est_writes : int;
  est_writes_saved : int;
      (** writes a streaming pipeline avoids at this node (Theorem 8.3);
          0 at materialized boundaries and for the root's own output *)
  actual_rows : int option;
  actual_io : int option;
  actual_ns : int option;  (** wall-clock nanoseconds, excluding children *)
  actual_alloc : int option;
      (** bytes allocated by the operator, excluding children *)
  access : choice option;
      (** the access-path decision, on sub-scope atomic nodes *)
  children : node list;
}

val plan :
  pager:Pager.t ->
  instance:Instance.t ->
  ?attr_index:Attr_index.t ->
  ?cache:Cache.t ->
  ?calib:Planstats.t ->
  ?streaming:bool ->
  ?force:path ->
  reorder:bool ->
  Ast.t ->
  node
(** The one pricing pass: every sub-scope atomic priced once through
    {!choose_path} with the given handles (its {!node.access} is the
    decision execution follows), every operator from its children's
    rows.  With [reorder], maximal [And] / [Or] chains are rebuilt
    left-deep ascending by those same row estimates; [And]/[Or] being
    commutative and associative over sorted entry lists, results are
    unchanged, and intermediate sizes (with them comparisons, and
    boundary writes when materialized) only shrink when the estimates
    are right.  Order-sensitive operators ([Diff], hierarchical,
    references) keep their operand order.  The root's [query] is the
    tree to run.  Without any handles the pass degrades to the
    selectivity-based scan model.  No text is built: a node's filter /
    aggregate text is rendered from its [query] when it is printed. *)

val estimate :
  pager:Pager.t ->
  instance:Instance.t ->
  ?attr_index:Attr_index.t ->
  ?cache:Cache.t ->
  ?calib:Planstats.t ->
  ?streaming:bool ->
  ?force:path ->
  Ast.t ->
  node
(** {!plan} of the tree as given, without reordering. *)

val access : node -> Ast.t -> choice option
(** The access decision a plan took for one of its atomics, found by
    identity among the subtrees of its root's [query]. *)

val op_label : Ast.t -> string
(** The operator name of a tree's root: ["atomic"], ["&"], ["vd"], ... *)

val shape : Ast.t -> string
(** The normalized plan: the operator tree with literal constants
    elided, so equal shapes mean "the same plan with different
    constants". *)

val fingerprint : Ast.t -> string
(** 16-hex-digit FNV-1a digest of {!shape} — the journal's plan key. *)

val pp_node : Format.formatter -> node -> unit
(** Renders each node's estimated-vs-actual row; atomic nodes with an
    access decision additionally print the chosen path and the rejected
    alternatives with their losing costs. *)

val to_string : node -> string

val total_actual_io : node -> int
(** Sum of the per-operator actual I/O over the whole plan. *)

val total_actual_ns : node -> int
(** Sum of the per-operator wall-clock time over the whole plan. *)

val total_est_writes_saved : node -> int
(** Sum of {!node.est_writes_saved} over the whole plan: the page
    writes a streaming evaluation is predicted to avoid. *)

val total_est_reads : node -> int
(** Sum of {!node.est_reads} over the whole plan. *)

val total_est_writes : node -> int
(** Sum of {!node.est_writes} over the whole plan. *)

val flatten : node -> (node * int) list
(** Preorder traversal with depths (root at depth 0) — the same shape
    [Qlog.ops_of_span] produces from a span tree, so per-operator
    estimates pair positionally with per-operator actuals. *)
