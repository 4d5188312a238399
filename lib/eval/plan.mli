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

(** How the pricing pass resolved one atomic; execution reads it
    instead of deriving any of it again. *)
type atom = {
  range : Instance.range;
      (** the base's key and rank range ({!Instance.resolve}), in the
          instance the pass priced *)
  probe : Attr_index.probe option;
      (** the filter's index probe: sub scope, index attached, filter
          indexable *)
  text : string option;
      (** the atomic's printed text, its result-cache key: sub scope,
          cache attached *)
}

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
  atom : atom option;  (** the resolution, on atomic nodes *)
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
(** The one pricing pass.  Every atomic is resolved once ({!atom}) in
    [instance], and every sub-scope atomic priced from that resolution:
    the scan path from the width of the base's rank range, the index
    path from the probe's count ({!Attr_index.count}; these counters
    are this system's optimizer statistics, so the probe's descent
    reads are refunded from the pager's counter: planning is free and a
    forced path costs exactly what auto-selection costs on that path),
    the cache path from a read-only {!Cache.peek} under the atomic's
    text.  The cheapest by estimated reads (plus output writes unless
    [streaming], where both paths pipe) is its {!node.access}, the
    decision execution follows; [force] pins it to a path when that
    path is available.  With [calib], estimates are corrected by the
    learned per-path bias (["atomic:index"], ["atomic:scan"], falling
    back to ["atomic"]).  Base and one-level scopes, which only the
    dn-index serves, are priced as scans.  The CPU cost of an atomic
    does not grow with the directory: O(log n) rank descents and index
    counters, O(|pattern|) trie walks.  Every operator is priced from
    its children's rows.  With [reorder], maximal [And] / [Or] chains are rebuilt
    left-deep ascending by those same row estimates; [And]/[Or] being
    commutative and associative over sorted entry lists, results are
    unchanged, and intermediate sizes (with them comparisons, and
    boundary writes when materialized) only shrink when the estimates
    are right.  Order-sensitive operators ([Diff], hierarchical,
    references) keep their operand order.  The root's [query] is the
    tree to run.  Without any handles the pass degrades to the
    selectivity-based scan model.  No text is built beyond a cached
    atomic's key: a node's filter / aggregate text is rendered from its
    [query] when it is printed. *)

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

val find : node -> Ast.t -> node option
(** The node a plan made for one of its atomics, found by identity
    among the subtrees of its root's [query]. *)

val resolved_in : Instance.t -> node -> bool
(** Every atomic of the plan was resolved in this instance, so its
    ranks index it. *)

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
