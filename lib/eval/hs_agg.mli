(** ComputeHSAgg — hierarchical selection with aggregate selection
    filters (Section 6.4, Fig 6), subsuming the plain L1 operators as
    count($2) > 0.

    Phase 2 over the L1 entries {!Hs_stack.sweep} finalizes: with
    entry-set aggregates, the annotations are kept for a pass computing
    them (Fig 6's maxabove/maxbelow) and a filter-and-emit pass;
    without, each entry is decided as it leaves the stack and one byte
    per L1 entry keeps the verdict until the survivors are emitted in
    L1 order.  Page charges are the same either way, and total I/O
    stays linear (Theorem 6.2). *)

type direction = Witness_above | Witness_below

val direction_of_hier : Ast.hier_op -> direction
val direction_of_hier3 : Ast.hier_op3 -> direction
val mode_of_hier : Ast.hier_op -> Hs_stack.mode

val finish :
  Ast.entry_agg array ->
  direction ->
  Ast.agg_filter option ->
  Hs_stack.annot array ->
  Pager.t ->
  Entry.t Ext_list.t
(** The shared phase 2 (also used by the embedded-reference
    algorithms). *)

val compute_hier :
  ?window:int ->
  ?agg:Ast.agg_filter ->
  Ast.hier_op ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
(** [(op L1 L2 [agg])] for op in [{p, c, a, d}]; default filter
    count($2) > 0. *)

val compute_hier3 :
  ?window:int ->
  ?agg:Ast.agg_filter ->
  Ast.hier_op3 ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t
(** [(op L1 L2 L3 [agg])] for op in [{ac, dc}]. *)

val has_entry_set_aggs : Ast.agg_filter -> bool
(** Does the filter mention entry-set aggregates (forcing the annotated
    list to be materialized and scanned twice, even under streaming)? *)

val finish_src :
  Ast.entry_agg array ->
  direction ->
  Ast.agg_filter option ->
  Hs_stack.annot array ->
  Pager.t ->
  Entry.t Ext_list.Source.src
(** Streaming phase 2: without entry-set aggregates the annotations
    pipeline straight into the filter (no annotated copy written or
    re-read); with them the copy is materialized and both passes are
    charged, like the materialized operator. *)

val compute_hier_src :
  ?window:int ->
  ?agg:Ast.agg_filter ->
  Pager.t ->
  Ast.hier_op ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src

val compute_hier3_src :
  ?window:int ->
  ?agg:Ast.agg_filter ->
  Pager.t ->
  Ast.hier_op3 ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src
