(** The stack-sweep machinery shared by ComputeHSPC (Fig 2), ComputeHSAD
    (Fig 4), ComputeHSADc (Fig 5) and the ComputeHSAgg* extensions
    (Fig 6).

    Inputs sorted by reverse-dn key are merged into one document-order
    stream; the stack always holds a root-to-current ancestor chain (the
    paper's correctness observations (1)-(2)); frames carry distributive
    aggregate states per witness-dependent entry aggregate, and the
    push/pop propagation of the figures runs on those states.  Plain
    hierarchical selection is the special case count($2) > 0. *)

type mode =
  | Pc  (** parent/child witnesses, Fig 2 *)
  | Ad  (** ancestor/descendant witnesses, Fig 4 *)
  | Adc  (** path-constrained, third list blocks propagation, Fig 5 *)

type annot = {
  a_entry : Entry.t;
  a_above : Agg.state array;
  a_below : Agg.state array;
}
(** An annotated L1 entry: its witness-side states in both directions,
    the input of phase 2 when it needs more than one pass. *)

val witness_dependent : Ast.entry_agg -> bool
(** Must the aggregate be maintained on the stack (it reads $2)? *)

val tracked_of_filter : Ast.agg_filter -> Ast.entry_agg array
(** The deduplicated witness-dependent aggregates of a filter. *)

val zeros : Ast.entry_agg array -> Agg.state array
(** Initial states (empty witness multiset). *)

val unit_of : Ast.entry_agg array -> Entry.t -> Agg.state array
(** One witness's contribution to each tracked aggregate. *)

val combine_into : Agg.state array -> Agg.state array -> Agg.state array

val sweep :
  mode ->
  ?window:int ->
  tracked:Ast.entry_agg array ->
  pager:Pager.t ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src option ->
  (int -> Entry.t -> above:Agg.state array -> below:Agg.state array -> unit) ->
  unit
(** Phase 1 of the ComputeHS* algorithms: one merged scan of the
    sources and a [Spill_stack] of [window] pages.  Each L1 entry goes
    to [finalize ordinal entry ~above ~below] once, as it leaves the
    stack (in postorder, not L1 order); its state arrays are final and
    may be shared, never to be mutated.  Charges only the input pulls
    and the stack's spill I/O: whether the annotations are written to
    disk is the caller's decision. *)
