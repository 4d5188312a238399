(** ComputeERAggVD / ComputeERAggDV — the embedded-reference operators
    valueDN and DNvalue with optional aggregate selection (Section 7.2,
    Fig 3).

    Sort-merge join/semijoin over the exploded (referenced-dn, entry)
    pair list; I/O [O(|L1|/B + (|L2| m / B) log (|L2| m / B))]
    (Theorem 7.1), where m bounds the values per reference attribute. *)

val sorted_pairs :
  Pager.t ->
  Entry.t Ext_list.Source.src ->
  string ->
  (Entry.t -> int -> 'a) ->
  (string * 'a) Ext_list.t
(** Phase 1 of both operators: one (referenced key, [proj entry
    ordinal]) pair per [a]-value of the source's entries, sorted by key.
    The keys are the entries' cached {!Entry.ref_keys}, shared, so no
    pair allocates a key. *)

val compute_dv :
  ?agg:Ast.agg_filter ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  string ->
  Entry.t Ext_list.t
(** [(dv L1 L2 a [agg])]: L1 entries whose dn is a value of attribute
    [a] in some L2 entry; witnesses are the referencing entries. *)

val compute_vd :
  ?agg:Ast.agg_filter ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  string ->
  Entry.t Ext_list.t
(** [(vd L1 L2 a [agg])]: L1 entries one of whose [a]-values is the dn
    of some L2 entry; witnesses are the referenced entries. *)

val compute :
  ?agg:Ast.agg_filter ->
  Ast.ref_op ->
  Entry.t Ext_list.t ->
  Entry.t Ext_list.t ->
  string ->
  Entry.t Ext_list.t

val compute_dv_src :
  ?agg:Ast.agg_filter ->
  Pager.t ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  string ->
  Entry.t Ext_list.Source.src

val compute_vd_src :
  ?agg:Ast.agg_filter ->
  Pager.t ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  string ->
  Entry.t Ext_list.Source.src
(** Streaming variants: the exploded pair lists and their sorts stay
    materialized (sort boundaries), and [vd] forces a live L1 resident
    because it is consumed twice; everything else pipelines. *)

val compute_src :
  ?agg:Ast.agg_filter ->
  Pager.t ->
  Ast.ref_op ->
  Entry.t Ext_list.Source.src ->
  Entry.t Ext_list.Source.src ->
  string ->
  Entry.t Ext_list.Source.src
