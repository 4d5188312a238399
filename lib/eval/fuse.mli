(** Boolean-subtree fusion — an algebraic rewrite from Theorem 8.1's
    LDAP/L0 correspondence: a boolean subtree whose atomic sub-queries
    share one base and scope is a single LDAP query, evaluable in one
    scan of the scope range with the fused filter instead of one scan
    per leaf plus merges.  Same results, fewer scans (experiment E19). *)

type plan =
  | Scan of Ldap.query  (** a fused single-scan boolean subtree *)
  | Op of op * plan list
  | Leaf of Ast.atomic

and op =
  | P_and
  | P_or
  | P_diff
  | P_hier of Ast.hier_op * Ast.agg_filter option
  | P_hier3 of Ast.hier_op3 * Ast.agg_filter option
  | P_gsel of Ast.agg_filter
  | P_eref of Ast.ref_op * string * Ast.agg_filter option

val plan_of : Ast.t -> plan
(** Rewrite bottom-up, fusing every maximal collapsible subtree. *)

val scan_count : plan -> int
(** Scans the plan performs (the unfused tree performs one per atomic
    leaf). *)

val eval : Engine.t -> Ast.t -> Entry.t Ext_list.t
(** Evaluate through {!Engine.walk} in the engine's boundary mode, each
    fused subtree answered by one scan. *)

val eval_entries : Engine.t -> Ast.t -> Entry.t list
val pp_plan : Format.formatter -> plan -> unit
