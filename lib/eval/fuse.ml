(* Boolean-subtree fusion: an algebraic rewrite exploiting Theorem 8.1's
   LDAP <-> L0 correspondence.

   A maximal boolean subtree whose atomic sub-queries all share one base
   and scope is exactly an LDAP query (Ldap.of_l0), and an LDAP query
   evaluates in a single scan of the base's scope range with the fused
   filter — instead of one scan per atomic leaf plus a merge per boolean
   operator.  This pass rewrites the query tree bottom-up, replacing
   every such subtree by a fused scan node, and evaluates the rest with
   the ordinary operator algorithms.  Results are identical (the same
   semantics evaluated differently); experiment E19 measures the
   savings. *)

type plan =
  | Scan of Ldap.query  (* a fused single-scan boolean subtree *)
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

(* Build the fused plan: try to collapse every subtree first, recurse
   where collapse fails. *)
let rec plan_of (q : Ast.t) : plan =
  match Ldap.of_l0 q with
  | Some lq -> (
      match q with
      | Ast.Atomic a -> Leaf a  (* single leaves gain nothing from fusion *)
      | _ -> Scan lq)
  | None -> (
      match q with
      | Ast.Atomic a -> Leaf a
      | Ast.And (q1, q2) -> Op (P_and, [ plan_of q1; plan_of q2 ])
      | Ast.Or (q1, q2) -> Op (P_or, [ plan_of q1; plan_of q2 ])
      | Ast.Diff (q1, q2) -> Op (P_diff, [ plan_of q1; plan_of q2 ])
      | Ast.Hier (op, q1, q2, agg) ->
          Op (P_hier (op, agg), [ plan_of q1; plan_of q2 ])
      | Ast.Hier3 (op, q1, q2, q3, agg) ->
          Op (P_hier3 (op, agg), [ plan_of q1; plan_of q2; plan_of q3 ])
      | Ast.Gsel (q1, f) -> Op (P_gsel f, [ plan_of q1 ])
      | Ast.Eref (op, q1, q2, attr, agg) ->
          Op (P_eref (op, attr, agg), [ plan_of q1; plan_of q2 ]))

(* Count the scans the plan performs vs. the unfused query would. *)
let rec scan_count = function
  | Scan _ | Leaf _ -> 1
  | Op (_, children) -> List.fold_left (fun n c -> n + scan_count c) 0 children

(* Evaluate through the engine's walker in the engine's boundary mode:
   the leaf intercepts exactly the subtrees [plan_of] fuses and answers
   each with one scan; an unfused atomic is planned on its own and runs
   as in [Engine.eval], and so do the operators. *)
let eval engine q =
  let mode = Engine.mode engine in
  let leaf (q : Ast.t) =
    match (q, Ldap.of_l0 q) with
    | Ast.Atomic _, _ -> Engine.leaf engine mode (Engine.plan ~mode engine q) q
    | _, None -> None
    | _, Some lq -> Some (Ldap.eval_indexed (Engine.dn_index engine) lq)
  in
  Engine.walk ~pager:(Engine.pager engine) ~window:(Engine.window engine)
    ~mode ~leaf q

let eval_entries engine q = Ext_list.to_list (eval engine q)

let rec pp_plan ppf = function
  | Leaf a -> Fmt.pf ppf "leaf %s" (Qprinter.atomic_to_string a)
  | Scan lq -> Fmt.pf ppf "fused-scan %s" (Ldap.to_string lq)
  | Op (op, children) ->
      let label =
        match op with
        | P_and -> "&"
        | P_or -> "|"
        | P_diff -> "-"
        | P_hier (o, _) -> Qprinter.hier_op_to_string o
        | P_hier3 (o, _) -> Qprinter.hier_op3_to_string o
        | P_gsel _ -> "g"
        | P_eref (o, _, _) -> Qprinter.ref_op_to_string o
      in
      Fmt.pf ppf "@[<v2>(%s%a)@]" label
        (fun ppf -> List.iter (fun c -> Fmt.pf ppf "@,%a" pp_plan c))
        children
