(* Algorithm ComputeHSPC (Fig 2): parents and children by a single
   stack sweep of the merged sorted inputs.  Thin wrapper over the
   generic machinery with the implicit filter count($2) > 0. *)

let parents ?window l1 l2 = Hs_agg.compute_hier ?window Ast.P l1 l2
let children ?window l1 l2 = Hs_agg.compute_hier ?window Ast.C l1 l2

let compute ?window op l1 l2 =
  match op with
  | `P -> parents ?window l1 l2
  | `C -> children ?window l1 l2
