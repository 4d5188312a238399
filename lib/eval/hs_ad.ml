(* Algorithm ComputeHSAD (Fig 4): ancestors and descendants with
   incremental count propagation along the stack.  Wrapper over the
   generic machinery with the implicit filter count($2) > 0. *)

let ancestors ?window l1 l2 = Hs_agg.compute_hier ?window Ast.A l1 l2
let descendants ?window l1 l2 = Hs_agg.compute_hier ?window Ast.D l1 l2

let compute ?window op l1 l2 =
  match op with
  | `A -> ancestors ?window l1 l2
  | `D -> descendants ?window l1 l2
