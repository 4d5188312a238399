(* Algorithm ComputeHSADc (Fig 5): path-constrained ancestors and
   descendants — the closest-qualifying variants where entries of the
   third operand block witness propagation. *)

let ancestors_c ?window l1 l2 l3 = Hs_agg.compute_hier3 ?window Ast.Ac l1 l2 l3
let descendants_c ?window l1 l2 l3 = Hs_agg.compute_hier3 ?window Ast.Dc l1 l2 l3

let compute ?window op l1 l2 l3 =
  match op with
  | `Ac -> ancestors_c ?window l1 l2 l3
  | `Dc -> descendants_c ?window l1 l2 l3
