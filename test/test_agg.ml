(* Unit and property tests for the aggregate machinery (exact rationals,
   distributive states) and the Explain plan module. *)

open QCheck2

(* --- Rationals ------------------------------------------------------------ *)

let test_num_basics () =
  let n a b = Agg.make_num a b in
  Alcotest.(check string) "normalization" "1/2" (Agg.num_to_string (n 2 4));
  Alcotest.(check string) "sign in numerator" "-1/2" (Agg.num_to_string (n 1 (-2)));
  Alcotest.(check string) "integers print plain" "7" (Agg.num_to_string (n 14 2));
  Alcotest.(check int) "compare" (-1) (Agg.compare_num (n 1 3) (n 1 2));
  Alcotest.(check int) "equal across forms" 0 (Agg.compare_num (n 2 4) (n 3 6));
  Alcotest.(check string) "addition" "5/6"
    (Agg.num_to_string (Agg.num_add (n 1 2) (n 1 3)));
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Agg.make_num: zero denominator") (fun () ->
      ignore (n 1 0))

let gen_rat = Gen.map2 (fun a b -> Agg.make_num a (1 + abs b)) (Gen.int_range (-500) 500) (Gen.int_range 0 50)

let prop_add_commutative (a, b) =
  Agg.compare_num (Agg.num_add a b) (Agg.num_add b a) = 0

let prop_compare_antisym (a, b) =
  Agg.compare_num a b = -Agg.compare_num b a

(* --- Distributive states ---------------------------------------------------- *)

let gen_ints = Gen.list_size (Gen.int_range 0 40) (Gen.int_range (-50) 50)

let fold_state f xs =
  List.fold_left (fun st x -> Agg.add_int st x) (Agg.init f) xs

let reference f xs =
  match (f, xs) with
  | Ast.Count, _ -> Some (Agg.num_of_int (List.length xs))
  | Ast.Sum, _ -> Some (Agg.num_of_int (List.fold_left ( + ) 0 xs))
  | (Ast.Min | Ast.Max | Ast.Average), [] -> None
  | Ast.Min, _ -> Some (Agg.num_of_int (List.fold_left min max_int xs))
  | Ast.Max, _ -> Some (Agg.num_of_int (List.fold_left max min_int xs))
  | Ast.Average, _ ->
      Some (Agg.make_num (List.fold_left ( + ) 0 xs) (List.length xs))

let all_funs = Ast.[ Min; Max; Sum; Count; Average ]

let prop_state_matches_reference xs =
  List.for_all
    (fun f ->
      match (Agg.result (fold_state f xs), reference f xs) with
      | Some a, Some b -> Agg.compare_num a b = 0
      | None, None -> true
      | Some _, None | None, Some _ -> false)
    all_funs

(* combine over a split equals the fold over the whole (distributivity) *)
let prop_state_distributive (xs, ys) =
  List.for_all
    (fun f ->
      let combined = Agg.combine (fold_state f xs) (fold_state f ys) in
      let whole = fold_state f (xs @ ys) in
      match (Agg.result combined, Agg.result whole) with
      | Some a, Some b -> Agg.compare_num a b = 0
      | None, None -> true
      | Some _, None | None, Some _ -> false)
    all_funs

let test_combine_mismatch () =
  Alcotest.check_raises "mismatched states"
    (Invalid_argument "Agg.combine: mismatched aggregate states") (fun () ->
      ignore (Agg.combine (Agg.init Ast.Min) (Agg.init Ast.Sum)))

let test_undefined_comparisons () =
  Alcotest.(check bool) "None vs Some is false" false
    (Agg.cmp_holds_opt Ast.Eq None (Some (Agg.num_of_int 0)));
  Alcotest.(check bool) "None vs None is false" false
    (Agg.cmp_holds_opt Ast.Ne None None);
  Alcotest.(check bool) "min of empty is undefined" true
    (Agg.result (Agg.init Ast.Min) = None);
  Alcotest.(check bool) "avg of empty is undefined" true
    (Agg.result (Agg.init Ast.Average) = None);
  Alcotest.(check bool) "sum of empty is 0" true
    (match Agg.result (Agg.init Ast.Sum) with
    | Some n -> Agg.compare_num n (Agg.num_of_int 0) = 0
    | None -> false)

(* average uses exact arithmetic: 1,2 averages to 3/2, not 1 *)
let test_average_exact () =
  let st = Agg.add_int (Agg.add_int (Agg.init Ast.Average) 1) 2 in
  match Agg.result st with
  | Some n -> Alcotest.(check string) "3/2" "3/2" (Agg.num_to_string n)
  | None -> Alcotest.fail "defined"

(* --- Explain ------------------------------------------------------------------ *)

let explain_instance () =
  Dif_gen.generate ~params:{ Dif_gen.default_params with size = 400; seed = 21 } ()

let test_profile_matches_eval () =
  let i = explain_instance () in
  let eng = Engine.create ~block:16 i in
  List.iter
    (fun text ->
      let q = Qparser.of_string text in
      let expected = Semantics.eval i q in
      let result, plan = Explain.profile eng q in
      Testkit.check_entries ("profile result: " ^ text) expected
        (Ext_list.to_list result);
      (* every node carries actuals after profiling *)
      let rec all_filled (n : Plan.node) =
        n.Plan.actual_rows <> None
        && n.Plan.actual_io <> None
        && List.for_all all_filled n.Plan.children
      in
      Alcotest.(check bool) "actuals filled" true (all_filled plan);
      (* the root's actual row count is the result size *)
      Alcotest.(check (option int)) "root rows"
        (Some (List.length expected))
        plan.Plan.actual_rows)
    [
      "( ? sub ? priority>=5)";
      "(- ( ? sub ? objectClass=node) ( ? sub ? tag=red))";
      "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? \
       objectClass=person) count($2) >= 1)";
      "(dc ( ? sub ? objectClass=dcObject) ( ? sub ? objectClass=person) ( ? \
       sub ? objectClass=organizationalUnit))";
      "(g ( ? sub ? objectClass=person) min(priority) = min(min(priority)))";
      "(vd ( ? sub ? objectClass=node) ( ? sub ? priority<=3) ref)";
    ]

let test_estimate_shape () =
  let i = explain_instance () in
  let eng = Engine.create ~block:16 i in
  let q =
    Qparser.of_string
      "(a (& ( ? sub ? tag=red) ( ? sub ? priority>=2)) ( ? sub ? \
       objectClass=dcObject))"
  in
  let plan = Explain.estimate eng q in
  Alcotest.(check string) "root label" "a" plan.Plan.label;
  Alcotest.(check int) "two children" 2 (List.length plan.Plan.children);
  Alcotest.(check bool) "estimates positive" true (plan.Plan.est_io > 0);
  (* estimation must not execute anything *)
  Alcotest.(check bool) "no actuals" true (plan.Plan.actual_rows = None);
  (* rendering works *)
  let text = Fmt.str "%a" Plan.pp_node plan in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let prop_profile_total_io_near_engine (i, q) =
  (* per-node attribution sums to roughly what a plain evaluation costs
     (atomic caching differences aside, it must at least be positive and
     bounded by 4x either way) *)
  let eng = Engine.create ~block:8 i in
  let _, plan = Explain.profile eng q in
  let total = Plan.total_actual_io plan in
  Engine.reset_stats eng;
  ignore (Engine.eval eng q);
  let direct = Io_stats.total_io (Engine.stats eng) in
  total >= 0 && (direct = 0 || total <= 4 * direct + 8)

(* Sum of the per-node actual io of a profile, against what Engine.eval
   costs on a fresh engine built the same way. *)
let profile_vs_eval ~mk ?mode q =
  let result, plan = Explain.profile ?mode (mk ()) q in
  let eng = mk () in
  let expected = Engine.eval_entries ?mode eng q in
  (result, plan, expected, Io_stats.total_io (Engine.stats eng))

(* A one-page stack window over a chain deeper than one page: the
   hierarchical sweep spills, and the profile must pay the spills of the
   engine's window, not of the default one. *)
let test_profile_honours_window () =
  let i =
    Dif_gen.generate
      ~params:
        { Dif_gen.default_params with size = 60; seed = 5; depth_bias = 1.0; roots = 1 }
      ()
  in
  let q = Qparser.of_string "(d ( ? sub ? id=*) ( ? sub ? id=*))" in
  List.iter
    (fun mode ->
      let _, plan, _, direct =
        profile_vs_eval ~mk:(fun () -> Testkit.engine ~window:1 i) ~mode q
      in
      Alcotest.(check int) "per-node io sums to eval's" direct
        (Plan.total_actual_io plan))
    Engine.[ Streaming; Materialized ]

(* Profile and eval run the same walker: same result, the root's rows
   are the result count, and the per-node io adds up to eval's io. *)
let prop_profile_is_eval (i, q) =
  List.for_all
    (fun mode ->
      let result, plan, expected, direct =
        profile_vs_eval ~mk:(fun () -> Testkit.engine i) ~mode q
      in
      let result = Ext_list.to_list result in
      List.length result = List.length expected
      && List.for_all2 Entry.equal_dn result expected
      && plan.Plan.actual_rows = Some (List.length expected)
      && Plan.total_actual_io plan = direct)
    Engine.[ Streaming; Materialized ]

let () =
  Alcotest.run "agg"
    [
      ( "rationals",
        [
          Alcotest.test_case "basics" `Quick test_num_basics;
          Testkit.qtest ~count:200 "addition commutative"
            (Gen.pair gen_rat gen_rat) prop_add_commutative;
          Testkit.qtest ~count:200 "compare antisymmetric"
            (Gen.pair gen_rat gen_rat) prop_compare_antisym;
        ] );
      ( "states",
        [
          Testkit.qtest ~count:200 "state = reference" gen_ints
            prop_state_matches_reference;
          Testkit.qtest ~count:200 "distributive" (Gen.pair gen_ints gen_ints)
            prop_state_distributive;
          Alcotest.test_case "combine mismatch" `Quick test_combine_mismatch;
          Alcotest.test_case "undefined comparisons" `Quick
            test_undefined_comparisons;
          Alcotest.test_case "average exact" `Quick test_average_exact;
        ] );
      ( "explain",
        [
          Alcotest.test_case "profile = eval" `Quick test_profile_matches_eval;
          Alcotest.test_case "estimate shape" `Quick test_estimate_shape;
          Alcotest.test_case "profile honours the engine's window" `Quick
            test_profile_honours_window;
          Testkit.qtest ~count:100 "profile = eval in both modes"
            Testkit.gen_instance_and_query prop_profile_is_eval;
          Testkit.qtest ~count:60 "profiled io sane"
            Testkit.gen_instance_and_query prop_profile_total_io_near_engine;
        ] );
    ]
