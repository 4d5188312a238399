(* Shared helpers and QCheck generators for the test suites. *)

let entry_list_testable =
  Alcotest.testable
    (Fmt.list ~sep:Fmt.comma (fun ppf e -> Dn.pp ppf (Entry.dn e)))
    (fun a b ->
      List.length a = List.length b && List.for_all2 Entry.equal_dn a b)

let dns_of entries = List.map (fun e -> Dn.to_string (Entry.dn e)) entries

let check_entries msg expected actual =
  Alcotest.check entry_list_testable msg expected actual

(* Sorted result of the reference semantics. *)
let oracle instance q = Semantics.eval instance q

(* A fresh engine over [instance] with small pages so that page-level
   effects show up even on small inputs. *)
let engine ?(block = 8) ?(window = 2) ?(with_attr_index = true) ?mode
    ?planner ?directory instance =
  Engine.create ~block ~window ~with_attr_index ?mode ?planner ?directory
    instance

(* A monitor-only server on a free port: zero workers, so no engine is
   ever made and only the introspection routes answer. *)
let start_monitor ?registry () =
  Srv.start ?registry ~workers:0
    ~make_engine:(fun () -> invalid_arg "monitor-only server")
    ()

(* --- QCheck generators -------------------------------------------------- *)

open QCheck2

let ( let* ) = Gen.( >>= )
let ( and* ) a b = Gen.pair a b

(* Random generated instance of bounded size. *)
let gen_instance =
  Gen.sized_size (Gen.int_range 5 120) (fun n ->
      let* seed = Gen.int_range 0 100_000 in
      let* depth_bias =
        Gen.oneofl [ 0.0; 0.2; 0.5; 0.8; 1.0 ]
      in
      Gen.return
        (Dif_gen.generate
           ~params:
             {
               Dif_gen.default_params with
               seed;
               size = max 2 n;
               depth_bias;
               roots = 1 + (seed mod 3);
             }
           ()))

(* A dn from the instance (or a near-miss child of one). *)
let gen_base instance =
  let dns = Array.of_list (List.map Entry.dn (Instance.to_list instance)) in
  let* i = Gen.int_range 0 (Array.length dns - 1) in
  let* variant = Gen.int_range 0 9 in
  if variant = 0 then Gen.return Dn.root
  else if variant = 1 then
    Gen.return (Dn.child dns.(i) (Rdn.single "id" (Value.Int 999_999)))
  else Gen.return dns.(i)

let gen_filter =
  Gen.oneof
    [
      Gen.return (Afilter.Present "id");
      Gen.return (Afilter.Present "ref");
      Gen.map (fun c -> Afilter.Str_eq (Schema.object_class, c))
        (Gen.oneofl [ "node"; "person"; "organizationalUnit"; "dcObject" ]);
      Gen.map (fun n -> Afilter.Str_eq ("name", n))
        (Gen.oneofl [ "jagadish"; "milo"; "smith"; "nobody" ]);
      Gen.map
        (fun (op, k) -> Afilter.Int_cmp ("priority", op, k))
        (Gen.pair
           (Gen.oneofl Afilter.[ Lt; Le; Eq; Ge; Gt ])
           (Gen.int_range 0 10));
      Gen.map (fun k -> Afilter.Int_cmp ("id", Afilter.Lt, k)) (Gen.int_range 0 150);
      Gen.map
        (fun mid ->
          Afilter.Substr
            ("name", { Afilter.initial = None; middles = [ mid ]; final = None }))
        (Gen.oneofl [ "a"; "mi"; "ith"; "zz" ]);
      Gen.map
        (fun ini ->
          Afilter.Substr
            ("tag", { Afilter.initial = Some ini; middles = []; final = None }))
        (Gen.oneofl [ "r"; "gr"; "b" ]);
    ]

let gen_scope = Gen.oneofl Ast.[ Base; One; Sub ]

let gen_atomic instance =
  let* base = gen_base instance in
  let* scope = gen_scope in
  let* filter = gen_filter in
  Gen.return (Ast.Atomic { Ast.base; scope; filter })

let gen_attr_ref =
  Gen.oneof
    [
      Gen.map (fun a -> Ast.W1 a) (Gen.oneofl [ "priority"; "weight"; "id" ]);
      Gen.map (fun a -> Ast.W2 a) (Gen.oneofl [ "priority"; "weight"; "id" ]);
    ]

let gen_agg_fun = Gen.oneofl Ast.[ Min; Max; Sum; Count; Average ]

let gen_entry_agg =
  Gen.oneof
    [
      Gen.return Ast.Ea_count_witnesses;
      Gen.map (fun (f, r) -> Ast.Ea_agg (f, r)) (Gen.pair gen_agg_fun gen_attr_ref);
    ]

let gen_entry_set_agg =
  Gen.oneof
    [
      Gen.return Ast.Esa_count_entries;
      Gen.map (fun (f, ea) -> Ast.Esa_agg (f, ea))
        (Gen.pair gen_agg_fun gen_entry_agg);
    ]

let gen_agg_attr =
  Gen.frequency
    [
      (2, Gen.map (fun c -> Ast.A_const c) (Gen.int_range 0 20));
      (3, Gen.map (fun ea -> Ast.A_entry ea) gen_entry_agg);
      (2, Gen.map (fun esa -> Ast.A_entry_set esa) gen_entry_set_agg);
    ]

let gen_cmp = Gen.oneofl Ast.[ Lt; Le; Eq; Ge; Gt; Ne ]

(* Structural aggregate filter (may reference $1/$2). *)
let gen_agg_filter =
  let* lhs = gen_agg_attr in
  let* op = gen_cmp in
  let* rhs = gen_agg_attr in
  Gen.return { Ast.lhs; op; rhs }

(* Simple aggregate filter for (g ...): only Self refs and count($$). *)
let gen_simple_agg_filter =
  let gen_simple_ea =
    Gen.map
      (fun (f, a) -> Ast.Ea_agg (f, Ast.Self a))
      (Gen.pair gen_agg_fun (Gen.oneofl [ "priority"; "weight"; "id"; "ref" ]))
  in
  let gen_simple_attr =
    Gen.frequency
      [
        (2, Gen.map (fun c -> Ast.A_const c) (Gen.int_range 0 20));
        (3, Gen.map (fun ea -> Ast.A_entry ea) gen_simple_ea);
        (1, Gen.return (Ast.A_entry_set Ast.Esa_count_all));
        ( 2,
          Gen.map
            (fun (f, ea) -> Ast.A_entry_set (Ast.Esa_agg (f, ea)))
            (Gen.pair gen_agg_fun gen_simple_ea) );
      ]
  in
  let* lhs = gen_simple_attr in
  let* op = gen_cmp in
  let* rhs = gen_simple_attr in
  Gen.return { Ast.lhs; op; rhs }

let gen_query instance =
  let atomic = gen_atomic instance in
  let rec go depth =
    if depth = 0 then atomic
    else
      let sub = go (depth - 1) in
      Gen.frequency
        [
          (3, atomic);
          ( 2,
            Gen.map2
              (fun a b -> Ast.And (a, b))
              sub sub );
          (2, Gen.map2 (fun a b -> Ast.Or (a, b)) sub sub);
          (2, Gen.map2 (fun a b -> Ast.Diff (a, b)) sub sub);
          ( 3,
            let* op = Gen.oneofl Ast.[ P; C; A; D ] in
            let* q1 = sub and* q2 = sub in
            let* agg = Gen.option gen_agg_filter in
            Gen.return (Ast.Hier (op, q1, q2, agg)) );
          ( 2,
            let* op = Gen.oneofl Ast.[ Ac; Dc ] in
            let* q1 = sub and* q2 = sub and* q3 = sub in
            let* agg = Gen.option gen_agg_filter in
            Gen.return (Ast.Hier3 (op, q1, q2, q3, agg)) );
          ( 2,
            let* q1 = sub in
            let* f = gen_simple_agg_filter in
            Gen.return (Ast.Gsel (q1, f)) );
          ( 2,
            let* op = Gen.oneofl Ast.[ Vd; Dv ] in
            let* q1 = sub and* q2 = sub in
            let* agg = Gen.option gen_agg_filter in
            Gen.return (Ast.Eref (op, q1, q2, "ref", agg)) );
        ]
  in
  go 3

let gen_instance_and_query =
  let* instance = gen_instance in
  let* q = gen_query instance in
  Gen.return (instance, q)

(* Atomic-only pairs, for properties about access-path selection. *)
let gen_instance_and_atomic =
  let* instance = gen_instance in
  let* q = gen_atomic instance in
  Gen.return (instance, q)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
