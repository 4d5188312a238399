(* Differential tests: the external-memory algorithms against the
   reference semantics (Definitions 4.1, 5.1, 6.1, 6.2, 7.1), on both
   hand-built and randomly generated directories and queries.

   This is the central correctness argument of the reproduction: for any
   query in L3 and any instance, Engine.eval must produce exactly the
   entry set the denotational semantics prescribes, in canonical order. *)

let dn = Dn.of_string

(* A small hand-built directory mirroring the shape of Figure 1. *)
let tiny () =
  let sc = Dif_gen.schema () in
  let e d attrs = Entry.make (dn d) attrs in
  let oc c = (Schema.object_class, Value.Str c) in
  Instance.of_entries sc
    [
      e "dc=com" [ ("dc", Value.Str "com"); oc "dcObject" ];
      e "dc=att, dc=com" [ ("dc", Value.Str "att"); oc "dcObject" ];
      e "dc=research, dc=att, dc=com"
        [ ("dc", Value.Str "research"); oc "dcObject" ];
      e "ou=people, dc=att, dc=com"
        [ ("ou", Value.Str "people"); oc "organizationalUnit" ];
      e "id=1, ou=people, dc=att, dc=com"
        [
          ("id", Value.Int 1);
          ("surName", Value.Str "jagadish");
          ("priority", Value.Int 2);
          oc "person";
        ];
      e "id=2, ou=people, dc=att, dc=com"
        [
          ("id", Value.Int 2);
          ("surName", Value.Str "srivastava");
          ("priority", Value.Int 1);
          oc "person";
        ];
      e "ou=people, dc=research, dc=att, dc=com"
        [ ("ou", Value.Str "people"); oc "organizationalUnit" ];
      e "id=3, ou=people, dc=research, dc=att, dc=com"
        [
          ("id", Value.Int 3);
          ("surName", Value.Str "jagadish");
          ("priority", Value.Int 5);
          oc "person";
        ];
    ]

let run_both instance q =
  let eng = Testkit.engine instance in
  let actual = Engine.eval_entries eng q in
  let expected = Testkit.oracle instance q in
  (expected, actual)

let check_query instance q =
  let expected, actual = run_both instance q in
  Testkit.check_entries (Qprinter.to_string q) expected actual

(* --- Hand-written cases ------------------------------------------------- *)

let test_atomic_scopes () =
  let i = tiny () in
  let q scope base filter =
    Ast.Atomic { Ast.base = dn base; scope; filter }
  in
  (* sub finds both jagadish entries *)
  let expected, actual =
    run_both i (q Ast.Sub "dc=com" (Afilter.Str_eq ("surName", "jagadish")))
  in
  Alcotest.(check int) "two jagadish entries" 2 (List.length actual);
  Testkit.check_entries "sub scope" expected actual;
  (* base scope matches only the base *)
  check_query i (q Ast.Base "dc=att, dc=com" (Afilter.Present "dc"));
  (* one scope includes the base and its children *)
  check_query i (q Ast.One "dc=att, dc=com" (Afilter.Present Schema.object_class));
  (* base that is not an entry *)
  check_query i (q Ast.Sub "dc=nosuch" (Afilter.Present "dc"))

let test_example_4_1 () =
  (* Example 4.1: jagadish in AT&T except Research. *)
  let i = tiny () in
  let q =
    Qparser.of_string
      "(- (dc=att, dc=com ? sub ? surName=jagadish) (dc=research, dc=att, \
       dc=com ? sub ? surName=jagadish))"
  in
  let expected, actual = run_both i q in
  Testkit.check_entries "example 4.1" expected actual;
  Alcotest.(check (list string))
    "only the non-research entry"
    [ "id=1, ou=people, dc=att, dc=com" ]
    (Testkit.dns_of actual)

let test_example_5_1 () =
  (* Example 5.1: organizational units directly containing a jagadish. *)
  let i = tiny () in
  let q =
    Qparser.of_string
      "(c (dc=com ? sub ? objectClass=organizationalUnit) (dc=com ? sub ? \
       surName=jagadish))"
  in
  let expected, actual = run_both i q in
  Testkit.check_entries "example 5.1" expected actual;
  Alcotest.(check int) "both ou=people qualify" 2 (List.length actual)

let test_hier_operators () =
  let i = tiny () in
  let all = "(dc=com ? sub ? objectClass=*)" in
  let people = "(dc=com ? sub ? objectClass=person)" in
  let ous = "(dc=com ? sub ? objectClass=organizationalUnit)" in
  let dcs = "(dc=com ? sub ? objectClass=dcObject)" in
  List.iter
    (fun s -> check_query i (Qparser.of_string s))
    [
      Printf.sprintf "(p %s %s)" people ous;
      Printf.sprintf "(c %s %s)" ous people;
      Printf.sprintf "(a %s %s)" people dcs;
      Printf.sprintf "(d %s %s)" dcs people;
      Printf.sprintf "(ac %s %s %s)" people dcs ous;
      Printf.sprintf "(dc %s %s %s)" dcs people ous;
      Printf.sprintf "(ac %s %s %s)" people dcs dcs;
      Printf.sprintf "(dc %s %s %s)" dcs people all;
    ]

let test_closest_ancestor_blocking () =
  (* dc-entries with a person descendant not below an intervening dc:
     research blocks att for id=3. *)
  let i = tiny () in
  let q =
    Qparser.of_string
      "(dc (dc=com ? sub ? objectClass=dcObject) (dc=com ? sub ? \
       objectClass=person) (dc=com ? sub ? objectClass=dcObject))"
  in
  let expected, actual = run_both i q in
  Testkit.check_entries "dc blocking" expected actual;
  (* att has id=1/2 via ou=people (no dc between); research has id=3;
     com has no person without att in between. *)
  Alcotest.(check (list string))
    "att and research, not com"
    [ "dc=att, dc=com"; "dc=research, dc=att, dc=com" ]
    (Testkit.dns_of actual)

let test_simple_agg () =
  let i = tiny () in
  List.iter
    (fun s -> check_query i (Qparser.of_string s))
    [
      "(g (dc=com ? sub ? objectClass=person) min(priority) < 3)";
      "(g (dc=com ? sub ? objectClass=person) count($$) >= 3)";
      "(g (dc=com ? sub ? objectClass=person) min(priority) = \
       min(min(priority)))";
      "(g (dc=com ? sub ? objectClass=person) average(priority) > 2)";
      "(g (dc=com ? sub ? objectClass=person) sum(priority) <= \
       max(max(priority)))";
    ]

let test_structural_agg () =
  let i = tiny () in
  let ous = "(dc=com ? sub ? objectClass=organizationalUnit)" in
  let people = "(dc=com ? sub ? objectClass=person)" in
  List.iter
    (fun s -> check_query i (Qparser.of_string s))
    [
      Printf.sprintf "(c %s %s count($2) > 1)" ous people;
      Printf.sprintf "(c %s %s count($2) = max(count($2)))" ous people;
      Printf.sprintf "(c %s %s min($2.priority) <= 2)" ous people;
      Printf.sprintf "(a %s %s sum($2.priority) > min($1.priority))" people ous;
      Printf.sprintf "(d (dc=com ? sub ? objectClass=dcObject) %s \
                      average($2.priority) >= 2)" people;
    ]

let test_eref () =
  (* Build a directory where nodes reference each other. *)
  let i =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 60; seed = 7; ref_fanout = 3 }
      ()
  in
  let nodes = "( ? sub ? objectClass=node)" in
  let all = "( ? sub ? objectClass=*)" in
  List.iter
    (fun s -> check_query i (Qparser.of_string s))
    [
      Printf.sprintf "(vd %s %s ref)" nodes all;
      Printf.sprintf "(dv %s %s ref)" all nodes;
      Printf.sprintf "(vd %s %s ref count($2) >= 2)" nodes all;
      Printf.sprintf "(dv %s %s ref count($2) = max(count($2)))" all nodes;
      Printf.sprintf "(dv %s %s ref min($2.priority) <= 3)" all nodes;
    ]

let test_example_7_1_shape () =
  (* The composed query of Example 7.1: dv over a g over a vd. *)
  let i =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 80; seed = 11; ref_fanout = 2 }
      ()
  in
  let q =
    Qparser.of_string
      "(dv ( ? sub ? objectClass=node) (g (vd ( ? sub ? objectClass=node) ( ? \
       sub ? priority>=5) ref) min(priority) = min(min(priority))) ref)"
  in
  check_query i q

(* Paged results: concatenating all pages reproduces the full result,
   for any page size, and the cookie chain terminates. *)
let prop_paging_reassembles (instance, q) =
  let eng = Testkit.engine instance in
  let full = Engine.eval_entries eng q in
  List.for_all
    (fun page_size ->
      let rec collect acc cookie guard =
        if guard > 500 then acc  (* cookie chain must terminate *)
        else
          let page = Engine.eval_paged eng ~page_size ?cookie q in
          let acc = acc @ page.Engine.entries in
          match page.Engine.cookie with
          | None -> acc
          | Some _ when page.Engine.entries = [] -> acc
          | Some _ -> collect acc page.Engine.cookie (guard + 1)
      in
      let paged = collect [] None 0 in
      List.length paged = List.length full
      && List.for_all2 Entry.equal_dn paged full
      && List.for_all
           (fun p -> List.length p.Engine.entries <= page_size)
           [ Engine.eval_paged eng ~page_size q ])
    [ 1; 3; 7; 1000 ]

(* A mixed soak: interleaved updates, queries, paging and re-indexing
   keep engine results equal to the oracle and the directory valid. *)
let test_update_query_soak () =
  let base =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 120; seed = 91; roots = 1 }
      ()
  in
  let d = Directory.create base in
  let rng = Prng.create 77 in
  let queries =
    List.map Qparser.of_string
      [
        "( ? sub ? objectClass=person)";
        "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? priority>=5))";
        "(g ( ? sub ? objectClass=node) min(priority) = min(min(priority)))";
        "(vd ( ? sub ? objectClass=node) ( ? sub ? priority<=3) ref)";
      ]
  in
  for step = 1 to 60 do
    (* random mutation *)
    let entries = Instance.to_list (Directory.instance d) in
    let pick () = List.nth entries (Prng.int rng (List.length entries)) in
    (match Prng.int rng 4 with
    | 0 ->
        let parent = pick () in
        ignore
          (Directory.add d
             (Entry.make
                (Dn.child (Entry.dn parent)
                   (Rdn.single "id" (Value.Int (10_000 + step))))
                [
                  ("id", Value.Int (10_000 + step));
                  ("priority", Value.Int (Prng.int rng 10));
                  (Schema.object_class, Value.Str "person");
                ]))
    | 1 -> ignore (Directory.delete d (Entry.dn (pick ())))
    | 2 ->
        ignore
          (Directory.modify d
             (Entry.dn (pick ()))
             [ Directory.Add_value ("priority", Value.Int (Prng.int rng 10)) ])
    | _ -> ignore (Directory.delete ~subtree:true d (Entry.dn (pick ()))));
    (* the directory never leaves the model *)
    Alcotest.(check int)
      (Printf.sprintf "valid after step %d" step)
      0
      (List.length (Directory.validate d));
    (* a fresh engine agrees with the oracle on every query *)
    if step mod 10 = 0 then begin
      let eng = Testkit.engine (Directory.instance d) in
      List.iter
        (fun q ->
          Testkit.check_entries
            (Printf.sprintf "step %d: %s" step (Qprinter.to_string q))
            (Testkit.oracle (Directory.instance d) q)
            (Engine.eval_entries eng q))
        queries
    end
  done

(* --- Randomized differential property ----------------------------------- *)

let prop_engine_matches_oracle (instance, q) =
  let expected = Testkit.oracle instance q in
  let eng = Testkit.engine instance in
  let actual = Engine.eval_entries eng q in
  if
    List.length expected = List.length actual
    && List.for_all2 Entry.equal_dn expected actual
  then true
  else
    QCheck2.Test.fail_reportf
      "query %s@.expected: %a@.actual:   %a"
      (Qprinter.to_string q)
      Fmt.(list ~sep:comma string)
      (Testkit.dns_of expected)
      Fmt.(list ~sep:comma string)
      (Testkit.dns_of actual)

(* The quadratic baselines of Sections 5.3 / 7.2 against the engine, one
   operator at a time: an aggregate-free operator root over random
   operand trees, every [Naive] entry point drawn. *)
let gen_agg_free_root =
  let open QCheck2.Gen in
  Testkit.gen_instance >>= fun instance ->
  let sub = Testkit.gen_query instance in
  triple sub sub sub >>= fun (q1, q2, q3) ->
  map
    (fun root -> (instance, root))
    (oneofl
       Ast.
         [
           And (q1, q2); Or (q1, q2); Diff (q1, q2);
           Hier (P, q1, q2, None); Hier (C, q1, q2, None);
           Hier (A, q1, q2, None); Hier (D, q1, q2, None);
           Hier3 (Ac, q1, q2, q3, None); Hier3 (Dc, q1, q2, q3, None);
           Eref (Vd, q1, q2, "ref", None); Eref (Dv, q1, q2, "ref", None);
         ])

(* Naive's operator over the engine-evaluated operands must return the
   engine's result for the whole root ([`Or]'s output is unsorted). *)
let prop_naive_operators_match_engine (instance, q) =
  let eng = Testkit.engine instance in
  let ev q = Engine.eval eng q in
  let naive =
    match q with
    | Ast.And (q1, q2) -> Naive.compute_bool `And (ev q1) (ev q2)
    | Ast.Or (q1, q2) -> Naive.compute_bool `Or (ev q1) (ev q2)
    | Ast.Diff (q1, q2) -> Naive.compute_bool `Diff (ev q1) (ev q2)
    | Ast.Hier (op, q1, q2, None) -> Naive.compute_hier op (ev q1) (ev q2)
    | Ast.Hier3 (op, q1, q2, q3, None) ->
        Naive.compute_hier3 op (ev q1) (ev q2) (ev q3)
    | Ast.Eref (op, q1, q2, attr, None) ->
        Naive.compute_eref op (ev q1) (ev q2) attr
    | _ -> QCheck2.Test.fail_reportf "not an aggregate-free operator root"
  in
  let actual = List.sort Entry.compare_rev (Ext_list.to_list naive) in
  let expected = Engine.eval_entries eng q in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal_dn expected actual

let prop_no_index_matches (instance, q) =
  let expected = Testkit.oracle instance q in
  let eng = Testkit.engine ~with_attr_index:false instance in
  let actual = Engine.eval_entries eng q in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal_dn expected actual

let prop_cached_engine_matches (instance, q) =
  let expected = Testkit.oracle instance q in
  let eng = Engine.create ~block:8 ~cache_pages:16 instance in
  (* run twice: the warm run must agree too *)
  ignore (Engine.eval_entries eng q);
  let actual = Engine.eval_entries eng q in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal_dn expected actual

let prop_output_sorted (instance, q) =
  let eng = Testkit.engine instance in
  let actual = Engine.eval_entries eng q in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Entry.compare_rev a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  sorted actual

let prop_fused_matches_oracle (instance, q) =
  let expected = Testkit.oracle instance q in
  let eng = Testkit.engine instance in
  let actual = Fuse.eval_entries eng q in
  List.length expected = List.length actual
  && List.for_all2 Entry.equal_dn expected actual

let prop_fusion_never_more_scans (instance, q) =
  ignore instance;
  Fuse.scan_count (Fuse.plan_of q) <= List.length (Ast.atomic_subqueries q)

(* Results are sub-instances: closure property (Section 4.1). *)
let prop_closure (instance, q) =
  let eng = Testkit.engine instance in
  let result = Engine.eval_instance eng q in
  Instance.validate result = []
  && Instance.fold
       (fun ok e -> ok && Instance.mem instance (Entry.dn e))
       true result

(* --- Cost-based planner --------------------------------------------------- *)

(* Every access-path policy — cost-based, both forced baselines, and
   the legacy unconditional-index mode — must produce exactly the
   oracle's result: the planner may only change costs, never answers. *)
let prop_planner_modes_match_oracle (instance, q) =
  let expected = Testkit.oracle instance q in
  List.for_all
    (fun planner ->
      let eng = Testkit.engine ~planner instance in
      let actual = Engine.eval_entries eng q in
      List.length expected = List.length actual
      && List.for_all2 Entry.equal_dn expected actual)
    Engine.[ Auto; Force_index; Force_scan ]

(* A calibrated planner is still exact: feed a store from the engine's
   own journal stream (the self-tuning loop), then re-evaluate with the
   bias corrections live. *)
let prop_calibrated_planner_matches (instance, q) =
  let path = Filename.temp_file "ndq_caltest" ".jsonl" in
  Qlog.enable ~append:false path;
  let store = Planstats.create () in
  Planstats.attach store;
  Fun.protect
    ~finally:(fun () ->
      Planstats.detach store;
      Qlog.disable ();
      Sys.remove path)
    (fun () ->
      let eng = Testkit.engine ~planner:Engine.Auto instance in
      ignore (Engine.eval_entries eng q);
      Engine.set_calibration eng (Some store);
      let expected = Testkit.oracle instance q in
      let actual = Engine.eval_entries eng q in
      List.length expected = List.length actual
      && List.for_all2 Entry.equal_dn expected actual)

(* The cost-based pick never reads meaningfully more pages than the
   best forced alternative actually costs: the estimate slack (probe
   exactness, the collect proxy, the scope-overlap guess) is bounded,
   so a generous envelope of 2x + 6 pages catches any gross
   mis-selection while tolerating honest estimation error. *)
let prop_chosen_path_read_bound (instance, q) =
  let measure planner =
    let eng = Testkit.engine ~planner instance in
    ignore (Engine.eval_entries eng q);
    (Engine.stats eng).Io_stats.page_reads
  in
  let auto = measure Engine.Auto in
  let best = min (measure Engine.Force_index) (measure Engine.Force_scan) in
  auto <= (2 * best) + 6

(* A cached sub-result is an access path: once ( ? sub ? tag=even) is
   in the result cache, the planner serves it from there inside a
   bigger tree, and the answer still matches the oracle. *)
let test_planner_cache_path () =
  let instance = Dif_gen.karily ~fanout:2 ~size:128 () in
  let cache = Cache.create ~admit_min_io:1 () in
  let eng = Engine.create ~block:8 ~result_cache:cache instance in
  let q1 = Qparser.of_string "( ? sub ? tag=even)" in
  ignore (Engine.eval_entries eng q1);
  let q = Qparser.of_string "(& ( ? sub ? tag=even) ( ? sub ? priority>=1))" in
  let actual = Engine.eval_entries eng q in
  Testkit.check_entries "cache-path result = oracle"
    (Testkit.oracle instance q) actual;
  let _, _, cached = Engine.path_counts eng in
  Alcotest.(check bool) "the cache path served an atomic" true (cached > 0)

(* One plan per query: over generated serving trees, with the result
   cache on and off and under every planner policy, the paths the
   journal event names, the paths execution counted ([path_counts])
   and the chosen paths [Explain.estimate] shows are the same set, each
   priced atomic is counted once, and the answer is the oracle's.  With
   the cache on, every atomic sub-query is evaluated first so the cache
   path is on offer; a root that hits runs no plan, so its event names
   no path and nothing is counted. *)
let gen_mix_query =
  QCheck2.Gen.map
    (fun seed ->
      let instance =
        Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size = 150 } ()
      in
      (instance, (Query_mix.generate_ast ~seed ~count:1 instance).(0)))
    QCheck2.Gen.(int_range 1 10_000)

let prop_one_plan (instance, q) =
  let expected = Testkit.oracle instance q in
  let journal = Filename.temp_file "ndq_oneplan" ".jsonl" in
  let paths_of counts =
    List.filter_map
      (fun (name, n) -> if n > 0 then Some name else None)
      (List.combine [ "cache"; "index"; "scan" ] counts)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove journal)
    (fun () ->
      List.for_all
        (fun (cached, planner) ->
          let result_cache =
            if cached then Some (Cache.create ~admit_min_io:0 ()) else None
          in
          let eng = Engine.create ~block:8 ?result_cache ~planner instance in
          if cached then
            List.iter
              (fun a -> ignore (Engine.eval eng (Ast.Atomic a)))
              (Ast.atomic_subqueries q);
          let est = Explain.estimate eng q in
          let chosen =
            List.filter_map
              (fun ((n : Plan.node), _) ->
                Option.map
                  (fun (c : Plan.choice) -> Plan.path_name c.Plan.chosen.Plan.alt_path)
                  n.Plan.access)
              (Plan.flatten est)
          in
          let i0, s0, c0 = Engine.path_counts eng in
          Qlog.enable ~append:false journal;
          let actual =
            Fun.protect ~finally:Qlog.disable (fun () -> Engine.eval_entries eng q)
          in
          let i1, s1, c1 = Engine.path_counts eng in
          let counts = [ c1 - c0; i1 - i0; s1 - s0 ] in
          let ev =
            match Qlog.load journal with
            | [ ev ] -> ev
            | evs -> QCheck2.Test.fail_reportf "%d journal events" (List.length evs)
          in
          let agree =
            if ev.Qlog.cache = Some "hit" then
              ev.Qlog.path = None && List.for_all (( = ) 0) counts
            else
              let names = List.sort_uniq String.compare chosen in
              ev.Qlog.path
              = (match names with [] -> None | l -> Some (String.concat "," l))
              && paths_of counts = List.sort String.compare names
              && List.fold_left ( + ) 0 counts = List.length chosen
          in
          if not agree then
            QCheck2.Test.fail_reportf "%s (cache %b): journal path %s, estimate %s, counts %s"
              (Qprinter.to_string q) cached
              (Option.value ~default:"-" ev.Qlog.path)
              (String.concat "," chosen)
              (String.concat "," (List.map string_of_int counts));
          List.length expected = List.length actual
          && List.for_all2 Entry.equal_dn expected actual)
        [
          (false, Engine.Auto); (false, Engine.Force_index); (false, Engine.Force_scan);
          (true, Engine.Auto); (true, Engine.Force_index); (true, Engine.Force_scan);
        ])

(* A directory-watched engine follows an update: a query through the
   index path sees the new value, from an attribute index patched in
   place rather than rebuilt. *)
let test_watched_engine_sees_updates () =
  let d = Directory.create (Dif_gen.karily ~fanout:2 ~size:32 ()) in
  let eng = Engine.create ~block:8 ~directory:d (Directory.instance d) in
  let q = Qparser.of_string "( ? sub ? tag=fresh)" in
  Alcotest.(check int) "no fresh tag yet" 0
    (List.length (Engine.eval_entries eng q));
  let victim =
    match Engine.eval_entries eng (Qparser.of_string "( ? sub ? id=5)") with
    | [ e ] -> Entry.dn e
    | _ -> Alcotest.fail "expected exactly one id=5"
  in
  let attr_index = Engine.attr_index eng in
  (match
     Directory.modify d victim [ Directory.Replace ("tag", [ Value.Str "fresh" ]) ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "modify: %a" Directory.pp_error e);
  (match Engine.eval_entries eng q with
  | [ e ] ->
      Alcotest.(check bool) "the updated entry" true (Dn.equal (Entry.dn e) victim)
  | es -> Alcotest.failf "expected 1 fresh entry after update, got %d" (List.length es));
  (* the refresh patched the index it had rather than building another *)
  Alcotest.(check bool) "attribute index patched in place" true
    (Engine.attr_index eng == attr_index);
  (* and the other direction: the old value is gone from the index *)
  Alcotest.(check int) "old even/odd tag dropped" 0
    (List.length
       (Engine.eval_entries eng
          (Qparser.of_string "(& ( ? sub ? id=5) ( ? sub ? tag=odd))")))

(* A fused boolean subtree is answered by one scan of the engine's
   dn-index ([Fuse.eval] through [Engine.dn_index]), outside the atomic
   leaf: the index it is handed must already show the update. *)
let test_watched_fused_scan_sees_updates () =
  let d = Directory.create (Dif_gen.karily ~fanout:2 ~size:32 ()) in
  let eng = Engine.create ~block:8 ~directory:d (Directory.instance d) in
  let victim =
    match Testkit.oracle (Directory.instance d) (Qparser.of_string "( ? sub ? id=5)") with
    | [ e ] -> Entry.dn e
    | _ -> Alcotest.fail "expected exactly one id=5"
  in
  (match
     Directory.modify d victim [ Directory.Replace ("tag", [ Value.Str "fresh" ]) ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "modify: %a" Directory.pp_error e);
  let q = Qparser.of_string "(| ( ? sub ? tag=fresh) ( ? sub ? tag=fresh))" in
  Alcotest.(check int) "the query fuses whole" 1 (Fuse.scan_count (Fuse.plan_of q));
  let expected = Testkit.oracle (Directory.instance d) q in
  Alcotest.(check int) "the oracle sees the update" 1 (List.length expected);
  Testkit.check_entries "fused scan = oracle" expected (Fuse.eval_entries eng q)

(* Incremental maintenance under every update kind a directory reports:
   watched engines (each planner policy, and one with the result cache)
   must answer as the oracle over the current instance, and their
   patched indexes must hold exactly what a fresh build would. *)
type update_op =
  | Read of int  (** evaluate a pool query on every engine *)
  | Reprioritize of int * int
  | Rename_value of int * int  (** a string value moves through the tries *)
  | Add_child of int
  | Delete of int * bool
  | Move of int * int option  (** modify_dn, optionally under a new superior *)
  | Failed_batch of int * int  (** a successful modify, then a rollback *)
  | Burst of int  (** 70 updates between two reads: one diff covers them all *)

let names = [| "milo"; "mil"; "camilo"; "lomi"; "x" |]

let gen_update_ops =
  let open QCheck2 in
  let idx = Gen.int_range 0 10_000 in
  let op =
    Gen.frequency
      [
        (5, Gen.map (fun i -> Read i) idx);
        (2, Gen.map2 (fun i p -> Reprioritize (i, p)) idx (Gen.int_range 0 9));
        (2, Gen.map2 (fun i k -> Rename_value (i, k)) idx (Gen.int_range 0 4));
        (2, Gen.map (fun i -> Add_child i) idx);
        (1, Gen.map2 (fun i s -> Delete (i, s)) idx Gen.bool);
        (1, Gen.map2 (fun i j -> Move (i, j)) idx (Gen.opt idx));
        (1, Gen.map2 (fun i p -> Failed_batch (i, p)) idx (Gen.int_range 0 9));
        (1, Gen.map (fun i -> Burst i) idx);
      ]
  in
  let ( let* ) = Gen.( >>= ) in
  let* instance = Testkit.gen_instance in
  let* pool = Gen.list_size (Gen.int_range 2 5) (Testkit.gen_query instance) in
  let* ops = Gen.list_size (Gen.int_range 10 40) op in
  Gen.return (instance, pool, ops)

let nth_dn d i =
  match Instance.to_list (Directory.instance d) with
  | [] -> Dn.root
  | l -> Entry.dn (List.nth l (i mod List.length l))

(* Refused updates (schema violations, missing entries) are part of the
   stream: they must leave the engines untouched. *)
let rec apply_update d fresh = function
  | Read _ -> ()
  | Burst i ->
      for k = 0 to 69 do
        apply_update d fresh (if k mod 7 = 0 then Add_child (i + k) else Reprioritize (i + k, k mod 10))
      done
  | Reprioritize (i, p) ->
      ignore (Directory.modify d (nth_dn d i) [ Directory.Replace ("priority", [ Value.Int p ]) ])
  | Rename_value (i, k) ->
      ignore (Directory.modify d (nth_dn d i) [ Directory.Replace ("name", [ Value.Str names.(k) ]) ])
  | Add_child i ->
      incr fresh;
      let parent = nth_dn d i in
      ignore
        (Directory.add d
           (Entry.make
              (Dn.child parent (Rdn.single "id" (Value.Int !fresh)))
              [
                (Schema.object_class, Value.Str "node");
                ("id", Value.Int !fresh);
                ("priority", Value.Int (i mod 10));
                ("name", Value.Str names.(i mod Array.length names));
                ("ref", Value.Dn parent);
              ]))
  | Delete (i, subtree) -> ignore (Directory.delete ~subtree d (nth_dn d i))
  | Move (i, sup) -> (
      incr fresh;
      let dn = nth_dn d i in
      let new_superior = Option.map (nth_dn d) sup in
      (* Only an existing entry can be moved below itself: once the
         stream has emptied the directory, [nth_dn] falls back to the
         root, which is not an entry, and [No_such_entry] comes first. *)
      let below_itself =
        Directory.mem d dn
        &&
        match new_superior with
        | Some s -> Dn.is_self_or_descendant_of ~descendant:s ~ancestor:dn
        | None -> false
      in
      match
        Directory.modify_dn ?new_superior d dn
          ~new_rdn:(Rdn.single "id" (Value.Int !fresh))
      with
      | Error (Directory.Moved_below_itself _) when below_itself -> ()
      | _ when below_itself ->
          QCheck2.Test.fail_reportf "a move of %a below itself was not refused"
            Dn.pp dn
      | Ok () | Error _ -> ())
  | Failed_batch (i, p) -> (
      match
        Directory.batch d
          [
            (fun d -> Directory.modify d (nth_dn d i) [ Directory.Replace ("priority", [ Value.Int p ]) ]);
            (fun d -> Directory.delete d (Dn.of_string "id=424242"));
          ]
      with
      | Ok () -> QCheck2.Test.fail_report "a batch with a missing entry committed"
      | Error _ -> ())

let same_entries a b =
  List.equal
    (fun x y ->
      String.equal (Entry.key x) (Entry.key y)
      && List.equal
           (fun (a, v) (a', v') -> String.equal a a' && Value.equal v v')
           (Entry.attrs x) (Entry.attrs y))
    a b

(* Every lookup and count probe of [idx] answers as [fresh], a fresh
   build over the instance, does; lookups must return the instance's
   own entries. *)
let attr_index_agrees ~probes ~fresh idx =
  let agrees p =
    let norm x = List.stable_sort Entry.compare_rev (Attr_index.lookup x p) in
    let a = norm idx and b = norm fresh in
    List.length a = List.length b
    && List.for_all2 ( == ) a b
    && Attr_index.count idx p = Attr_index.count fresh p
  in
  List.for_all
    (fun (a, v) ->
      match v with
      | Value.Int i ->
          List.for_all
            (fun (lo, hi) -> agrees (Attr_index.Int_range (a, lo, hi)))
            [ (i, i); (min_int, i) ]
      | Value.Str s ->
          let n = String.length s in
          let head = String.sub s 0 (min 2 n) and tail = String.sub s (max 0 (n - 2)) (min 2 n) in
          agrees (Attr_index.Exact (a, s))
          && agrees (Attr_index.Prefix (a, head))
          && agrees (Attr_index.Substring (a, tail))
      | Value.Dn d -> List.for_all agrees (Option.to_list (Attr_index.probe (Afilter.Dn_eq (a, d)))))
    probes

let dn_index_agrees inst eng =
  let idx = Engine.dn_index eng in
  let held =
    Ext_list.Source.materialize (Engine.pager eng)
      (Dn_index.scan idx Ast.Sub (Instance.resolve (Dn_index.instance idx) Dn.root))
    |> Ext_list.to_list
  in
  let current = Instance.to_list inst in
  List.compare_lengths held current = 0 && List.for_all2 ( == ) held current

let values inst = Instance.fold (fun acc e -> List.rev_append (Entry.attrs e) acc) [] inst

let prop_incremental_maintenance (instance, pool, ops) =
  let d = Directory.create instance in
  let cache = Cache.create ~budget_pages:64 ~admit_min_io:0 () in
  Cache.attach cache d;
  let watched ?result_cache planner =
    Engine.create ~block:8 ~planner ?result_cache ~directory:d (Directory.instance d)
  in
  let engines =
    watched ~result_cache:cache Engine.Auto
    :: List.map (fun p -> watched p) Engine.[ Auto; Force_index; Force_scan ]
  in
  let pool = Array.of_list pool and fresh = ref 1_000_000 in
  let initial = values instance in
  List.iteri
    (fun step op ->
      apply_update d fresh op;
      match op with
      | Read i ->
          let q = pool.(i mod Array.length pool) in
          let inst = Directory.instance d in
          let expected = Testkit.oracle inst q in
          let probes = List.sort_uniq compare (List.rev_append initial (values inst)) in
          let fresh = Attr_index.build (Pager.create ~block:8 (Io_stats.create ())) inst in
          List.iteri
            (fun k eng ->
              let fail what =
                QCheck2.Test.fail_reportf "step %d, engine %d: %s (%s)" step k what
                  (Qprinter.to_string q)
              in
              if not (same_entries expected (Engine.eval_entries eng q)) then
                fail "result differs from the oracle";
              if not (dn_index_agrees inst eng) then fail "dn-index differs from the instance";
              match Engine.attr_index eng with
              | Some idx when not (attr_index_agrees ~probes ~fresh idx) ->
                  fail "attribute index differs from a fresh build"
              | _ -> ())
            engines
      | _ -> ())
    ops;
  true

(* A plan made before an update runs after it: [Engine.run_src] answers
   as [Semantics] over the instance the update left, under every
   planner policy, with the result cache off and on (warmed with the
   query's atomics, so plans choose the cache path the update then
   invalidates).  The update is any a directory reports, a subtree
   deletion among them; the plan's ranks index the old instance only. *)
let gen_stale_plan =
  let open QCheck2 in
  let idx = Gen.int_range 0 10_000 in
  let update =
    Gen.frequency
      [
        (2, Gen.map (fun i -> Delete (i, true)) idx);
        (1, Gen.map (fun i -> Delete (i, false)) idx);
        (1, Gen.map2 (fun i p -> Reprioritize (i, p)) idx (Gen.int_range 0 9));
        (1, Gen.map2 (fun i k -> Rename_value (i, k)) idx (Gen.int_range 0 4));
        (1, Gen.map (fun i -> Add_child i) idx);
        (1, Gen.map2 (fun i j -> Move (i, j)) idx (Gen.opt idx));
        (1, Gen.map (fun i -> Burst i) idx);
      ]
  in
  let ( let* ) = Gen.( >>= ) in
  let* instance = Testkit.gen_instance in
  let* q = Testkit.gen_query instance in
  let* op = update in
  Gen.return (instance, q, op)

let prop_stale_plan_replanned (instance, q, op) =
  List.for_all
    (fun (cached, planner) ->
      let d = Directory.create instance in
      let result_cache = if cached then Some (Cache.create ~admit_min_io:0 ()) else None in
      Option.iter (fun c -> Cache.attach c d) result_cache;
      let eng = Engine.create ~block:8 ~planner ?result_cache ~directory:d (Directory.instance d) in
      if cached then
        List.iter (fun a -> ignore (Engine.eval eng (Ast.Atomic a))) (Ast.atomic_subqueries q);
      let plan = Engine.plan ~mode:Engine.Streaming eng q in
      apply_update d (ref 1_000_000) op;
      let got =
        Ext_list.to_list (Ext_list.Source.materialize (Engine.pager eng) (Engine.run_src eng plan))
      in
      same_entries (Testkit.oracle (Directory.instance d) q) got
      || QCheck2.Test.fail_reportf "%s, cache %b: result differs from the oracle (%s)"
           (match planner with
           | Engine.Auto -> "auto"
           | Engine.Force_index -> "index"
           | Engine.Force_scan -> "scan")
           cached (Qprinter.to_string q))
    [
      (false, Engine.Auto);
      (false, Engine.Force_index);
      (false, Engine.Force_scan);
      (true, Engine.Auto);
      (true, Engine.Force_index);
      (true, Engine.Force_scan);
    ]

(* :explain's contract: an estimated plan renders the chosen access
   path and the rejected alternatives with the costs that lost. *)
let test_explain_shows_paths () =
  let instance = Dif_gen.karily ~fanout:2 ~size:64 () in
  let eng = Engine.create ~block:8 instance in
  let plan = Explain.estimate eng (Qparser.of_string "( ? sub ? priority>=3)") in
  let text = Plan.to_string plan in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prints the chosen path" true (contains "path ");
  Alcotest.(check bool) "prints a rejected alternative" true (contains "!");
  Alcotest.(check bool) "prices the scan alternative" true (contains "scan rows=");
  (* forced modes pin the path *)
  Engine.set_planner eng Engine.Force_scan;
  let forced =
    Plan.to_string (Explain.estimate eng (Qparser.of_string "( ? sub ? priority>=3)"))
  in
  let contains_in hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "forced scan is chosen" true
    (contains_in forced "path scan")

let () =
  Alcotest.run "eval"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "atomic scopes" `Quick test_atomic_scopes;
          Alcotest.test_case "example 4.1 (diff)" `Quick test_example_4_1;
          Alcotest.test_case "example 5.1 (children)" `Quick test_example_5_1;
          Alcotest.test_case "hier operators" `Quick test_hier_operators;
          Alcotest.test_case "dc blocking" `Quick test_closest_ancestor_blocking;
          Alcotest.test_case "simple aggregate selection" `Quick test_simple_agg;
          Alcotest.test_case "structural aggregate selection" `Quick
            test_structural_agg;
          Alcotest.test_case "embedded references" `Quick test_eref;
          Alcotest.test_case "example 7.1 shape" `Quick test_example_7_1_shape;
          Alcotest.test_case "update/query soak" `Quick test_update_query_soak;
        ] );
      ( "differential",
        [
          Testkit.qtest ~count:300 "engine = oracle" Testkit.gen_instance_and_query
            prop_engine_matches_oracle;
          Testkit.qtest ~count:100 "naive operators = engine" gen_agg_free_root
            prop_naive_operators_match_engine;
          Testkit.qtest ~count:100 "engine without attr indexes = oracle"
            Testkit.gen_instance_and_query prop_no_index_matches;
          Testkit.qtest ~count:150 "outputs strictly sorted"
            Testkit.gen_instance_and_query prop_output_sorted;
          Testkit.qtest ~count:100 "closure: results are valid sub-instances"
            Testkit.gen_instance_and_query prop_closure;
          Testkit.qtest ~count:150 "fused evaluation = oracle"
            Testkit.gen_instance_and_query prop_fused_matches_oracle;
          Testkit.qtest ~count:150 "fusion never adds scans"
            Testkit.gen_instance_and_query prop_fusion_never_more_scans;
          Testkit.qtest ~count:100 "cached engine = oracle (cold and warm)"
            Testkit.gen_instance_and_query prop_cached_engine_matches;
          Testkit.qtest ~count:100 "paging reassembles the result"
            Testkit.gen_instance_and_query prop_paging_reassembles;
        ] );
      ( "planner",
        [
          Testkit.qtest ~count:100 "every planner mode = oracle"
            Testkit.gen_instance_and_query prop_planner_modes_match_oracle;
          Testkit.qtest ~count:30 "calibrated planner = oracle"
            Testkit.gen_instance_and_query prop_calibrated_planner_matches;
          Testkit.qtest ~count:150 "chosen path within read envelope"
            Testkit.gen_instance_and_atomic prop_chosen_path_read_bound;
          Alcotest.test_case "cache access path" `Quick test_planner_cache_path;
          Alcotest.test_case "watched engine sees updates" `Quick
            test_watched_engine_sees_updates;
          Alcotest.test_case "watched fused scan sees updates" `Quick
            test_watched_fused_scan_sees_updates;
          Testkit.qtest ~count:40 "incremental maintenance = oracle + fresh build"
            gen_update_ops prop_incremental_maintenance;
          Testkit.qtest ~count:100 "stale plan runs on the current instance"
            gen_stale_plan prop_stale_plan_replanned;
          Alcotest.test_case "explain renders chosen vs rejected" `Quick
            test_explain_shows_paths;
          Testkit.qtest ~count:40 "journal, path counts and explain share one plan"
            gen_mix_query prop_one_plan;
        ] );
    ]
