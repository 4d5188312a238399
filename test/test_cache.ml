(* Tests for the semantic query-result cache (lib/cache): Vtrie stamp
   semantics, Footprint extraction, Cache hit/stale/LRU/admission
   mechanics, Plan.fingerprint injectivity, and the differential
   property — a cached engine agrees with the Semantics oracle under
   random interleavings of queries and directory updates. *)

let dn = Dn.of_string
let oc c = (Schema.object_class, Value.Str c)

(* --- Vtrie ------------------------------------------------------------- *)

let test_vtrie_stamps () =
  let t = Vtrie.create () in
  let a = dn "ou=a, dc=org" and b = dn "ou=b, dc=org" in
  let leaf = dn "id=1, ou=a, dc=org" in
  let s0 = Vtrie.stamp t a in
  Vtrie.bump t b;
  Alcotest.(check int) "sibling update leaves stamp" s0 (Vtrie.stamp t a);
  Vtrie.bump t leaf;
  Alcotest.(check bool) "descendant update advances stamp" true
    (Vtrie.stamp t a > s0);
  let s1 = Vtrie.stamp t a in
  Vtrie.bump t a;
  Alcotest.(check bool) "self update advances stamp" true (Vtrie.stamp t a > s1);
  (* A shallow update at the ancestor touches the entry [dc=org] only,
     not the subtree below [a]. *)
  let s2 = Vtrie.stamp t a in
  Vtrie.bump t (dn "dc=org");
  Alcotest.(check int) "shallow ancestor update leaves stamp" s2
    (Vtrie.stamp t a);
  Vtrie.bump ~subtree:true t (dn "dc=org");
  Alcotest.(check bool) "subtree ancestor update advances stamp" true
    (Vtrie.stamp t a > s2);
  Alcotest.(check int) "epoch counts every bump" 5 (Vtrie.epoch t);
  let s3 = Vtrie.stamp t a and sb = Vtrie.stamp t b in
  Vtrie.bump_all t;
  Alcotest.(check bool) "bump_all advances every stamp" true
    (Vtrie.stamp t a > s3 && Vtrie.stamp t b > sb)

let test_vtrie_lazy_nodes () =
  let t = Vtrie.create () in
  (* Stamps exist before any node does, and stay stable as unrelated
     paths materialize nodes. *)
  let ghost = dn "ou=nowhere, dc=org" in
  Alcotest.(check int) "missing subtree stamps zero" 0 (Vtrie.stamp t ghost);
  Vtrie.bump t (dn "ou=real, dc=org");
  Alcotest.(check int) "still zero after unrelated bump" 0 (Vtrie.stamp t ghost);
  Alcotest.(check bool) "nodes allocated lazily" true (Vtrie.node_count t <= 3)

(* --- Footprint --------------------------------------------------------- *)

let atomic ?(scope = Ast.Sub) base =
  Ast.Atomic { Ast.base; scope; filter = Afilter.Present "id" }

let test_footprint_rules () =
  let a = dn "ou=a, dc=org" and b = dn "ou=b, dc=org" in
  let inner = dn "id=1, ou=a, dc=org" in
  (match Footprint.of_query (atomic a) with
  | Footprint.Bases [ d ] ->
      Alcotest.(check string) "atomic base" "ou=a, dc=org" (Dn.to_string d)
  | fp -> Alcotest.failf "expected one base, got %a" Footprint.pp fp);
  (* A base covered by another base's subtree is elided. *)
  (match Footprint.of_query (Ast.And (atomic a, atomic inner)) with
  | Footprint.Bases [ d ] ->
      Alcotest.(check string) "covered base elided" "ou=a, dc=org"
        (Dn.to_string d)
  | fp -> Alcotest.failf "expected covering base, got %a" Footprint.pp fp);
  (match Footprint.of_query (Ast.Or (atomic a, atomic b)) with
  | Footprint.Bases l ->
      Alcotest.(check int) "disjoint bases kept" 2 (List.length l)
  | fp -> Alcotest.failf "expected two bases, got %a" Footprint.pp fp);
  (* Base/one scopes are widened to the subtree, never narrowed. *)
  (match Footprint.of_query (atomic ~scope:Ast.Base a) with
  | Footprint.Bases [ d ] ->
      Alcotest.(check string) "base scope widened" "ou=a, dc=org"
        (Dn.to_string d)
  | fp -> Alcotest.failf "expected one base, got %a" Footprint.pp fp);
  Alcotest.(check bool) "root base degrades to Whole" true
    (Footprint.of_query (atomic Dn.root) = Footprint.Whole);
  let many =
    List.init 17 (fun i -> atomic (dn (Printf.sprintf "ou=x%d, dc=org" i)))
  in
  let wide = List.fold_left (fun q a -> Ast.Or (q, a)) (List.hd many) (List.tl many) in
  Alcotest.(check bool) "too many bases degrades to Whole" true
    (Footprint.of_query wide = Footprint.Whole)

(* --- Cache mechanics --------------------------------------------------- *)

let entry d = Entry.make (dn d) [ oc "node"; ("id", Value.Int 1) ]

let store ?(cost_io = 10) ?(pages = 1) c ~fp ~q result =
  Cache.store c ~fingerprint:fp ~query:q
    ~footprint:(Footprint.Bases [ dn fp ])
    ~cost_io ~pages result

let check_hit msg c ~fp ~q expected =
  match Cache.find c ~fingerprint:fp ~query:q with
  | Cache.Hit arr ->
      Alcotest.(check int) msg expected (Array.length arr)
  | Cache.Stale -> Alcotest.failf "%s: stale" msg
  | Cache.Miss -> Alcotest.failf "%s: miss" msg

let test_cache_hit_stale () =
  let c = Cache.create ~admit_min_io:0 () in
  let fp = "ou=a, dc=org" and q = "(q)" in
  Alcotest.(check bool) "cold lookup misses" true
    (Cache.find c ~fingerprint:fp ~query:q = Cache.Miss);
  Alcotest.(check bool) "admitted" true
    (store c ~fp ~q [| entry "id=1, ou=a, dc=org" |]);
  check_hit "fresh entry hits" c ~fp ~q 1;
  (* An update outside the footprint leaves the entry fresh... *)
  Cache.note_update c (dn "ou=b, dc=org");
  check_hit "unrelated update keeps entry" c ~fp ~q 1;
  (* ...an update inside it invalidates exactly once. *)
  Cache.note_update c (dn "id=9, ou=a, dc=org");
  Alcotest.(check bool) "inside update stales entry" true
    (Cache.find c ~fingerprint:fp ~query:q = Cache.Stale);
  Alcotest.(check bool) "stale entry was dropped" true
    (Cache.find c ~fingerprint:fp ~query:q = Cache.Miss);
  let s = Cache.stats c in
  Alcotest.(check (list int)) "counters" [ 2; 2; 1 ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.stale ]

let test_cache_same_fingerprint_distinct_text () =
  (* The constant-eliding fingerprint may coincide; the exact query text
     must keep the entries apart. *)
  let c = Cache.create ~admit_min_io:0 () in
  let fp = "ou=a, dc=org" in
  assert (store c ~fp ~q:"(id<5)" [| entry "id=1, ou=a, dc=org" |]);
  assert (store c ~fp ~q:"(id<7)" [| entry "id=1, ou=a, dc=org"; entry "id=6, ou=a, dc=org" |]);
  check_hit "first constant" c ~fp ~q:"(id<5)" 1;
  check_hit "second constant" c ~fp ~q:"(id<7)" 2

let test_cache_admission_and_lru () =
  let c = Cache.create ~budget_pages:3 ~admit_min_io:2 () in
  Alcotest.(check bool) "cheap result refused" false
    (store c ~cost_io:1 ~fp:"ou=a, dc=org" ~q:"(a)" [||]);
  Alcotest.(check bool) "oversized result refused" false
    (store c ~pages:4 ~fp:"ou=a, dc=org" ~q:"(a)" [||]);
  Alcotest.(check int) "rejects counted" 2 (Cache.stats c).Cache.rejects;
  assert (store c ~fp:"ou=a, dc=org" ~q:"(a)" [||]);
  assert (store c ~fp:"ou=b, dc=org" ~q:"(b)" [||]);
  assert (store c ~fp:"ou=c, dc=org" ~q:"(c)" [||]);
  (* Touch a, making b the LRU entry; the next store evicts exactly b. *)
  check_hit "touch a" c ~fp:"ou=a, dc=org" ~q:"(a)" 0;
  assert (store c ~fp:"ou=d, dc=org" ~q:"(d)" [||]);
  Alcotest.(check bool) "lru entry evicted" true
    (Cache.find c ~fingerprint:"ou=b, dc=org" ~query:"(b)" = Cache.Miss);
  check_hit "recently used survives" c ~fp:"ou=a, dc=org" ~q:"(a)" 0;
  check_hit "newest survives" c ~fp:"ou=d, dc=org" ~q:"(d)" 0;
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  (* Shrinking the budget evicts down to it, oldest first. *)
  Cache.set_budget_pages c 1;
  Alcotest.(check int) "budget shrink evicts" 1 (Cache.stats c).Cache.entries;
  check_hit "most recent kept" c ~fp:"ou=d, dc=org" ~q:"(d)" 0;
  Cache.clear c;
  let s = Cache.stats c in
  Alcotest.(check int) "clear drops entries" 0 s.Cache.entries;
  Alcotest.(check int) "clear keeps pages accounting" 0 s.Cache.used_pages;
  Alcotest.(check bool) "clear keeps counters" true (s.Cache.hits > 0)

let test_cache_attach_hooks () =
  (* [attach] wires the directory's update hooks: a successful mutation
     inside a cached footprint stales the entry with no manual
     [note_update]. *)
  let d =
    Directory.create
      (Dif_gen.generate ~params:{ Dif_gen.default_params with size = 30; seed = 7 } ())
  in
  let c = Cache.create ~admit_min_io:0 () in
  Cache.attach c d;
  let deep =
    List.find (fun e -> Dn.depth (Entry.dn e) >= 2)
      (Instance.to_list (Directory.instance d))
  in
  let fp = Dn.to_string (Entry.dn deep) and q = "(q)" in
  assert (store c ~fp ~q [| deep |]);
  check_hit "fresh after attach" c ~fp ~q 1;
  (match Directory.modify d (Entry.dn deep)
           [ Directory.Replace ("priority", [ Value.Int 5 ]) ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "modify: %a" Directory.pp_error e);
  Alcotest.(check bool) "directory update stales through the hook" true
    (Cache.find c ~fingerprint:fp ~query:q = Cache.Stale)

(* --- Plan fingerprints ------------------------------------------------- *)

let prop_fingerprint_injective (_instance, (q1, q2)) =
  (* Distinct normalized shapes never collide on the 64-bit fingerprint
     (over any corpus this generator can produce). *)
  Plan.shape q1 = Plan.shape q2 || Plan.fingerprint q1 <> Plan.fingerprint q2

let prop_fingerprint_of_shape (instance, q) =
  ignore instance;
  (* The fingerprint is a pure function of the shape. *)
  String.length (Plan.fingerprint q) = 16
  && Plan.fingerprint q = Plan.fingerprint q

let test_fingerprint_base_scope () =
  let q base scope = Ast.Atomic { Ast.base; scope; filter = Afilter.Present "id" } in
  let a = dn "ou=a, dc=org" and b = dn "ou=b, dc=org" in
  Alcotest.(check bool) "base dn is part of the shape" true
    (Plan.fingerprint (q a Ast.Sub) <> Plan.fingerprint (q b Ast.Sub));
  Alcotest.(check bool) "scope is part of the shape" true
    (Plan.fingerprint (q a Ast.Sub) <> Plan.fingerprint (q a Ast.Base)
    && Plan.fingerprint (q a Ast.Sub) <> Plan.fingerprint (q a Ast.One)
    && Plan.fingerprint (q a Ast.Base) <> Plan.fingerprint (q a Ast.One));
  (* Constants are elided: same shape, different constant. *)
  let f k = Ast.Atomic { Ast.base = a; scope = Ast.Sub;
                         filter = Afilter.Int_cmp ("id", Afilter.Lt, k) } in
  Alcotest.(check string) "constants elided" (Plan.fingerprint (f 3))
    (Plan.fingerprint (f 4))

(* --- Differential: cached engine = oracle under updates ---------------- *)

type op =
  | Query of int  (** index into the query pool *)
  | Set_priority of int * int
  | Add_node of int
  | Delete of int * bool
  | Rename of int

let gen_ops =
  let open QCheck2 in
  let idx = Gen.int_range 0 10_000 in
  let gen_op =
    Gen.frequency
      [
        (6, Gen.map (fun i -> Query i) idx);
        (2, Gen.map2 (fun i p -> Set_priority (i, p)) idx (Gen.int_range 0 9));
        (1, Gen.map (fun i -> Add_node i) idx);
        (1, Gen.map2 (fun i s -> Delete (i, s)) idx Gen.bool);
        (1, Gen.map (fun i -> Rename i) idx);
      ]
  in
  let ( let* ) = Gen.( >>= ) in
  let* instance = Testkit.gen_instance in
  let* pool = Gen.list_size (Gen.int_range 2 5) (Testkit.gen_query instance) in
  let* ops = Gen.list_size (Gen.int_range 10 40) gen_op in
  Gen.return (instance, pool, ops)

(* Result equality must include attribute values: a stale cached entry
   can carry the right dn with outdated attributes. *)
let canonical entries =
  List.map
    (fun e ->
      ( Dn.to_string (Entry.dn e),
        List.sort compare
          (List.map
             (fun (a, v) -> a ^ "=" ^ Value.to_string v)
             (Entry.attrs e)) ))
    entries

let nth_dn d i =
  match Instance.to_list (Directory.instance d) with
  | [] -> Dn.root
  | l -> Entry.dn (List.nth l (i mod List.length l))

let prop_cached_engine_matches_oracle (instance, pool, ops) =
  let d = Directory.create instance in
  let c = Cache.create ~budget_pages:64 ~admit_min_io:0 () in
  Cache.attach c d;
  let pool = Array.of_list pool in
  let eng = Engine.create ~block:8 ~result_cache:c ~directory:d (Directory.instance d) in
  let fresh = ref 1_000_000 in
  List.iter
    (fun op ->
      match op with
      | Query i ->
          let q = pool.(i mod Array.length pool) in
          let actual =
            Ext_list.to_list (Engine.eval eng q)
          in
          let expected = Testkit.oracle (Directory.instance d) q in
          Alcotest.(check (list (pair string (list string))))
            (Qprinter.to_string q)
            (canonical expected) (canonical actual)
      | Set_priority (i, p) ->
          ignore
            (Directory.modify d (nth_dn d i)
               [ Directory.Replace ("priority", [ Value.Int p ]) ])
      | Add_node i ->
          incr fresh;
          let parent = nth_dn d i in
          let rdn = Rdn.single "id" (Value.Int !fresh) in
          ignore
            (Directory.add d
               (Entry.make
                  (Dn.child parent rdn)
                  [ oc "node"; ("id", Value.Int !fresh);
                    ("priority", Value.Int (i mod 10)) ]))
      | Delete (i, subtree) -> ignore (Directory.delete ~subtree d (nth_dn d i))
      | Rename i ->
          incr fresh;
          ignore
            (Directory.modify_dn d (nth_dn d i)
               ~new_rdn:(Rdn.single "id" (Value.Int !fresh))))
    ops;
  true

let () =
  Alcotest.run "cache"
    [
      ( "vtrie",
        [
          Alcotest.test_case "stamp semantics" `Quick test_vtrie_stamps;
          Alcotest.test_case "lazy nodes" `Quick test_vtrie_lazy_nodes;
        ] );
      ( "footprint",
        [ Alcotest.test_case "extraction rules" `Quick test_footprint_rules ] );
      ( "mechanics",
        [
          Alcotest.test_case "hit / stale / miss" `Quick test_cache_hit_stale;
          Alcotest.test_case "text disambiguates fingerprints" `Quick
            test_cache_same_fingerprint_distinct_text;
          Alcotest.test_case "admission + lru eviction" `Quick
            test_cache_admission_and_lru;
          Alcotest.test_case "directory hooks via attach" `Quick
            test_cache_attach_hooks;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "base and scope" `Quick test_fingerprint_base_scope;
          Testkit.qtest ~count:300 "injective over shapes"
            QCheck2.Gen.(
              Testkit.gen_instance >>= fun i ->
              pair (Testkit.gen_query i) (Testkit.gen_query i) >>= fun qs ->
              return (i, qs))
            prop_fingerprint_injective;
          Testkit.qtest ~count:100 "pure function of the query"
            Testkit.gen_instance_and_query prop_fingerprint_of_shape;
        ] );
      ( "differential",
        [
          Testkit.qtest ~count:150 "cached engine = oracle under updates"
            gen_ops prop_cached_engine_matches_oracle;
        ] );
    ]
