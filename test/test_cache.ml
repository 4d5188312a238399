(* Tests for the semantic query-result cache (lib/cache): Vtrie stamp
   semantics, Footprint extraction, Cache hit/stale/admission
   mechanics, GreedyDual-Size replacement, exact text-plus-tree keys,
   Plan.fingerprint injectivity, and the differential
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

(* Each text [q] is stored for the tree [atomic (dn fp)], with [fp]'s
   subtree as its footprint. *)
let store ?(cost_io = 10) ?(pages = 1) c ~fp ~q result =
  Cache.store c ~query:q (atomic (dn fp))
    ~footprint:(Footprint.Bases [ dn fp ])
    ~cost_io ~pages result

let find c ~fp ~q = Cache.find c ~query:q (atomic (dn fp))

let check_hit msg c ~fp ~q expected =
  match find c ~fp ~q with
  | Cache.Hit arr ->
      Alcotest.(check int) msg expected (Array.length arr)
  | Cache.Stale -> Alcotest.failf "%s: stale" msg
  | Cache.Miss -> Alcotest.failf "%s: miss" msg

let test_cache_hit_stale () =
  let c = Cache.create ~admit_min_io:0 () in
  let fp = "ou=a, dc=org" and q = "(q)" in
  Alcotest.(check bool) "cold lookup misses" true
    (find c ~fp ~q = Cache.Miss);
  Alcotest.(check bool) "admitted" true
    (store c ~fp ~q [| entry "id=1, ou=a, dc=org" |]);
  check_hit "fresh entry hits" c ~fp ~q 1;
  (* An update outside the footprint leaves the entry fresh... *)
  Cache.note_update c (dn "ou=b, dc=org");
  check_hit "unrelated update keeps entry" c ~fp ~q 1;
  (* ...an update inside it invalidates exactly once. *)
  Cache.note_update c (dn "id=9, ou=a, dc=org");
  Alcotest.(check bool) "inside update stales entry" true
    (find c ~fp ~q = Cache.Stale);
  Alcotest.(check bool) "stale entry was dropped" true
    (find c ~fp ~q = Cache.Miss);
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
    (find c ~fp:"ou=b, dc=org" ~q:"(b)" = Cache.Miss);
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
    (find c ~fp ~q = Cache.Stale)

(* --- Replacement: GreedyDual-Size over page io ------------------------------ *)

let check_miss msg c ~fp ~q =
  match find c ~fp ~q with
  | Cache.Miss -> ()
  | Cache.Hit _ -> Alcotest.failf "%s: hit" msg
  | Cache.Stale -> Alcotest.failf "%s: stale" msg

let test_cost_over_recency () =
  (* Recency does not override cost: the newer entry is cheaper to
     recompute per page it holds, so it goes first. *)
  let c = Cache.create ~budget_pages:2 ~admit_min_io:0 () in
  assert (store ~cost_io:100 c ~fp:"ou=a, dc=org" ~q:"(dear)" [||]);
  assert (store ~cost_io:2 c ~fp:"ou=b, dc=org" ~q:"(cheap)" [||]);
  assert (store ~cost_io:10 c ~fp:"ou=c, dc=org" ~q:"(third)" [||]);
  check_miss "newer cheap entry evicted" c ~fp:"ou=b, dc=org" ~q:"(cheap)";
  check_hit "older dear entry kept" c ~fp:"ou=a, dc=org" ~q:"(dear)" 0;
  check_hit "new entry kept" c ~fp:"ou=c, dc=org" ~q:"(third)" 0;
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

(* The hot set of hot_cached's seed-1 pool against one of its
   whole-directory results: fifteen results of 0-6 pages costing 8-27
   io, one of 85 pages costing 343 (94 pages together), and a tail
   result of 250 pages costing 508 in a budget of 256.  Under exact LRU
   each store of the tail flushed the hot set. *)
let test_hot_set_survives_tail () =
  let c = Cache.create ~budget_pages:256 () in
  let hot_pages = [| 6; 1; 0; 1; 0; 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 85 |] in
  let hot_cost i = if i = 15 then 343 else 8 + (i * 19 / 14) in
  let fp i = Printf.sprintf "ou=h%d, dc=org" i and q i = Printf.sprintf "(hot %d)" i in
  Array.iteri
    (fun i pages ->
      Alcotest.(check bool) "hot result admitted" true
        (store ~cost_io:(hot_cost i) ~pages c ~fp:(fp i) ~q:(q i) [||]))
    hot_pages;
  Alcotest.(check int) "hot set pages" 94 (Cache.stats c).Cache.used_pages;
  for round = 1 to 3 do
    Array.iteri (fun i _ -> check_hit "hot hit" c ~fp:(fp i) ~q:(q i) 0) hot_pages;
    Alcotest.(check bool) "tail refused" false
      (store ~cost_io:508 ~pages:250 c ~fp:"ou=tail, dc=org" ~q:"(tail)" [||]);
    Cache.check c;
    let s = Cache.stats c in
    Alcotest.(check int) "refusals counted" round s.Cache.rejects;
    Alcotest.(check int) "nothing evicted" 0 s.Cache.evictions;
    Alcotest.(check int) "hot set intact" 16 s.Cache.entries
  done;
  Array.iteri (fun i _ -> check_hit "hot set survives" c ~fp:(fp i) ~q:(q i) 0) hot_pages;
  check_miss "tail not cached" c ~fp:"ou=tail, dc=org" ~q:"(tail)"

let test_shrink_evicts_lowest () =
  let c = Cache.create ~budget_pages:3 ~admit_min_io:0 () in
  assert (store ~cost_io:30 c ~fp:"ou=a, dc=org" ~q:"(a)" [||]);
  assert (store ~cost_io:10 c ~fp:"ou=b, dc=org" ~q:"(b)" [||]);
  assert (store ~cost_io:20 c ~fp:"ou=c, dc=org" ~q:"(c)" [||]);
  Cache.set_budget_pages c 2;
  check_miss "lowest priority evicted first" c ~fp:"ou=b, dc=org" ~q:"(b)";
  Cache.set_budget_pages c 1;
  check_miss "then the next lowest" c ~fp:"ou=c, dc=org" ~q:"(c)";
  check_hit "dearest kept" c ~fp:"ou=a, dc=org" ~q:"(a)" 0;
  Alcotest.(check int) "two evictions" 2 (Cache.stats c).Cache.evictions

(* Two trees that print alike: a string and an int equality filter, and
   a base rdn valued as an int and as a string. *)
let alias_pairs =
  let base = dn "ou=a, dc=org" in
  let at b filter = Ast.Atomic { Ast.base = b; scope = Ast.Sub; filter } in
  let rdn v = Dn.child base (Rdn.single "x" v) in
  [
    ( at base (Afilter.Str_eq ("priority", "5")),
      at base (Afilter.Int_cmp ("priority", Afilter.Eq, 5)) );
    (at (rdn (Value.Int 2)) (Afilter.Present "id"), at (rdn (Value.Str "2")) (Afilter.Present "id"));
  ]

let test_alias_trees_kept_apart () =
  List.iter
    (fun (t1, t2) ->
      let text = Qprinter.to_string t1 in
      Alcotest.(check string) "the pair prints alike" text (Qprinter.to_string t2);
      let c = Cache.create ~admit_min_io:0 () in
      let r1 = [| entry "id=1, ou=a, dc=org" |]
      and r2 = [| entry "id=1, ou=a, dc=org"; entry "id=2, ou=a, dc=org" |] in
      let put t r =
        Cache.store c ~query:text t ~footprint:(Footprint.of_query t) ~cost_io:10 ~pages:1 r
      in
      assert (put t1 r1);
      Alcotest.(check bool) "the other tree misses" true
        (Cache.find c ~query:text t2 = Cache.Miss);
      assert (put t2 r2);
      Alcotest.(check int) "separate entries" 2 (Cache.stats c).Cache.entries;
      let served t r =
        match Cache.find c ~query:text t with Cache.Hit arr -> arr == r | _ -> false
      in
      Alcotest.(check bool) "first tree served its own result" true (served t1 r1);
      Alcotest.(check bool) "second tree served its own result" true (served t2 r2))
    alias_pairs;
  (* Through an engine: the string filter matches no int priority, the
     int filter does, and neither is served the other's result. *)
  let instance = Dif_gen.generate ~params:{ Dif_gen.default_params with size = 200 } () in
  let eng = Engine.create ~block:8 ~result_cache:(Cache.create ~admit_min_io:0 ()) instance in
  let base = dn "dc=root0" in
  List.iter
    (fun filter ->
      let q = Ast.Atomic { Ast.base; scope = Ast.Sub; filter } in
      let expected = List.length (Testkit.oracle instance q) in
      for _ = 1 to 2 do
        Alcotest.(check int) (Afilter.to_string filter) expected
          (Ext_list.length (Engine.eval eng q))
      done)
    [ Afilter.Int_cmp ("priority", Afilter.Eq, 5); Afilter.Str_eq ("priority", "5") ]

(* A model check over random operation sequences: the structure's
   invariants hold after every step, and a hit returns exactly the
   array last admitted under that text and tree, with no update inside
   its footprint since. *)
type cop =
  | C_store of int * int * int  (** key, cost_io, pages *)
  | C_find of int
  | C_update of int
  | C_budget of int
  | C_clear

let model_keys =
  let base i = dn (Printf.sprintf "ou=k%d, dc=org" (i mod 3)) in
  let at i filter = Ast.Atomic { Ast.base = base i; scope = Ast.Sub; filter } in
  Array.concat
    [
      Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) alias_pairs);
      Array.init 8 (fun i -> at i (Afilter.Int_cmp ("id", Afilter.Lt, i)));
    ]
  |> Array.map (fun t -> (Qprinter.to_string t, t))

let update_dns =
  [| dn "ou=k0, dc=org"; dn "id=1, ou=k1, dc=org"; dn "ou=other, dc=org"; dn "x=2, ou=a, dc=org" |]

let gen_cops =
  let open QCheck2.Gen in
  let key = int_bound (Array.length model_keys - 1) in
  list_size (int_range 1 80)
    (frequency
       [
         (5, map3 (fun k c p -> C_store (k, c, p)) key (int_range 0 60) (int_range 0 12));
         (5, map (fun k -> C_find k) key);
         (1, map (fun i -> C_update i) (int_bound (Array.length update_dns - 1)));
         (1, map (fun n -> C_budget n) (int_range 0 40));
         (1, return C_clear);
       ])

let prop_cache_model cops =
  let c = Cache.create ~budget_pages:24 ~admit_min_io:3 () in
  (* per key: the array last admitted, while no update reached it *)
  let live = Array.make (Array.length model_keys) None in
  List.iter
    (fun op ->
      (match op with
      | C_store (k, cost_io, pages) ->
          let text, tree = model_keys.(k) in
          let r = Array.make (k mod 3) (entry "id=1, ou=a, dc=org") in
          live.(k) <-
            (if Cache.store c ~query:text tree ~footprint:(Footprint.of_query tree) ~cost_io ~pages r
             then Some r
             else None)
      | C_find k -> (
          let text, tree = model_keys.(k) in
          match (Cache.find c ~query:text tree, live.(k)) with
          | Cache.Hit arr, Some r when arr == r -> ()
          | Cache.Hit _, _ -> failwith "a hit served a result not stored for its key"
          | (Cache.Miss | Cache.Stale), _ -> live.(k) <- None)
      | C_update i ->
          let d = update_dns.(i) in
          Cache.note_update c d;
          Array.iteri
            (fun k (_, tree) ->
              match Footprint.of_query tree with
              | Footprint.Bases bs
                when List.exists (fun b -> Dn.is_self_or_descendant_of ~descendant:d ~ancestor:b) bs ->
                  live.(k) <- None
              | _ -> ())
            model_keys
      | C_budget n -> Cache.set_budget_pages c n
      | C_clear ->
          Cache.clear c;
          Array.fill live 0 (Array.length live) None);
      Cache.check c)
    cops;
  true

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
      ( "replacement",
        [
          Alcotest.test_case "cost per page outranks recency" `Quick test_cost_over_recency;
          Alcotest.test_case "hot set survives a large cheap result" `Quick
            test_hot_set_survives_tail;
          Alcotest.test_case "budget shrink evicts lowest priority" `Quick
            test_shrink_evicts_lowest;
          Alcotest.test_case "trees that print alike kept apart" `Quick
            test_alias_trees_kept_apart;
          Testkit.qtest ~count:300 "model: invariants and exact hits" gen_cops prop_cache_model;
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
