(* Tests for the secondary indexes: B+tree, tries, substring index and
   the clustering dn-index. *)

let fresh ?(block = 8) () =
  let stats = Io_stats.create () in
  (stats, Pager.create ~block stats)

(* --- B+tree ----------------------------------------------------------------- *)

module Imap = Map.Make (Int)

let gen_kvs =
  QCheck2.Gen.(
    list_size (int_range 0 800) (pair (int_range 0 200) (int_range 0 10_000)))

let prop_btree_vs_map kvs =
  let _, pager = fresh () in
  let bt = Btree.create ~order:2 pager in
  let model =
    List.fold_left
      (fun m (k, v) ->
        Btree.insert bt k v;
        Imap.update k (function None -> Some [ v ] | Some vs -> Some (vs @ [ v ])) m)
      Imap.empty kvs
  in
  Btree.check_invariants bt;
  Imap.for_all (fun k vs -> Btree.find bt k = vs) model
  && List.for_all (fun k -> Btree.find bt k = []) [ -1; 201; 1000 ]
  && Btree.cardinal bt = List.length kvs

let prop_btree_range kvs =
  let _, pager = fresh () in
  let bt = Btree.create ~order:2 pager in
  List.iter (fun (k, v) -> Btree.insert bt k v) kvs;
  let model =
    List.fold_left
      (fun m (k, v) ->
        Imap.update k (function None -> Some [ v ] | Some vs -> Some (vs @ [ v ])) m)
      Imap.empty kvs
  in
  List.for_all
    (fun (lo, hi) ->
      let got = Btree.range bt ~lo ~hi in
      let expect =
        Imap.bindings model |> List.filter (fun (k, _) -> lo <= k && k <= hi)
      in
      got = expect)
    [ (0, 200); (50, 60); (100, 100); (150, 10); (-5, 500) ]

let prop_btree_fold kvs =
  let _, pager = fresh () in
  let bt = Btree.create ~order:3 pager in
  List.iter (fun (k, v) -> Btree.insert bt k v) kvs;
  let keys = Btree.fold_all (fun acc k _ -> k :: acc) [] bt |> List.rev in
  let expect = List.sort_uniq Int.compare (List.map fst kvs) in
  keys = expect

let test_btree_io_logarithmic () =
  let stats, pager = fresh () in
  let bt = Btree.create ~order:8 pager in
  for i = 1 to 10_000 do
    Btree.insert bt i i
  done;
  Io_stats.reset stats;
  ignore (Btree.find bt 5_000);
  (* Height of a 10k-key tree of order 8 is tiny; a point lookup must not
     scan. *)
  Alcotest.(check bool) "point lookup reads < 8 pages" true
    (stats.Io_stats.page_reads < 8)

(* --- Tries ------------------------------------------------------------------- *)

let words =
  [ "jagadish"; "jag"; "lakshmanan"; "milo"; "mil"; "srivastava"; "vista"; "" ]

let test_trie_exact_prefix () =
  let _, pager = fresh () in
  let t = Str_trie.create pager in
  List.iteri (fun i w -> Str_trie.add t w i) words;
  List.iteri
    (fun i w ->
      Alcotest.(check (list int)) ("exact " ^ w) [ i ] (Str_trie.find_exact t w))
    words;
  Alcotest.(check (list int)) "no match" [] (Str_trie.find_exact t "nope");
  let prefix_hits p =
    List.sort Int.compare (Str_trie.find_prefix t p)
  in
  Alcotest.(check (list int)) "prefix jag" [ 0; 1 ] (prefix_hits "jag");
  Alcotest.(check (list int)) "prefix mil" [ 3; 4 ] (prefix_hits "mil");
  Alcotest.(check (list int)) "prefix empty = all" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (prefix_hits "")

let gen_strings =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 8)))

let prop_substr_index strs =
  let _, pager = fresh () in
  let idx = Str_trie.Substr.create pager in
  List.iteri (fun i s -> Str_trie.Substr.add idx s i) strs;
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    loop 0
  in
  List.for_all
    (fun sub ->
      let got = List.sort Int.compare (Str_trie.Substr.find_substring idx sub) in
      let expect =
        List.mapi (fun i s -> (i, s)) strs
        |> List.filter (fun (_, s) -> contains sub s)
        |> List.map fst
      in
      got = expect)
    [ "a"; "ab"; "abc"; "cc"; "" ]

(* --- Dn_index ------------------------------------------------------------------ *)

(* One scope of [base], resolved in the index's instance, written out. *)
let scan pager idx scope base =
  Ext_list.Source.materialize pager
    (Dn_index.scan idx scope (Instance.resolve (Dn_index.instance idx) base))

let test_dn_index_scans () =
  let stats, pager = fresh ~block:4 () in
  let i = Dif_gen.karily ~fanout:3 ~size:50 () in
  let idx = Dn_index.build pager i in
  Io_stats.reset stats;
  let root = Dn.of_string "dc=kroot" in
  Alcotest.(check int) "length" 50 (Dn_index.length idx);
  Alcotest.(check int) "subtree scan = all" 50
    (Ext_list.length (scan pager idx Ast.Sub root));
  Alcotest.(check bool) "find present" true (Dn_index.find idx root <> None);
  Alcotest.(check bool) "find absent" true
    (Dn_index.find idx (Dn.of_string "dc=nothing") = None);
  (* children scope = base + its children *)
  let one = scan pager idx Ast.One root in
  Alcotest.(check int) "one scope" 4 (Ext_list.length one);
  (* base scope via dedicated scan *)
  Alcotest.(check int) "base scope" 1
    (Ext_list.length (scan pager idx Ast.Base root));
  Alcotest.(check bool) "io was charged" true (Io_stats.total_io stats > 0)

let prop_dn_index_subtree_matches_instance seed =
  let i =
    Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size = 120 } ()
  in
  let _, pager = fresh () in
  let idx = Dn_index.build pager i in
  List.for_all
    (fun e ->
      let base = Entry.dn e in
      let got = Ext_list.to_list (scan pager idx Ast.Sub base) in
      let expect = Instance.subtree i base in
      List.length got = List.length expect
      && List.for_all2 Entry.equal_dn got expect)
    (Instance.to_list i)

(* The subtree's rank range, found by two binary searches, equals a
   linear lower bound followed by a linear scan while the key carries
   the prefix (tested by [String.sub]).  Sibling rdn values "a", "a\x01",
   "a\x02" and "a\x01b" put escaped bytes right at the range's end. *)
let prop_subtree_range_linear seed =
  let i =
    Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size = 120 } ()
  in
  let parent = Entry.dn (List.nth (Instance.to_list i) (seed mod 120)) in
  let named v = Dn.child parent (Rdn.single "name" (Value.Str v)) in
  let i =
    List.fold_left
      (fun acc v ->
        Instance.add acc
          (Entry.make (named v) [ ("name", Value.Str v); (Schema.object_class, Value.Str "node") ]))
      i [ "a"; "a\x01"; "a\x02"; "a\x01b" ]
  in
  let keys = Array.of_list (List.map Entry.key (Instance.to_list i)) in
  let n = Array.length keys in
  let linear base =
    let prefix = Dn.rev_key base in
    let lp = String.length prefix in
    let carries k = lp <= String.length k && String.sub k 0 lp = prefix in
    let lo = ref 0 in
    while !lo < n && String.compare keys.(!lo) prefix < 0 do incr lo done;
    let hi = ref !lo in
    while !hi < n && carries keys.(!hi) do incr hi done;
    (!lo, !hi)
  in
  List.for_all
    (fun base ->
      let r = Instance.resolve i base in
      (r.Instance.lo, r.Instance.hi) = linear base)
    (Dn.root :: named "absent" :: named "a\x02b" :: List.map Entry.dn (Instance.to_list i))

(* The in-place prefix test agrees with the [String.sub] definition,
   including the '\x01' / '\x02' bytes keys escape, on strings long
   enough to compare several 8-byte words and a tail. *)
let gen_prefix_pair =
  let open QCheck2.Gen in
  let str = string_size ~gen:(oneofl [ 'a'; 'b'; '\x01'; '\x02' ]) (int_range 0 30) in
  oneof
    [
      pair str str;
      map2 (fun s k -> (String.sub s 0 (min k (String.length s)), s)) str (int_range 0 30);
      (* a true prefix with one byte changed *)
      map3
        (fun s k j ->
          let k = min k (String.length s) in
          let p = Bytes.of_string (String.sub s 0 k) in
          if k > 0 then Bytes.set p (j mod k) 'c';
          (Bytes.to_string p, s))
        str (int_range 0 30) (int_range 0 29);
    ]

let prop_key_is_prefix (prefix, s) =
  let lp = String.length prefix in
  Entry.key_is_prefix ~prefix s = (lp <= String.length s && String.sub s 0 lp = prefix)

(* --- Attr_index ------------------------------------------------------------------ *)

let test_attr_index_lookups () =
  let _, pager = fresh () in
  let i = Dif_gen.karily ~fanout:2 ~size:64 () in
  let idx = Attr_index.build pager i in
  (* id is unique: equality range returns one posting *)
  (match Attr_index.lookup idx (Attr_index.Int_range ("id", 10, 10)) with
  | [ e ] -> Alcotest.(check bool) "right entry" true (Entry.int_values e "id" = [ 10 ])
  | _ -> Alcotest.fail "expected exactly one id=10");
  (* range over priorities covers everything *)
  Alcotest.(check int) "all non-root entries" 63
    (List.length (Attr_index.lookup idx (Attr_index.Int_range ("priority", 0, 6))));
  let es = Attr_index.lookup idx (Attr_index.Exact ("tag", "even")) in
  Alcotest.(check bool) "some evens" true (List.length es > 0);
  Alcotest.(check bool) "all even" true
    (List.for_all (fun e -> Entry.string_values e "tag" = [ "even" ]) es);
  Alcotest.(check bool) "substring hits" true
    (Attr_index.lookup idx (Attr_index.Substring ("tag", "ve")) <> []);
  Alcotest.(check bool) "unindexed attribute yields empty" true
    (Attr_index.lookup idx (Attr_index.Int_range ("nosuch", 0, 9)) = [])

(* Every cardinality probe agrees with materializing the matching
   lookup — the planner's statistics must be the truth it prices. *)
let check_count idx name p =
  Alcotest.(check int) name (List.length (Attr_index.lookup idx p)) (Attr_index.count idx p)

let test_attr_index_counts () =
  let _, pager = fresh () in
  let i = Dif_gen.karily ~fanout:2 ~size:64 () in
  let idx = Attr_index.build pager i in
  List.iter
    (fun (lo, hi) ->
      check_count idx (Printf.sprintf "count int range id [%d,%d]" lo hi)
        (Attr_index.Int_range ("id", lo, hi)))
    [ (10, 10); (0, 63); (20, 40); (70, 99); (min_int, max_int) ];
  List.iter
    (fun s -> check_count idx ("count exact tag " ^ s) (Attr_index.Exact ("tag", s)))
    [ "even"; "odd"; "neither" ];
  List.iter
    (fun p -> check_count idx ("count prefix tag " ^ p) (Attr_index.Prefix ("tag", p)))
    [ "e"; "ev"; "even"; "o"; ""; "x" ];
  (* the substring probe is an upper bound (per-occurrence, the lookup
     dedups); these patterns occur at most once per value, so exact *)
  List.iter
    (fun s -> check_count idx ("count substring tag " ^ s) (Attr_index.Substring ("tag", s)))
    [ "ve"; "dd"; "even"; "zz" ];
  Alcotest.(check int) "count on unindexed attribute" 0
    (Attr_index.count idx (Attr_index.Int_range ("nosuch", 0, 9)))

let test_attr_index_count_dn () =
  let _, pager = fresh () in
  let i = Dif_gen.generate ~params:{ Dif_gen.default_params with seed = 7; size = 80 } () in
  let idx = Attr_index.build pager i in
  (* every dn actually referenced, plus one that never is *)
  let refs =
    Instance.fold
      (fun acc e ->
        List.fold_left
          (fun acc (a, v) ->
            match (a, v) with "ref", Value.Dn d -> d :: acc | _ -> acc)
          acc (Entry.attrs e))
      [] i
  in
  Alcotest.(check bool) "generator produced refs" true (refs <> []);
  List.iter
    (fun d ->
      match Attr_index.probe (Afilter.Dn_eq ("ref", d)) with
      | Some p -> check_count idx ("count ref " ^ Dn.to_string d) p
      | None -> Alcotest.fail "a dn filter has a probe")
    (Dn.child Dn.root (Rdn.single "id" (Value.Int 424242)) :: refs)

(* Randomized: counts agree with lookups on arbitrary small string
   multisets (including duplicate values, where subtree counters could
   drift from posting lists). *)
let prop_trie_counts_vs_lookups strs =
  let _, pager = fresh () in
  let t = Str_trie.create pager in
  List.iteri (fun i s -> Str_trie.add t s i) strs;
  let probes = "" :: "a" :: "ab" :: "abc" :: "ca" :: strs in
  List.for_all
    (fun s ->
      Str_trie.count_exact t s = List.length (Str_trie.find_exact t s)
      && Str_trie.count_prefix t s = List.length (Str_trie.find_prefix t s))
    probes

let prop_btree_counts_vs_range kvs =
  let _, pager = fresh () in
  let bt = Btree.create ~order:2 pager in
  List.iter (fun (k, v) -> Btree.insert bt k v) kvs;
  List.for_all
    (fun (lo, hi) ->
      Btree.count_range bt ~lo ~hi
      = List.length (List.concat_map snd (Btree.range bt ~lo ~hi)))
    [ (0, 200); (50, 60); (100, 100); (150, 10); (-5, 500); (min_int, max_int) ]

(* The substring counter never undercounts (it may overcount values
   containing the pattern twice, which the lookup dedups). *)
let prop_substr_count_upper_bound strs =
  let _, pager = fresh () in
  let idx = Str_trie.Substr.create pager in
  List.iteri (fun i s -> Str_trie.Substr.add idx s i) strs;
  List.for_all
    (fun s ->
      Str_trie.Substr.count_substring idx s
      >= List.length (Str_trie.Substr.find_substring idx s))
    ("" :: "a" :: "bc" :: "abc" :: strs)

(* --- Removal: random insert/remove sequences against models ------------------- *)

type 'k op = Ins of 'k * int | Del of 'k * int

(* Payloads are small ints so removals often name an absent pair. *)
let gen_ops gen_key =
  QCheck2.Gen.(
    list_size (int_range 0 150)
      (map3
         (fun ins k v -> if ins then Ins (k, v) else Del (k, v))
         (frequency [ (3, return true); (2, return false) ])
         gen_key (int_range 0 3)))

(* [l] without its last occurrence of [v]: the B-tree drops the newest
   physically equal posting, and its postings read in insertion order. *)
let drop_last v l =
  let rec go = function
    | [] -> ([], false)
    | x :: tl ->
        let tl', dropped = go tl in
        if dropped then (x :: tl', true) else if x = v then (tl', true) else (x :: tl', false)
  in
  fst (go l)

let prop_btree_remove ops =
  let _, pager = fresh () in
  let bt = Btree.create ~order:2 pager in
  let ranges = [ (0, 40); (5, 12); (20, 20); (30, 3); (min_int, 17); (min_int, max_int) ] in
  let step model op =
    let model =
      match op with
      | Ins (k, v) ->
          Btree.insert bt k v;
          Imap.update k (function None -> Some [ v ] | Some vs -> Some (vs @ [ v ])) model
      | Del (k, v) ->
          Btree.remove bt k v;
          Imap.update
            k
            (function
              | None -> None | Some vs -> ( match drop_last v vs with [] -> None | vs -> Some vs))
            model
    in
    Btree.check_invariants bt;
    let expect lo hi = Imap.bindings model |> List.filter (fun (k, _) -> lo <= k && k <= hi) in
    let ok =
      List.for_all (fun k -> Btree.find bt k = Option.value ~default:[] (Imap.find_opt k model))
        (List.init 42 (fun k -> k - 1))
      && List.for_all
           (fun (lo, hi) ->
             let e = expect lo hi in
             Btree.range bt ~lo ~hi = e
             && Btree.count_range bt ~lo ~hi = List.length (List.concat_map snd e))
           ranges
      && Btree.cardinal bt = Imap.fold (fun _ vs n -> n + List.length vs) model 0
    in
    if not ok then QCheck2.Test.fail_report "btree disagrees with the model";
    model
  in
  ignore (List.fold_left step Imap.empty ops);
  true

let gen_key_str =
  QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 5))

let rec remove_one x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_one x tl

let survivors ops =
  List.fold_left
    (fun live op -> match op with Ins (s, p) -> live @ [ (s, p) ] | Del (s, p) -> remove_one (s, p) live)
    [] ops

let trie_probes = [ ""; "a"; "b"; "ab"; "ba"; "abc"; "cc"; "aaaa"; "cab" ]

(* After every step the patched trie answers — and charges — exactly as
   a trie built fresh from the surviving strings, and its exact count,
   derived from subtree counters, is its payload list's length. *)
let prop_trie_remove ops =
  let stats, pager = fresh () in
  let t = Str_trie.create pager in
  let sorted = List.sort Int.compare in
  List.iteri
    (fun i op ->
      (match op with Ins (s, p) -> Str_trie.add t s p | Del (s, p) -> Str_trie.remove t s p);
      let fstats, fpager = fresh () in
      let f = Str_trie.create fpager in
      List.iter (fun (s, p) -> Str_trie.add f s p) (survivors (List.filteri (fun j _ -> j <= i) ops));
      let same probe ft tt =
        let r0 = fstats.Io_stats.page_reads and r1 = stats.Io_stats.page_reads in
        let a = probe ft and b = probe tt in
        a = b && fstats.Io_stats.page_reads - r0 = stats.Io_stats.page_reads - r1
      in
      let ok =
        Str_trie.size t = Str_trie.size f
        && List.for_all
             (fun s ->
               same (fun x -> sorted (Str_trie.find_exact x s)) f t
               && same (fun x -> sorted (Str_trie.find_prefix x s)) f t
               && same (fun x -> Str_trie.count_exact x s) f t
               && same (fun x -> Str_trie.count_prefix x s) f t
               && Str_trie.count_exact t s = List.length (Str_trie.find_exact t s))
             trie_probes
      in
      if not ok then QCheck2.Test.fail_reportf "trie differs from a fresh build after op %d" i)
    ops;
  true

let prop_substr_remove ops =
  let _, pager = fresh () in
  let idx = Str_trie.Substr.create pager in
  let sorted = List.sort Int.compare in
  List.iteri
    (fun i op ->
      (match op with
      | Ins (s, p) -> Str_trie.Substr.add idx s p
      | Del (s, p) -> Str_trie.Substr.remove idx s p);
      let _, fpager = fresh () in
      let f = Str_trie.Substr.create fpager in
      List.iter
        (fun (s, p) -> Str_trie.Substr.add f s p)
        (survivors (List.filteri (fun j _ -> j <= i) ops));
      let ok =
        Str_trie.Substr.count idx = Str_trie.Substr.count f
        && List.for_all
             (fun s ->
               sorted (Str_trie.Substr.find_substring idx s)
               = sorted (Str_trie.Substr.find_substring f s)
               && Str_trie.Substr.count_substring idx s = Str_trie.Substr.count_substring f s)
             trie_probes
      in
      if not ok then QCheck2.Test.fail_reportf "substring index differs after op %d" i)
    ops;
  true

(* A removal names one (string, payload) pair that was added: a string
   that only occurs inside another one under the same payload is absent. *)
let test_remove_absent_is_noop () =
  let _, pager = fresh () in
  let idx = Str_trie.Substr.create pager in
  Str_trie.Substr.add idx "ab" 1;
  Str_trie.Substr.remove idx "b" 1;
  Str_trie.Substr.remove idx "ab" 2;
  Alcotest.(check (list int)) "suffix still found" [ 1 ] (Str_trie.Substr.find_substring idx "b");
  Alcotest.(check int) "suffix count kept" 1 (Str_trie.Substr.count_substring idx "b");
  Alcotest.(check int) "all suffixes kept" 3 (Str_trie.Substr.count_substring idx "");
  Alcotest.(check int) "string count kept" 1 (Str_trie.Substr.count idx);
  let t = Str_trie.create pager in
  Str_trie.add t "ab" 1;
  Str_trie.remove t "a" 1;
  Str_trie.remove t "ab" 2;
  Str_trie.remove t "abc" 1;
  Alcotest.(check (list int)) "trie kept" [ 1 ] (Str_trie.find_prefix t "");
  let bt = Btree.create ~order:2 pager in
  Btree.insert bt 3 (String.make 1 'x');
  Btree.remove bt 3 (String.make 1 'x');  (* equal contents, another value *)
  Btree.remove bt 4 (String.make 1 'x');
  Alcotest.(check int) "btree kept" 1 (Btree.cardinal bt)

let () =
  Alcotest.run "index"
    [
      ( "btree",
        [
          Testkit.qtest ~count:200 "vs map oracle" gen_kvs prop_btree_vs_map;
          Testkit.qtest ~count:100 "range scans" gen_kvs prop_btree_range;
          Testkit.qtest ~count:100 "fold in key order" gen_kvs prop_btree_fold;
          Alcotest.test_case "lookup io logarithmic" `Quick
            test_btree_io_logarithmic;
        ] );
      ( "trie",
        [
          Alcotest.test_case "exact and prefix" `Quick test_trie_exact_prefix;
          Testkit.qtest ~count:200 "substring index vs naive" gen_strings
            prop_substr_index;
        ] );
      ( "dn-index",
        [
          Alcotest.test_case "scans and scopes" `Quick test_dn_index_scans;
          Testkit.qtest ~count:30 "subtree = instance oracle"
            (QCheck2.Gen.int_range 0 10_000)
            prop_dn_index_subtree_matches_instance;
          Testkit.qtest ~count:30 "subtree range = linear scan"
            (QCheck2.Gen.int_range 0 10_000)
            prop_subtree_range_linear;
          Testkit.qtest ~count:500 "key_is_prefix = String.sub oracle" gen_prefix_pair
            prop_key_is_prefix;
        ] );
      ( "attr-index",
        [
          Alcotest.test_case "typed lookups" `Quick test_attr_index_lookups;
          Alcotest.test_case "count probes = lookup lengths" `Quick
            test_attr_index_counts;
          Alcotest.test_case "dn count probe" `Quick test_attr_index_count_dn;
        ] );
      ( "count-probes",
        [
          Testkit.qtest ~count:200 "trie counts vs lookups" gen_strings
            prop_trie_counts_vs_lookups;
          Testkit.qtest ~count:200 "btree count_range vs range" gen_kvs
            prop_btree_counts_vs_range;
          Testkit.qtest ~count:200 "substring count is an upper bound"
            gen_strings prop_substr_count_upper_bound;
        ] );
      ( "removal",
        [
          Testkit.qtest ~count:200 "btree insert/remove vs multiset model"
            (gen_ops QCheck2.Gen.(int_range 0 40))
            prop_btree_remove;
          Testkit.qtest ~count:100 "trie insert/remove = fresh build" (gen_ops gen_key_str)
            prop_trie_remove;
          Testkit.qtest ~count:100 "substring insert/remove = fresh build"
            (gen_ops gen_key_str) prop_substr_remove;
          Alcotest.test_case "removing an absent payload is a no-op" `Quick
            test_remove_absent_is_noop;
        ] );
    ]
