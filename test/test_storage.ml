(* Unit and property tests for the external-memory substrate: pager
   arithmetic, accounted lists, external sort and the spillable stack. *)

let fresh ?(block = 8) () =
  let stats = Io_stats.create () in
  (stats, Pager.create ~block stats)

(* --- Pager --------------------------------------------------------------- *)

let test_pages_of () =
  let _, pager = fresh ~block:8 () in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check int) (Printf.sprintf "pages_of %d" n) expect
        (Pager.pages_of pager n))
    [ (0, 0); (1, 1); (7, 1); (8, 1); (9, 2); (16, 2); (17, 3); (800, 100) ]

let test_pager_validation () =
  let stats = Io_stats.create () in
  Alcotest.check_raises "zero block"
    (Invalid_argument "Pager.create: block must be positive") (fun () ->
      ignore (Pager.create ~block:0 stats))

(* --- Io_stats -------------------------------------------------------------- *)

let test_stats_counters () =
  let s = Io_stats.create () in
  Io_stats.read_page ~n:3 s;
  Io_stats.write_page s;
  Io_stats.message ~bytes:100 s;
  Io_stats.grow_resident ~n:5 s;
  Io_stats.shrink_resident ~n:2 s;
  Alcotest.(check int) "total io" 4 (Io_stats.total_io s);
  Alcotest.(check int) "messages" 1 s.Io_stats.messages;
  Alcotest.(check int) "bytes" 100 s.Io_stats.bytes_shipped;
  Alcotest.(check int) "resident" 3 s.Io_stats.resident_pages;
  Alcotest.(check int) "max resident" 5 s.Io_stats.max_resident_pages;
  let snapshot = Io_stats.copy s in
  Io_stats.read_page ~n:2 s;
  let d = Io_stats.diff s snapshot in
  Alcotest.(check int) "diff reads" 2 d.Io_stats.page_reads;
  Io_stats.reset s;
  Alcotest.(check int) "reset" 0 (Io_stats.total_io s)

(* [resident_pages] is a gauge over live allocations, not a counter:
   reset must keep it (the pages are still resident) and restart the
   high-water mark from it, while zeroing the transfer counters. *)
let test_reset_keeps_resident_gauge () =
  let s = Io_stats.create () in
  Io_stats.read_page ~n:4 s;
  Io_stats.write_page s;
  Io_stats.grow_resident ~n:5 s;
  Io_stats.shrink_resident ~n:2 s;
  Alcotest.(check int) "max before reset" 5 s.Io_stats.max_resident_pages;
  Io_stats.reset s;
  Alcotest.(check int) "counters zeroed" 0 (Io_stats.total_io s);
  Alcotest.(check int) "resident survives reset" 3 s.Io_stats.resident_pages;
  Alcotest.(check int) "high-water restarts at live set" 3
    s.Io_stats.max_resident_pages;
  Io_stats.grow_resident ~n:2 s;
  Alcotest.(check int) "high-water grows again" 5 s.Io_stats.max_resident_pages

(* --- Ext_list --------------------------------------------------------------- *)

let test_cursor_charges () =
  let stats, pager = fresh ~block:8 () in
  let l = Ext_list.of_array_resident pager (Array.init 20 Fun.id) in
  Alcotest.(check int) "resident list creation is free" 0 (Io_stats.total_io stats);
  Ext_list.iter (fun _ -> ()) l;
  Alcotest.(check int) "scan of 20 records = 3 page reads" 3
    stats.Io_stats.page_reads;
  (* Peeking the same page repeatedly charges once. *)
  Io_stats.reset stats;
  let cur = Ext_list.Cursor.make l in
  ignore (Ext_list.Cursor.peek cur);
  ignore (Ext_list.Cursor.peek cur);
  Ext_list.Cursor.advance cur;
  ignore (Ext_list.Cursor.peek cur);
  Alcotest.(check int) "same page faults once" 1 stats.Io_stats.page_reads

let test_writer_charges () =
  let stats, pager = fresh ~block:8 () in
  let w = Ext_list.Writer.make pager in
  for i = 1 to 20 do
    Ext_list.Writer.push w i
  done;
  let l = Ext_list.Writer.close w in
  Alcotest.(check int) "20 records = 3 page writes" 3 stats.Io_stats.page_writes;
  Alcotest.(check (list int)) "contents preserved in order"
    (List.init 20 (fun i -> i + 1))
    (Ext_list.to_list l);
  let w2 = Ext_list.Writer.make pager in
  let e = Ext_list.Writer.close w2 in
  Alcotest.(check int) "empty close writes nothing" 3 stats.Io_stats.page_writes;
  Alcotest.(check bool) "empty list" true (Ext_list.is_empty e)

let test_materialize_charges () =
  let stats, pager = fresh ~block:8 () in
  let _ = Ext_list.materialize pager (Array.init 17 Fun.id) in
  Alcotest.(check int) "17 records = 3 page writes" 3 stats.Io_stats.page_writes

let test_filter_map () =
  let _, pager = fresh () in
  let l = Ext_list.of_array_resident pager (Array.init 30 Fun.id) in
  let evens = Ext_list.filter (fun x -> x mod 2 = 0) l in
  Alcotest.(check int) "filter keeps half" 15 (Ext_list.length evens);
  let doubled = Ext_list.map (fun x -> 2 * x) evens in
  Alcotest.(check int) "map preserves length" 15 (Ext_list.length doubled);
  Alcotest.(check bool) "is_sorted" true
    (Ext_list.is_sorted Int.compare doubled)

(* --- Ext_sort --------------------------------------------------------------- *)

let gen_int_array =
  QCheck2.Gen.(array_size (int_range 0 2_000) (int_range 0 500))

let prop_sort_correct arr =
  let _, pager = fresh ~block:8 () in
  let l = Ext_list.of_array_resident pager (Array.copy arr) in
  let sorted = Ext_sort.sort ~memory_pages:3 Int.compare l in
  let expected = List.sort Int.compare (Array.to_list arr) in
  Ext_list.to_list sorted = expected

(* Stability: equal keys keep their input order. *)
let prop_sort_stable arr =
  let _, pager = fresh ~block:8 () in
  let tagged = Array.mapi (fun i x -> (x mod 10, i)) arr in
  let l = Ext_list.of_array_resident pager tagged in
  let cmp (a, _) (b, _) = Int.compare a b in
  let sorted = Ext_list.to_list (Ext_sort.sort ~memory_pages:3 cmp l) in
  let rec stable = function
    | (k1, i1) :: ((k2, i2) :: _ as rest) ->
        (k1 < k2 || (k1 = k2 && i1 < i2)) && stable rest
    | [ _ ] | [] -> true
  in
  stable sorted

(* I/O of external sort is O((N/B) log(N/B)): check against the textbook
   bound 2 * pages * (1 + passes) with fan-in (memory_pages - 1). *)
let prop_sort_io_bound arr =
  QCheck2.assume (Array.length arr > 0);
  let stats, pager = fresh ~block:8 () in
  let memory_pages = 4 in
  let l = Ext_list.of_array_resident pager (Array.copy arr) in
  ignore (Ext_sort.sort ~memory_pages Int.compare l);
  let pages = Pager.pages_of pager (Array.length arr) in
  let runs = (pages + memory_pages - 1) / memory_pages in
  let fan_in = memory_pages - 1 in
  let rec passes r acc =
    if r <= 1 then acc else passes ((r + fan_in - 1) / fan_in) (acc + 1)
  in
  let bound = (2 * pages * (1 + passes runs 0)) + 4 in
  Io_stats.total_io stats <= bound

(* --- Spill_stack -------------------------------------------------------------- *)

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 600)
      (frequency [ (3, map (fun n -> `Push n) (int_range 0 1000)); (2, return `Pop) ]))

(* Differential test against a plain list stack, with spill I/O bounded
   linearly in the operation count. *)
let prop_spill_stack_model ops =
  let stats, pager = fresh ~block:4 () in
  let stack = Spill_stack.create ~window_pages:1 pager in
  let model = ref [] in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | `Push n ->
          Spill_stack.push stack n;
          model := n :: !model
      | `Pop -> (
          let got = Spill_stack.pop stack in
          match (got, !model) with
          | None, [] -> ()
          | Some v, m :: rest ->
              if v <> m then ok := false;
              model := rest
          | Some _, [] | None, _ :: _ -> ok := false))
    ops;
  if Spill_stack.length stack <> List.length !model then ok := false;
  let bound = List.length ops + 8 in
  !ok && Io_stats.total_io stats <= bound

let prop_spill_top_consistent ops =
  let _, pager = fresh ~block:4 () in
  let stack = Spill_stack.create ~window_pages:2 pager in
  let model = ref [] in
  List.for_all
    (fun op ->
      (match op with
      | `Push n ->
          Spill_stack.push stack n;
          model := n :: !model
      | `Pop ->
          ignore (Spill_stack.pop stack);
          model := (match !model with [] -> [] | _ :: r -> r));
      Spill_stack.top stack = (match !model with [] -> None | x :: _ -> Some x))
    ops

(* The spill traffic of one grow-and-shrink excursion, counted by hand:
   with pages of 4 and a one-page window, pushing 9 records spills the
   window at the 5th and the 9th push; popping them all fetches each
   spilled page back once, when the window has drained and the stack
   is next touched, however often it is peeked. *)
let test_spill_counts_exact () =
  let stats, pager = fresh ~block:4 () in
  let stack = Spill_stack.create ~window_pages:1 pager in
  let io () = (stats.Io_stats.page_writes, stats.Io_stats.page_reads) in
  for i = 1 to 9 do
    Spill_stack.push stack i
  done;
  Alcotest.(check (pair int int)) "two pages spilled" (2, 0) (io ());
  Alcotest.(check (option int)) "top of the window" (Some 9) (Spill_stack.pop stack);
  Alcotest.(check (pair int int)) "no fetch until touched" (2, 0) (io ());
  ignore (Spill_stack.top stack);
  ignore (Spill_stack.top stack);
  Alcotest.(check (pair int int)) "one fetch for two peeks" (2, 1) (io ());
  Alcotest.(check (list int)) "popped in order" [ 8; 7; 6; 5; 4; 3; 2; 1 ]
    (List.init 8 (fun _ -> Option.get (Spill_stack.pop stack)));
  Alcotest.(check (pair int int)) "each spilled page fetched once" (2, 2) (io ());
  Alcotest.(check (option int)) "empty" None (Spill_stack.pop stack)

(* --- Buffer_pool --------------------------------------------------------------- *)

let test_pool_basics () =
  let stats, pager = fresh ~block:4 () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let r page = Buffer_pool.read pool ~file:"f" ~page in
  r 0;
  r 1;
  Alcotest.(check int) "two cold misses" 2 stats.Io_stats.page_reads;
  r 0;
  r 1;
  Alcotest.(check int) "hits are free" 2 stats.Io_stats.page_reads;
  Alcotest.(check int) "hit count" 2 (Buffer_pool.hits pool);
  (* page 2 evicts the LRU (page 0) *)
  r 2;
  r 1;
  Alcotest.(check int) "1 still cached" 3 stats.Io_stats.page_reads;
  r 0;
  Alcotest.(check int) "0 was evicted" 4 stats.Io_stats.page_reads;
  (* distinct files do not collide *)
  Buffer_pool.clear pool;
  r 5;
  Buffer_pool.read pool ~file:"g" ~page:5;
  Alcotest.(check int) "per-file keys" 6 stats.Io_stats.page_reads;
  Buffer_pool.release pool;
  Alcotest.(check int) "resident released" 0 stats.Io_stats.resident_pages

let test_pool_zero_capacity () =
  let stats, pager = fresh ~block:4 () in
  let pool = Buffer_pool.create ~capacity:0 pager in
  for _ = 1 to 5 do
    Buffer_pool.read pool ~file:"f" ~page:0
  done;
  Alcotest.(check int) "capacity 0 never caches" 5 stats.Io_stats.page_reads

(* LRU model check over random access sequences. *)
let gen_accesses =
  QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 20))

let prop_pool_matches_lru_model pages =
  let stats, pager = fresh ~block:4 () in
  let capacity = 4 in
  let pool = Buffer_pool.create ~capacity pager in
  let model = ref [] in  (* most recent first, max [capacity] *)
  let expected_misses = ref 0 in
  List.iter
    (fun page ->
      Buffer_pool.read pool ~file:"f" ~page;
      if List.mem page !model then
        model := page :: List.filter (fun p -> p <> page) !model
      else begin
        incr expected_misses;
        model := page :: List.filteri (fun i _ -> i < capacity - 1) !model
      end)
    pages;
  Buffer_pool.misses pool = !expected_misses
  && stats.Io_stats.page_reads = !expected_misses

(* With a cache, a repeated subtree scan costs only the output writes. *)
let test_pool_integration_dn_index () =
  let stats, pager = fresh ~block:8 () in
  let pool = Buffer_pool.create ~capacity:64 pager in
  let i = Dif_gen.karily ~fanout:4 ~size:200 () in
  let idx = Dn_index.build ~pool pager i in
  let root = Instance.resolve i (Dn.of_string "dc=kroot") in
  let scan () = ignore (Ext_list.Source.materialize pager (Dn_index.scan idx Ast.Sub root)) in
  Io_stats.reset stats;
  scan ();
  let cold = stats.Io_stats.page_reads in
  Io_stats.reset stats;
  scan ();
  let warm = stats.Io_stats.page_reads in
  Alcotest.(check bool)
    (Printf.sprintf "warm (%d) < cold (%d)" warm cold)
    true (warm = 0 && cold > 0)

(* Eviction follows exact LRU recency, with hits refreshing recency. *)
let test_pool_eviction_order () =
  let stats, pager = fresh ~block:4 () in
  let pool = Buffer_pool.create ~capacity:3 pager in
  let r page = Buffer_pool.read pool ~file:"f" ~page in
  r 0;
  r 1;
  r 2;
  Alcotest.(check int) "cold fill misses" 3 (Buffer_pool.misses pool);
  (* Touching 0 makes 1 the LRU page, so reading 3 must evict 1. *)
  r 0;
  r 3;
  r 0;
  r 2;
  r 3;
  Alcotest.(check int) "survivors all hit" 4 (Buffer_pool.hits pool);
  Alcotest.(check int) "charged reads = misses" 4 stats.Io_stats.page_reads;
  r 1;
  Alcotest.(check int) "the evicted page faults again" 5
    (Buffer_pool.misses pool);
  Alcotest.(check int) "a fault is not a hit" 4 (Buffer_pool.hits pool)

let test_pool_hits_counter () =
  let stats, pager = fresh ~block:4 () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let r page = Buffer_pool.read pool ~file:"f" ~page in
  Alcotest.(check int) "fresh pool has no hits" 0 (Buffer_pool.hits pool);
  r 0;
  Alcotest.(check int) "a miss is not a hit" 0 (Buffer_pool.hits pool);
  for _ = 1 to 5 do
    r 0
  done;
  Alcotest.(check int) "five repeats, five hits" 5 (Buffer_pool.hits pool);
  Alcotest.(check int) "still one miss" 1 (Buffer_pool.misses pool);
  Alcotest.(check int) "hits charge no reads" 1 stats.Io_stats.page_reads;
  (* [clear] drops the contents but keeps the lifetime counters. *)
  Buffer_pool.clear pool;
  r 0;
  Alcotest.(check int) "clear keeps hit count" 5 (Buffer_pool.hits pool);
  Alcotest.(check int) "re-read after clear faults" 2 (Buffer_pool.misses pool)

let test_spill_resident_accounting () =
  let stats, pager = fresh ~block:4 () in
  let stack = Spill_stack.create ~window_pages:3 pager in
  Alcotest.(check int) "window counted resident" 3 stats.Io_stats.resident_pages;
  Spill_stack.release stack;
  Alcotest.(check int) "released" 0 stats.Io_stats.resident_pages

let () =
  Alcotest.run "storage"
    [
      ( "pager",
        [
          Alcotest.test_case "pages_of" `Quick test_pages_of;
          Alcotest.test_case "validation" `Quick test_pager_validation;
        ] );
      ( "io-stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "reset keeps resident gauge" `Quick
            test_reset_keeps_resident_gauge;
        ] );
      ( "ext-list",
        [
          Alcotest.test_case "cursor charges" `Quick test_cursor_charges;
          Alcotest.test_case "writer charges" `Quick test_writer_charges;
          Alcotest.test_case "materialize charges" `Quick test_materialize_charges;
          Alcotest.test_case "filter and map" `Quick test_filter_map;
        ] );
      ( "ext-sort",
        [
          Testkit.qtest ~count:200 "sorts correctly" gen_int_array prop_sort_correct;
          Testkit.qtest ~count:200 "stable" gen_int_array prop_sort_stable;
          Testkit.qtest ~count:100 "io within textbook bound" gen_int_array
            prop_sort_io_bound;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "basics" `Quick test_pool_basics;
          Alcotest.test_case "zero capacity" `Quick test_pool_zero_capacity;
          Alcotest.test_case "eviction order" `Quick test_pool_eviction_order;
          Alcotest.test_case "hits counter" `Quick test_pool_hits_counter;
          Testkit.qtest ~count:300 "matches LRU model" gen_accesses
            prop_pool_matches_lru_model;
          Alcotest.test_case "dn-index integration" `Quick
            test_pool_integration_dn_index;
        ] );
      ( "spill-stack",
        [
          Testkit.qtest ~count:300 "LIFO vs model + linear io" gen_ops
            prop_spill_stack_model;
          Testkit.qtest ~count:200 "top consistent" gen_ops
            prop_spill_top_consistent;
          Alcotest.test_case "resident accounting" `Quick
            test_spill_resident_accounting;
          Alcotest.test_case "spill counts exact" `Quick test_spill_counts_exact;
        ] );
    ]
