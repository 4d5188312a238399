(* Empirical verification of the I/O-complexity theorems: the measured
   page-transfer counts of every algorithm must stay within the bounds of
   Theorems 5.1, 6.1, 6.2, 7.1, 8.3 and 8.4, and must scale linearly
   (resp. N log N) as inputs grow.  The quadratic baselines must not. *)

let block = 16

let with_pager () =
  let stats = Io_stats.create () in
  (stats, Pager.create ~block stats)

let pages n = if n <= 0 then 0 else ((n - 1) / block) + 1

(* Sorted class-filtered lists of a karily instance, as resident inputs. *)
let lists_of instance classes =
  let stats, pager = with_pager () in
  let by_class c =
    Instance.fold
      (fun acc e -> if Entry.has_class e c then e :: acc else acc)
      [] instance
    |> List.rev
  in
  (stats, pager, List.map (fun c -> Ext_list.of_list_resident pager (by_class c)) classes)

(* Split an instance's entries into even/odd tag lists — two disjoint
   lists that each span the whole forest. *)
let even_odd instance =
  let stats, pager = with_pager () in
  let tagged t =
    Instance.fold
      (fun acc e -> if Entry.string_values e "tag" = [ t ] then e :: acc else acc)
      [] instance
    |> List.rev
  in
  ( stats,
    pager,
    Ext_list.of_list_resident pager (tagged "even"),
    Ext_list.of_list_resident pager (tagged "odd") )

(* --- Theorem 5.1 / 6.2: the stack algorithms are linear ------------------- *)

(* Bound: inputs read once + annotated-L1 write + (<= 2) annotation scans
   + output write + stack spill traffic (<= inputs).  A generous constant
   of 6 on the input pages covers all of it. *)
let hier_bound n1 n2 n3 = (6 * (pages n1 + pages n2 + pages n3)) + 12

let measure_hier ?(window = 2) op instance =
  let _, _, l1, l2 = even_odd instance in
  let stats = Pager.stats (Ext_list.pager l1) in
  Io_stats.reset stats;
  let out =
    match op with
    | `P -> Hs_agg.compute_hier ~window Ast.P l1 l2
    | `C -> Hs_agg.compute_hier ~window Ast.C l1 l2
    | `A -> Hs_agg.compute_hier ~window Ast.A l1 l2
    | `D -> Hs_agg.compute_hier ~window Ast.D l1 l2
  in
  (Io_stats.total_io stats, Ext_list.length l1, Ext_list.length l2, out)

let test_hier_linear_bound () =
  List.iter
    (fun (shape, size) ->
      let instance =
        match shape with
        | `Bushy -> Dif_gen.karily ~fanout:8 ~size ()
        | `Binary -> Dif_gen.karily ~fanout:2 ~size ()
        | `Chain -> Dif_gen.chain ~size ()
      in
      List.iter
        (fun op ->
          let io, n1, n2, _ = measure_hier op instance in
          let bound = hier_bound n1 n2 0 in
          if io > bound then
            Alcotest.failf "io %d exceeds linear bound %d (size %d)" io bound size)
        [ `P; `C; `A; `D ])
    [ (`Bushy, 2_000); (`Binary, 2_000); (`Chain, 2_000); (`Bushy, 500) ]

(* Chains force stack spills with a 1-page window; the bound must hold
   regardless (the paper's swapped-out-stack remark). *)
let test_hier_linear_with_spills () =
  let instance = Dif_gen.chain ~size:3_000 () in
  List.iter
    (fun op ->
      let io, n1, n2, _ = measure_hier ~window:1 op instance in
      let bound = hier_bound n1 n2 0 in
      if io > bound then Alcotest.failf "spilling io %d exceeds %d" io bound)
    [ `A; `D ]

let test_hier3_linear_bound () =
  let instance = Dif_gen.karily ~fanout:3 ~size:3_000 () in
  let _, pager, lists = lists_of instance [ "node"; "node"; "node" ] in
  match lists with
  | [ l1; l2; l3 ] ->
      (* carve three interleaved sublists so the operands differ *)
      let part k l = Ext_list.filter (fun e -> Entry.int_values e "id" <> [] &&
        List.hd (Entry.int_values e "id") mod 3 = k) l in
      let stats = Pager.stats pager in
      let a = part 0 l1 and b = part 1 l2 and c = part 2 l3 in
      Io_stats.reset stats;
      ignore (Hs_agg.compute_hier3 Ast.Ac a b c);
      ignore (Hs_agg.compute_hier3 Ast.Dc a b c);
      let bound =
        2 * hier_bound (Ext_list.length a) (Ext_list.length b) (Ext_list.length c)
      in
      let io = Io_stats.total_io stats in
      if io > bound then Alcotest.failf "hier3 io %d exceeds %d" io bound
  | _ -> assert false

(* Doubling the input at most ~doubles the I/O (linearity in practice). *)
let test_hier_scaling () =
  let io_at size =
    let instance = Dif_gen.karily ~fanout:4 ~size () in
    let io, _, _, _ = measure_hier `D instance in
    io
  in
  let io1 = io_at 2_000 and io2 = io_at 4_000 and io4 = io_at 8_000 in
  Alcotest.(check bool)
    (Printf.sprintf "2x growth %d -> %d -> %d" io1 io2 io4)
    true
    (io2 <= (5 * io1 / 2) + 16 && io4 <= (5 * io2 / 2) + 16)

(* The cost model, pinned exactly: on a bushy tree (no stack spills) the
   ComputeHSPC I/O decomposes into the merged input read, the annotated-L1
   write, the annotation read, and the output write — nothing else. *)
let test_hspc_exact_decomposition () =
  let instance = Dif_gen.karily ~fanout:4 ~size:4_096 () in
  let _, _, l1, l2 = even_odd instance in
  let stats = Pager.stats (Ext_list.pager l1) in
  let n1 = Ext_list.length l1 and n2 = Ext_list.length l2 in
  Io_stats.reset stats;
  let out = Hs_agg.compute_hier Ast.P l1 l2 in
  let expected_reads = pages n1 + pages n2 + pages n1 in
  let expected_writes = pages n1 + pages (Ext_list.length out) in
  Alcotest.(check int) "reads decompose exactly" expected_reads
    stats.Io_stats.page_reads;
  Alcotest.(check int) "writes decompose exactly" expected_writes
    stats.Io_stats.page_writes;
  (* the aggregate-filter variant adds exactly one more annotation scan *)
  Io_stats.reset stats;
  let out2 =
    Hs_agg.compute_hier Ast.C l1 l2
      ~agg:
        { Ast.lhs = Ast.A_entry Ast.Ea_count_witnesses;
          op = Ast.Eq;
          rhs = Ast.A_entry_set (Ast.Esa_agg (Ast.Max, Ast.Ea_count_witnesses)) }
  in
  Alcotest.(check int) "one extra scan for the global max"
    (expected_reads + pages n1)
    stats.Io_stats.page_reads;
  Alcotest.(check int) "writes" (pages n1 + pages (Ext_list.length out2))
    stats.Io_stats.page_writes

(* Boolean merges are exactly one read of each input plus the output. *)
let test_bool_exact_decomposition () =
  let instance = Dif_gen.karily ~fanout:4 ~size:4_096 () in
  let _, _, l1, l2 = even_odd instance in
  let stats = Pager.stats (Ext_list.pager l1) in
  let n1 = Ext_list.length l1 and n2 = Ext_list.length l2 in
  List.iter
    (fun (name, op) ->
      Io_stats.reset stats;
      let out = op l1 l2 in
      Alcotest.(check int) (name ^ " reads") (pages n1 + pages n2)
        stats.Io_stats.page_reads;
      Alcotest.(check int) (name ^ " writes")
        (pages (Ext_list.length out))
        stats.Io_stats.page_writes)
    [ ("and", Bool_ops.and_); ("or", Bool_ops.or_); ("diff", Bool_ops.diff) ]

(* --- Theorem 6.1: simple aggregate selection in <= 2 scans ------------------ *)

let test_simple_agg_two_scans () =
  let instance = Dif_gen.karily ~fanout:4 ~size:4_000 () in
  let _, _, l1, _ = even_odd instance in
  let stats = Pager.stats (Ext_list.pager l1) in
  let n1 = Ext_list.length l1 in
  (* entry-only filter: one scan plus the output write *)
  Io_stats.reset stats;
  let out =
    Simple_agg.compute
      { Ast.lhs = Ast.A_entry (Ast.Ea_agg (Ast.Min, Ast.Self "priority"));
        op = Ast.Le; rhs = Ast.A_const 3 }
      l1
  in
  let bound1 = pages n1 + pages (Ext_list.length out) + 2 in
  Alcotest.(check bool)
    (Printf.sprintf "one scan: %d <= %d" (Io_stats.total_io stats) bound1)
    true
    (Io_stats.total_io stats <= bound1);
  (* entry-set filter: two scans plus the output write *)
  Io_stats.reset stats;
  let out2 =
    Simple_agg.compute
      { Ast.lhs = Ast.A_entry (Ast.Ea_agg (Ast.Min, Ast.Self "priority"));
        op = Ast.Eq;
        rhs = Ast.A_entry_set (Ast.Esa_agg (Ast.Min, Ast.Ea_agg (Ast.Min, Ast.Self "priority"))) }
      l1
  in
  let bound2 = (2 * pages n1) + pages (Ext_list.length out2) + 2 in
  Alcotest.(check bool)
    (Printf.sprintf "two scans: %d <= %d" (Io_stats.total_io stats) bound2)
    true
    (Io_stats.total_io stats <= bound2)

(* --- Structural aggregates stay linear (Fig 6) -------------------------------- *)

let test_hs_agg_linear () =
  let instance = Dif_gen.karily ~fanout:4 ~size:4_000 () in
  let _, _, l1, l2 = even_odd instance in
  let stats = Pager.stats (Ext_list.pager l1) in
  Io_stats.reset stats;
  ignore
    (Hs_agg.compute_hier Ast.D l1 l2
       ~agg:
         { Ast.lhs = Ast.A_entry Ast.Ea_count_witnesses;
           op = Ast.Eq;
           rhs = Ast.A_entry_set (Ast.Esa_agg (Ast.Max, Ast.Ea_count_witnesses)) });
  let bound = hier_bound (Ext_list.length l1) (Ext_list.length l2) 0 in
  let io = Io_stats.total_io stats in
  if io > bound then Alcotest.failf "hs-agg io %d exceeds %d" io bound

(* --- Theorem 7.1: embedded references are O(N/B log N/B) ---------------------- *)

let er_inputs size m =
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size; seed = 17; ref_fanout = m }
      ()
  in
  let stats, pager = with_pager () in
  let by c =
    Instance.fold
      (fun acc e -> if Entry.has_class e c then e :: acc else acc)
      [] instance
    |> List.rev
  in
  ( stats,
    Ext_list.of_list_resident pager (Instance.to_list instance),
    Ext_list.of_list_resident pager (by "node") )

let nlogn_bound n m =
  let np = pages (n * m) in
  let rec log2 x = if x <= 1 then 1 else 1 + log2 (x / 2) in
  (8 * np * log2 np) + (8 * pages n) + 16

let test_er_bound () =
  List.iter
    (fun (size, m) ->
      let stats, all, nodes = er_inputs size m in
      Io_stats.reset stats;
      ignore (Er.compute_dv all nodes "ref");
      let io_dv = Io_stats.total_io stats in
      Io_stats.reset stats;
      ignore (Er.compute_vd nodes all "ref");
      let io_vd = Io_stats.total_io stats in
      let bound = nlogn_bound size m in
      if io_dv > bound || io_vd > bound then
        Alcotest.failf "er io dv=%d vd=%d exceeds %d (size %d, m %d)" io_dv
          io_vd bound size m)
    [ (1_000, 1); (2_000, 2); (4_000, 4) ]

(* --- The naive baselines really are quadratic ----------------------------------- *)

let test_naive_quadratic () =
  let io_at size =
    let instance = Dif_gen.karily ~fanout:4 ~size () in
    let _, _, l1, l2 = even_odd instance in
    let stats = Pager.stats (Ext_list.pager l1) in
    Io_stats.reset stats;
    ignore (Naive.compute_hier Ast.D l1 l2);
    Io_stats.total_io stats
  in
  let io1 = io_at 1_000 and io2 = io_at 2_000 in
  (* quadratic: doubling the input should at least triple the I/O *)
  Alcotest.(check bool)
    (Printf.sprintf "naive grows superlinearly: %d -> %d" io1 io2)
    true
    (io2 > 3 * io1);
  (* and the stack algorithm beats it by a wide margin at this size *)
  let instance = Dif_gen.karily ~fanout:4 ~size:2_000 () in
  let smart, _, _, _ = measure_hier `D instance in
  Alcotest.(check bool)
    (Printf.sprintf "crossover: stack %d << naive %d" smart io2)
    true
    (10 * smart < io2)

(* --- Theorem 8.3 / 8.4: whole query trees --------------------------------------- *)

(* |Q| operators over cumulative atomic output L: engine I/O within
   O(|Q| * L/B), with constant memory (bounded resident pages). *)
let test_engine_l2_bound () =
  let instance = Dif_gen.karily ~fanout:4 ~size:4_000 () in
  let q =
    Qparser.of_string
      "(g (d (dc=kroot ? sub ? tag=even) (& (dc=kroot ? sub ? tag=odd) \
       (dc=kroot ? sub ? priority>=1)) count($2) > 0) min(priority) >= 0)"
  in
  let eng = Engine.create ~block ~with_attr_index:false instance in
  let atoms = Ast.atomic_subqueries q in
  let cumulative =
    List.fold_left
      (fun n a -> n + List.length (Semantics.eval_atomic instance a))
      0 atoms
  in
  Engine.reset_stats eng;
  ignore (Engine.eval eng q);
  let stats = Engine.stats eng in
  (* atomic evaluation scans subtrees, so charge the scan size too *)
  let scan_cost = List.length atoms * pages (Instance.size instance) in
  let bound = (8 * Ast.size q * pages cumulative) + (2 * scan_cost) + 16 in
  let io = Io_stats.total_io stats in
  if io > bound then Alcotest.failf "engine io %d exceeds %d" io bound;
  Alcotest.(check bool) "constant memory" true
    (stats.Io_stats.max_resident_pages <= 4 * Ast.size q)

let test_engine_scaling_linear () =
  let io_at size =
    let instance = Dif_gen.karily ~fanout:4 ~size () in
    let q =
      Qparser.of_string
        "(a (dc=kroot ? sub ? tag=even) (d (dc=kroot ? sub ? tag=odd) \
         (dc=kroot ? sub ? priority<=3)))"
    in
    let eng = Engine.create ~block ~with_attr_index:false instance in
    Engine.reset_stats eng;
    ignore (Engine.eval eng q);
    Io_stats.total_io (Engine.stats eng)
  in
  let io1 = io_at 2_000 and io2 = io_at 4_000 in
  Alcotest.(check bool)
    (Printf.sprintf "engine linear: %d -> %d" io1 io2)
    true
    (io2 <= (5 * io1 / 2) + 16)

(* --- Planning cost does not grow with the directory -------------------------- *)

(* Pricing an atomic reads O(1) and O(log n) counters, so it must cost
   about the same on 1k and 64k entries: at most 4 KB allocated per
   [Plan.estimate] of a sub-scope atomic (its resolution, path choice
   and plan node) at either size, and a min-of-200 wall time at 64k
   within 8x of 1k's (each sample the mean of a batch of 20 calls).
   The atomics are a leaf's one-entry subtree, a grandchild of the
   karily root whose subtree holds between 1/16 and 1/4 of the
   directory at either size, and the whole forest ([Dn.root]), all
   probing [objectClass=node], which every non-root karily entry
   matches, so the exact-trie count is priced at its largest.  An O(n)
   or O(k) walk allocates nothing, so only the timing bound catches
   one. *)
let test_planning_cost_flat () =
  (* [Mclock] ticks in microseconds: time batches of calls *)
  let samples = 200 and batch = 20 in
  let runs = samples * batch in
  let measure size =
    let instance = Dif_gen.karily ~fanout:4 ~size () in
    let _, pager = with_pager () in
    let attr_index = Attr_index.build pager instance in
    (* the last entry in key order, so a leaf *)
    let leaf = Instance.fold (fun _ e -> Entry.dn e) Dn.root instance in
    (* the first grandchild of the root, in karily's heap numbering *)
    let inner = Dn.of_string "id=5, id=1, dc=kroot" in
    let share =
      Instance.fold
        (fun n e ->
          if Dn.is_self_or_descendant_of ~descendant:(Entry.dn e) ~ancestor:inner then n + 1
          else n)
        0 instance
    in
    if share * 16 < size || share * 4 > size then
      Alcotest.failf "the non-root scope holds %d of %d entries" share size;
    let filter = Afilter.Str_eq (Schema.object_class, "node") in
    List.map
      (fun base ->
        let q = Ast.Atomic { Ast.base; scope = Ast.Sub; filter } in
        let price () = ignore (Plan.estimate ~pager ~instance ~attr_index q) in
        price ();
        let w0 = Gc.minor_words () in
        let best = ref max_int in
        for _ = 1 to samples do
          let t0 = Mclock.now_ns () in
          for _ = 1 to batch do
            price ()
          done;
          best := min !best ((Mclock.now_ns () - t0) / batch)
        done;
        (* [Gc.minor_words] is exact, where [Gc.allocated_bytes] only
           sees the minor heap as of its last collection; pricing makes
           no allocation large enough to skip the minor heap.  The
           clock reads are counted too. *)
        let alloc = (Gc.minor_words () -. w0) *. 8. /. float_of_int runs in
        (alloc, !best))
      [ leaf; inner; Dn.root ]
  in
  let rows =
    List.combine [ "1-entry"; "non-root"; "root" ] (List.combine (measure 1_000) (measure 64_000))
  in
  List.iter
    (fun (scope, ((a1, t1), (a64, t64))) ->
      Printf.printf "%s: %.0f B, %d ns at 1k; %.0f B, %d ns at 64k (%.1fx)\n" scope a1 t1 a64 t64
        (float_of_int t64 /. float_of_int (max 1 t1)))
    rows;
  List.iter
    (fun (scope, ((a1, t1), (a64, t64))) ->
      List.iter
        (fun (n, a) ->
          if a > 4096. then
            Alcotest.failf "%s atomic: %.0f B allocated per estimate at %s > 4 KB" scope a n)
        [ ("1k", a1); ("64k", a64) ];
      if t64 > 8 * max 1 t1 then
        Alcotest.failf "%s atomic: min estimate %d ns at 64k > 8x %d ns at 1k" scope t64 t1)
    rows

(* A B-tree count reads per-key posting counts, so a boundary key's
   postings are not walked: [count_range] over a key holding 16k
   postings must take at most 8x the min-of-50 time (each sample a
   batch of 1,000 calls, as [Mclock] ticks in microseconds) of the same
   count over a key holding 1k.  The tree holds 10 keys, like
   Dif_gen's [priority], with the boundary key in the middle. *)
let test_btree_count_flat_in_postings () =
  let samples = 50 and batch = 1_000 in
  let measure postings =
    let _, pager = with_pager () in
    let bt = Btree.create pager in
    for k = 0 to 9 do
      for v = 1 to postings do
        Btree.insert bt k v
      done
    done;
    let count () = ignore (Btree.count_range bt ~lo:5 ~hi:5) in
    count ();
    let best = ref max_int in
    for _ = 1 to samples do
      let t0 = Mclock.now_ns () in
      for _ = 1 to batch do
        count ()
      done;
      best := min !best ((Mclock.now_ns () - t0) / batch)
    done;
    !best
  in
  let t1 = measure 1_000 and t16 = measure 16_000 in
  Printf.printf "count_range over one key: %d ns at 1k postings, %d ns at 16k (%.1fx)\n" t1
    t16
    (float_of_int t16 /. float_of_int (max 1 t1));
  if t16 > 8 * max 1 t1 then
    Alcotest.failf "count_range %d ns over 16k postings > 8x %d ns over 1k" t16 t1

(* --- The scan and join inner loops allocate nothing per entry ------------------- *)

(* A karily instance's entries, each also referencing itself through
   [ref], so every filter form and the reference explosion have data. *)
let self_referencing instance =
  Instance.fold
    (fun acc e -> Entry.make (Entry.dn e) (("ref", Value.Dn (Entry.dn e)) :: Entry.attrs e) :: acc)
    [] instance
  |> List.rev |> Array.of_list

(* [Afilter.matches] runs on every entry a scan visits: it allocates 0
   words per tested entry, for every filter form, matching or not,
   including type mismatches and absent attributes.  The only words
   counted are the boxed floats of the two [Gc.minor_words] reads. *)
let test_filter_allocates_nothing () =
  let entries = self_referencing (Dif_gen.karily ~fanout:4 ~size:2_000 ()) in
  let pat = { Afilter.initial = Some "e"; middles = [ "v"; "e" ]; final = Some "n" } in
  List.iter
    (fun f ->
      let hits = ref 0 in
      let w0 = Gc.minor_words () in
      for i = 0 to Array.length entries - 1 do
        if Afilter.matches f (Array.unsafe_get entries i) then incr hits
      done;
      let words = Gc.minor_words () -. w0 in
      if words > 8. then
        Alcotest.failf "%s: %.0f words over %d entries (%d matched)" (Afilter.to_string f) words
          (Array.length entries) !hits)
    Afilter.
      [
        Present "tag";
        Present "absent";
        Str_eq ("tag", "even");
        Str_eq ("priority", "3");
        Substr ("tag", pat);
        Substr ("tag", { initial = None; middles = [ "d" ]; final = None });
        Int_cmp ("priority", Ge, 3);
        Int_cmp ("weight", Lt, 500);
        Int_cmp ("tag", Eq, 1);
        Dn_eq ("ref", Dn.of_string "id=5, id=1, dc=kroot");
        Dn_eq ("id", Dn.of_string "dc=kroot");
      ]

(* [Er.sorted_pairs] takes each reference's key from its entry's cache:
   its words per pair are the same on a chain, whose keys grow with
   depth, as on a shallow 16-ary tree of the same size.  A key built
   per pair shows as words growing with key length.  The deepest chain
   key stays under the 256 words past which a string skips the minor
   heap, so [Gc.minor_words] sees every key a regression would build. *)
let test_ref_keys_not_rebuilt () =
  let size = 150 in
  let per_pair instance =
    let entries = self_referencing instance in
    let _, pager = with_pager () in
    let run () =
      Er.sorted_pairs pager (Ext_list.Source.of_array entries) "ref"
        (fun _ ord -> ord)
    in
    ignore (run ());
    let w0 = Gc.minor_words () in
    let pairs = run () in
    let words = Gc.minor_words () -. w0 in
    let longest = Array.fold_left (fun m e -> max m (String.length (Entry.key e))) 0 entries in
    (words /. float_of_int (Ext_list.length pairs), longest)
  in
  let chain, chain_key = per_pair (Dif_gen.chain ~size ()) in
  let shallow, shallow_key = per_pair (Dif_gen.karily ~fanout:16 ~size ()) in
  Printf.printf "sorted_pairs: %.2f words/pair on a chain (keys up to %d B), %.2f shallow (%d B)\n"
    chain chain_key shallow shallow_key;
  if chain_key <= 8 * shallow_key || chain_key >= 256 * 8 then
    Alcotest.failf "chain keys up to %d B, shallow up to %d B" chain_key shallow_key;
  if Float.abs (chain -. shallow) > 0.5 then
    Alcotest.failf "sorted_pairs: %.2f words/pair on a chain, %.2f on a shallow tree" chain shallow

(* The stack sweep allocates a constant number of words per L1 entry:
   its frame, its verdict and the states its witnesses change, and no
   more as the directory grows.  L1 is a whole generated directory and
   L2 its [person] entries.  Before the sweep shared its zero states,
   compared heads in place and decided each L1 entry as it left the
   stack, the same sweeps took 117.6-117.9 (d) and 104.7-105.3 (p)
   words per L1 entry as lists, and 120.1-120.4 and 107.3-108.0 as
   streams, from 2k to 16k entries; now they take about 35 and 28 as
   lists, 39 and 32 as streams.  They must stay flat (within 10%) and
   at most half of the lowest of those. *)
let test_sweep_words_flat () =
  let per_entry size =
    let instance = Dif_gen.generate ~params:{ Dif_gen.default_params with seed = 1; size } () in
    let _, pager = with_pager () in
    let l1 = Ext_list.of_list_resident pager (Instance.to_list instance) in
    let l2 =
      Ext_list.of_list_resident pager
        (List.filter (fun e -> Entry.has_class e "person") (Instance.to_list instance))
    in
    let words f =
      ignore (f ());
      let w0 = Mclock.allocated_words () in
      ignore (Sys.opaque_identity (f ()));
      float_of_int (Mclock.allocated_words () - w0) /. float_of_int (Ext_list.length l1)
    in
    let src l = Ext_list.Source.of_list l in
    List.map
      (fun (op, name) ->
        ( size,
          name,
          words (fun () -> Ext_list.length (Hs_agg.compute_hier op l1 l2)),
          words (fun () ->
              Array.length
                (Ext_list.Source.drain (Hs_agg.compute_hier_src pager op (src l1) (src l2)))) ))
      [ (Ast.D, "d"); (Ast.P, "p") ]
  in
  let rows = List.concat_map per_entry [ 2_000; 4_000; 8_000; 16_000 ] in
  List.iter
    (fun (n, name, l, s) ->
      Printf.printf "%s sweep at %d entries: %.1f words/L1 entry (list), %.1f (stream)\n" name n l s)
    rows;
  List.iter
    (fun (name, form, before, words) ->
      let ws = List.filter_map (fun (_, o, l, s) -> if o = name then Some (words l s) else None) rows in
      let lo = List.fold_left min infinity ws and hi = List.fold_left max 0. ws in
      if hi > 1.1 *. lo then
        Alcotest.failf "%s sweep (%s): %.1f to %.1f words per L1 entry from 2k to 16k" name form lo hi;
      if hi > before /. 2. then
        Alcotest.failf "%s sweep (%s): %.1f words per L1 entry, over half of %.1f" name form hi before)
    [
      ("d", "list", 117.6, fun l _ -> l);
      ("d", "stream", 120.1, fun _ s -> s);
      ("p", "list", 104.7, fun l _ -> l);
      ("p", "stream", 107.3, fun _ s -> s);
    ]

(* A dn [depth] rdn's deep, each rdn a value that needs escaping. *)
let deep_dn ?(leaf = 0) depth =
  List.init depth (fun k ->
      Rdn.single "ou" (Value.Str (Printf.sprintf "unit, %d+%d" k (if k = 0 then leaf else 0))))

(* Words allocated by one call of [f], after a warm-up call. *)
let words_of f =
  ignore (f ());
  let w0 = Mclock.allocated_words () in
  ignore (Sys.opaque_identity (f ()));
  Mclock.allocated_words () - w0

(* [Cache.store] sums the entries' cached byte sizes: storing 5,000
   entries allocates no more than storing 500.  Every entry is 20 rdn's
   deep and references its own dn, about 320 bytes printed with an
   escape in every rdn, so sizing a result by printing its values
   allocates megabytes. *)
let test_cache_store_words_flat () =
  let base = deep_dn 19 in
  let result n =
    Array.init n (fun i ->
        let d = Dn.child base (Rdn.single "id" (Value.Int i)) in
        Entry.make d [ ("id", Value.Int i); ("ref", Value.Dn d); (Schema.object_class, Value.Str "node") ])
  in
  let store_words n =
    let arr = result n in
    let c = Cache.create ~budget_pages:max_int ~admit_min_io:0 () in
    words_of (fun () ->
        Cache.store c ~query:"q" (Ast.Atomic { Ast.base; scope = Ast.Sub; filter = Afilter.Present "id" })
          ~footprint:(Footprint.Bases [ base ]) ~cost_io:10 ~pages:1 arr)
  in
  let small = store_words 500 and large = store_words 5_000 in
  Printf.printf "Cache.store: %d words for 500 entries, %d for 5,000\n" small large;
  if abs (large - small) > 8 then
    Alcotest.failf "Cache.store: %d words for 500 entries, %d for 5,000" small large

(* A [Cache.find] hit reads its footprint's stamps by walking the
   version trie rdn by rdn, printing none: a hit allocates as many
   words for a base 20 rdn's deep as for one 3 deep.  Updates below
   each base give the trie a node on every level of its path. *)
let test_cache_hit_words_flat () =
  let hit_words depth =
    let base = deep_dn depth in
    let c = Cache.create ~admit_min_io:0 () in
    Cache.note_update c (Dn.child base (Rdn.single "id" (Value.Int 1)));
    Cache.note_update c (deep_dn ~leaf:1 depth);
    let e = Entry.make (Dn.child base (Rdn.single "id" (Value.Int 2))) [ ("id", Value.Int 2) ] in
    let q = Ast.Atomic { Ast.base; scope = Ast.Sub; filter = Afilter.Present "id" } in
    if not (Cache.store c ~query:"q" q ~footprint:(Footprint.Bases [ base ]) ~cost_io:10 ~pages:1 [| e |])
    then Alcotest.fail "result not admitted";
    words_of (fun () ->
        match Cache.find c ~query:"q" q with
        | Cache.Hit _ -> ()
        | Cache.Miss | Cache.Stale -> Alcotest.fail "expected a hit")
  in
  let shallow = hit_words 3 and deep = hit_words 20 in
  Printf.printf "Cache.find hit: %d words at base depth 3, %d at depth 20\n" shallow deep;
  if deep <> shallow || deep > 32 then
    Alcotest.failf "Cache.find hit: %d words at base depth 3, %d at depth 20 (at most 32)" shallow
      deep

(* A tree [depth] operators deep, with no boolean merge, so a lookup
   needs no plan: descendants of descendants of ... an atomic. *)
let deep_tree depth =
  let leaf k = Ast.atomic (Dn.of_string "dc=root0") (Afilter.Int_cmp ("priority", Afilter.Ge, k)) in
  let rec go d = if d = 0 then leaf 0 else Ast.descendants (go (d - 1)) (leaf (d mod 10)) in
  go (depth - 1)

(* An [Engine.eval] hit prints its query once and otherwise allocates a
   constant: no fingerprint, no plan.  The words beyond
   [Qprinter.to_string]'s are the same for a depth-20 tree as for an
   atomic, within 16. *)
let test_eval_hit_words () =
  let instance = Dif_gen.generate ~params:{ Dif_gen.default_params with size = 400 } () in
  let eng = Engine.create ~block ~result_cache:(Cache.create ~admit_min_io:0 ()) instance in
  let extra depth =
    let q = deep_tree depth in
    ignore (Engine.eval eng q);
    let hit = words_of (fun () -> Engine.eval eng q) in
    let print = words_of (fun () -> Qprinter.to_string q) in
    (hit, print, hit - print)
  in
  let h1, p1, x1 = extra 1 and h20, p20, x20 = extra 20 in
  Printf.printf "Engine.eval hit: %d words (print %d) for an atomic, %d (print %d) at depth 20\n" h1
    p1 h20 p20;
  if x20 > x1 + 16 then
    Alcotest.failf "Engine.eval hit at depth 20: %d words beyond printing, %d for an atomic" x20 x1

(* Two bases, [deep_dn 3] and [deep_dn 20], each with 16 children
   alike: child i has id=i and references [target]. *)
let target = Dn.of_string "dc=target"

let keying_instance () =
  let family depth =
    let base = deep_dn depth in
    Entry.make base [ (Schema.object_class, Value.Str "unit") ]
    :: List.init 16 (fun i ->
           Entry.make
             (Dn.child base (Rdn.single "id" (Value.Int i)))
             [ ("id", Value.Int i); ("ref", Value.Dn target); (Schema.object_class, Value.Str "node") ])
  in
  Instance.of_entries ~validate:false (Dif_gen.schema ()) (family 3 @ family 20)

let rev_key_growth () =
  let shallow = deep_dn 3 and deep = deep_dn 20 in
  words_of (fun () -> Dn.rev_key deep) - words_of (fun () -> Dn.rev_key shallow)

(* Planning resolves an atomic's base once and execution reads that
   resolution, so [Engine.eval] of an atomic (no cache) grows from base
   depth 3 to 20 by at most one [Dn.rev_key]'s growth, plus 16 words,
   on every scope and path, a [ref=dn:] filter's index path included. *)
let test_atomic_keyed_once () =
  let instance = keying_instance () in
  let scan = Engine.create ~block ~planner:Engine.Force_scan instance in
  let index = Engine.create ~block ~planner:Engine.Force_index instance in
  let key = rev_key_growth () in
  let cases =
    [
      ("base", scan, fun d -> Ast.Atomic { Ast.base = deep_dn d; scope = Ast.Base; filter = Afilter.Present Schema.object_class });
      ("one", scan, fun d -> Ast.Atomic { Ast.base = deep_dn d; scope = Ast.One; filter = Afilter.Present Schema.object_class });
      ("sub scan", scan, fun d -> Ast.Atomic { Ast.base = deep_dn d; scope = Ast.Sub; filter = Afilter.Int_cmp ("id", Afilter.Lt, 8) });
      ("sub index", index, fun d -> Ast.Atomic { Ast.base = deep_dn d; scope = Ast.Sub; filter = Afilter.Int_cmp ("id", Afilter.Eq, 5) });
      ("ref base", index, fun d -> Ast.Atomic { Ast.base = deep_dn d; scope = Ast.Sub; filter = Afilter.Dn_eq ("ref", target) });
    ]
  in
  List.iter
    (fun (name, eng, q) ->
      let words d =
        let q = q d in
        let rows = Ext_list.length (Engine.eval eng q) in
        if rows = 0 then Alcotest.failf "%s at depth %d: no rows" name d;
        words_of (fun () -> Engine.eval eng q)
      in
      let shallow = words 3 and deep = words 20 in
      Printf.printf "%s: %d words at base depth 3, %d at 20 (one key grows %d)\n" name shallow deep key;
      if deep - shallow > key + 16 then
        Alcotest.failf "%s: %d words at base depth 3, %d at 20: grew %d, one key grows %d" name
          shallow deep (deep - shallow) key)
    cases

(* With a cache, a sub-scope atomic the plan serves from it is printed
   once: planning prints it for its peek and the hit reads that text.
   [Engine.plan] plus [Engine.run_src] of a cached atomic grows from
   base depth 3 to 20 by at most one [Qprinter.to_string]'s growth and
   one [Dn.rev_key]'s, plus 16 words. *)
let test_cached_atomic_printed_once () =
  let instance = keying_instance () in
  let eng = Engine.create ~block ~result_cache:(Cache.create ~admit_min_io:0 ()) instance in
  let q d = Ast.Atomic { Ast.base = deep_dn d; scope = Ast.Sub; filter = Afilter.Int_cmp ("id", Afilter.Lt, 8) } in
  let rec drain s = match Ext_list.Source.next s with None -> () | Some _ -> drain s in
  let served d =
    let q = q d in
    ignore (Engine.eval eng q);
    let p = Engine.plan eng q in
    (match p.Plan.access with
    | Some { Plan.chosen = { Plan.alt_path = Plan.Cached; _ }; _ } -> ()
    | _ -> Alcotest.failf "depth %d: the plan does not serve the atomic from the cache" d);
    words_of (fun () -> drain (Engine.run_src eng (Engine.plan eng q)))
  in
  let print =
    let shallow = q 3 and deep = q 20 in
    words_of (fun () -> Qprinter.to_string deep) - words_of (fun () -> Qprinter.to_string shallow)
  in
  let key = rev_key_growth () in
  let shallow = served 3 and deep = served 20 in
  Printf.printf "cached atomic: %d words at base depth 3, %d at 20 (print grows %d, key %d)\n" shallow
    deep print key;
  if deep - shallow > print + key + 16 then
    Alcotest.failf "cached atomic: grew %d words from base depth 3 to 20; one print grows %d, one key %d"
      (deep - shallow) print key

(* A store that evicts one entry costs O(log n) in the entries resident:
   with 4,096 resident it takes at most 8x the min-of-50 time (each
   sample a batch of 256 stores, each evicting one) of the same with 64
   resident. *)
let test_cache_evict_flat_in_entries () =
  let samples = 50 and batch = 256 in
  let base = Dn.of_string "ou=a, dc=org" in
  let keys n =
    Array.init n (fun i ->
        (string_of_int i, Ast.atomic base (Afilter.Int_cmp ("id", Afilter.Lt, i))))
  in
  let measure resident =
    let c = Cache.create ~budget_pages:resident ~admit_min_io:0 () in
    let ks = keys (resident + ((samples + 1) * batch)) in
    let next = ref 0 in
    let store () =
      let text, q = ks.(!next) in
      incr next;
      if not (Cache.store c ~query:text q ~footprint:(Footprint.Bases [ base ]) ~cost_io:10 ~pages:1 [||])
      then Alcotest.fail "store refused"
    in
    for _ = 1 to resident + batch do
      store ()
    done;
    let best = ref max_int in
    for _ = 1 to samples do
      let t0 = Mclock.now_ns () in
      for _ = 1 to batch do
        store ()
      done;
      best := min !best ((Mclock.now_ns () - t0) / batch)
    done;
    if (Cache.stats c).Cache.entries <> resident then Alcotest.fail "entries resident drifted";
    !best
  in
  let small = measure 64 and large = measure 4_096 in
  Printf.printf "evicting store: %d ns with 64 resident, %d ns with 4,096 (%.1fx)\n" small large
    (float_of_int large /. float_of_int (max 1 small));
  if large > 8 * max 1 small then
    Alcotest.failf "evicting store %d ns with 4,096 resident > 8x %d ns with 64" large small

(* Outputs of every operator stay sorted end to end (Section 8.2's
   no-resorting invariant, experiment E15). *)
let prop_pipeline_sorted (instance, q) =
  let eng = Engine.create ~block:8 instance in
  let out = Engine.eval eng q in
  Ext_list.is_sorted Entry.compare_rev out

let () =
  Alcotest.run "complexity"
    [
      ( "theorem-5.1",
        [
          Alcotest.test_case "hier ops linear bound" `Slow test_hier_linear_bound;
          Alcotest.test_case "linear despite spills" `Slow
            test_hier_linear_with_spills;
          Alcotest.test_case "hier3 linear bound" `Slow test_hier3_linear_bound;
          Alcotest.test_case "scaling" `Slow test_hier_scaling;
          Alcotest.test_case "HSPC cost pinned exactly" `Quick
            test_hspc_exact_decomposition;
          Alcotest.test_case "boolean cost pinned exactly" `Quick
            test_bool_exact_decomposition;
        ] );
      ( "theorem-6.x",
        [
          Alcotest.test_case "simple agg <= 2 scans" `Slow
            test_simple_agg_two_scans;
          Alcotest.test_case "structural agg linear" `Slow test_hs_agg_linear;
        ] );
      ("theorem-7.1", [ Alcotest.test_case "er nlogn bound" `Slow test_er_bound ]);
      ( "baselines",
        [ Alcotest.test_case "naive quadratic + crossover" `Slow
            test_naive_quadratic ] );
      ( "theorem-8.x",
        [
          Alcotest.test_case "L2 tree bound + memory" `Slow test_engine_l2_bound;
          Alcotest.test_case "engine scaling" `Slow test_engine_scaling_linear;
          Alcotest.test_case "planning cost flat in N" `Quick test_planning_cost_flat;
          Alcotest.test_case "btree count flat in postings" `Quick
            test_btree_count_flat_in_postings;
          Alcotest.test_case "filter allocates nothing" `Quick test_filter_allocates_nothing;
          Alcotest.test_case "reference keys not rebuilt" `Quick test_ref_keys_not_rebuilt;
          Alcotest.test_case "sweep words per entry flat" `Slow test_sweep_words_flat;
          Alcotest.test_case "cache store words flat in result size" `Quick
            test_cache_store_words_flat;
          Alcotest.test_case "cache hit words flat in base depth" `Quick test_cache_hit_words_flat;
          Alcotest.test_case "eval hit allocates only its printing" `Quick test_eval_hit_words;
          Alcotest.test_case "an atomic is keyed once" `Quick test_atomic_keyed_once;
          Alcotest.test_case "a cached atomic is printed once" `Quick test_cached_atomic_printed_once;
          Alcotest.test_case "cache evicting store flat in entries" `Quick
            test_cache_evict_flat_in_entries;
          Testkit.qtest ~count:100 "pipeline keeps sortedness"
            Testkit.gen_instance_and_query prop_pipeline_sorted;
        ] );
    ]
