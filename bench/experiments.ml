(* The experiment harness: one entry per table/figure-level claim of the
   paper (see DESIGN.md section 3 and EXPERIMENTS.md for the mapping).
   Each experiment prints the measured series next to the paper's
   predicted shape. *)

open Util

let sizes_linear = [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000 ]

(* --- E1: ComputeHSPC is linear (Thm 5.1, Fig 2) -------------------------- *)

let e1 () =
  header ~id:"E1 (Thm 5.1, Fig 2)"
    ~claim:
      "ComputeHSPC: parents/children in O(|L1|/B + |L2|/B) I/Os; \
       io / input-pages should be a flat constant";
  row "%8s %8s %8s %10s %10s %12s %12s@." "N" "|L1|" "|L2|" "io(p)" "io(c)"
    "io(p)/pages" "io(c)/pages";
  List.iter
    (fun n ->
      let stats, pager = fresh_pager () in
      let l1, l2 = even_odd pager (karily ~fanout:4 ~size:n ()) in
      let n1 = Ext_list.length l1 and n2 = Ext_list.length l2 in
      let _, io_p, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier Ast.P l1 l2) in
      let _, io_c, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier Ast.C l1 l2) in
      let inp = pages n1 + pages n2 in
      row "%8d %8d %8d %10d %10d %12.2f %12.2f@." n n1 n2 io_p io_c
        (ratio io_p inp) (ratio io_c inp))
    sizes_linear

(* --- E2: ComputeHSAD is linear (Thm 5.1, Fig 4) --------------------------- *)

let e2 () =
  header ~id:"E2 (Thm 5.1, Fig 4)"
    ~claim:
      "ComputeHSAD: ancestors/descendants linear, on bushy trees and on \
       chains that force stack spills (window = 1 page)";
  row "%8s %8s %10s %10s %12s %14s@." "N" "shape" "io(a)" "io(d)" "io/pages"
    "spill io/pages";
  List.iter
    (fun n ->
      let run shape instance window =
        let stats, pager = fresh_pager () in
        let l1, l2 = even_odd pager instance in
        let inp = pages (Ext_list.length l1) + pages (Ext_list.length l2) in
        let _, io_a, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier ~window Ast.A l1 l2) in
        let _, io_d, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier ~window Ast.D l1 l2) in
        (shape, io_a, io_d, inp)
      in
      let shape, io_a, io_d, inp = run "bushy" (karily ~fanout:8 ~size:n ()) 2 in
      row "%8d %8s %10d %10d %12.2f %14s@." n shape io_a io_d
        (ratio (io_a + io_d) (2 * inp)) "-";
      (* chains have depth N, so their dn keys are long: keep them small
         enough that key construction stays tractable while still
         forcing thousands of stack spills *)
      if n <= 8_000 then begin
        let shape, io_a, io_d, inp = run "chain" (chain ~size:(n / 2) ()) 1 in
        row "%8d %8s %10d %10d %12s %14.2f@." (n / 2) shape io_a io_d "-"
          (ratio (io_a + io_d) (2 * inp))
      end)
    [ 2_000; 8_000; 32_000 ]

(* --- E3: ComputeHSADc is linear (Thm 5.1, Fig 5) ---------------------------- *)

let e3 () =
  header ~id:"E3 (Thm 5.1, Fig 5)"
    ~claim:
      "ComputeHSADc: path-constrained selection in O((|L1|+|L2|+|L3|)/B)";
  row "%8s %8s %8s %8s %10s %10s %12s@." "N" "|L1|" "|L2|" "|L3|" "io(ac)"
    "io(dc)" "io/pages";
  List.iter
    (fun n ->
      let stats, pager = fresh_pager () in
      let l1, l2, l3 = three_lists pager (karily ~fanout:3 ~size:n ()) in
      let inp =
        pages (Ext_list.length l1) + pages (Ext_list.length l2)
        + pages (Ext_list.length l3)
      in
      let _, io_ac, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier3 Ast.Ac l1 l2 l3) in
      let _, io_dc, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier3 Ast.Dc l1 l2 l3) in
      row "%8d %8d %8d %8d %10d %10d %12.2f@." n (Ext_list.length l1)
        (Ext_list.length l2) (Ext_list.length l3) io_ac io_dc
        (ratio (io_ac + io_dc) (2 * inp)))
    [ 1_000; 4_000; 16_000 ]

(* --- E4: simple aggregate selection in <= 2 scans (Thm 6.1) ------------------ *)

let e4 () =
  header ~id:"E4 (Thm 6.1)"
    ~claim:
      "(g L f): one input scan for entry-only filters, two when the filter \
       has entry-set aggregates; reads/pages(N) <= 2";
  row "%8s %28s %10s %10s %12s@." "N" "filter" "reads" "writes" "reads/pages";
  let filters =
    [
      ("min(priority) <= 3", "min(priority) <= 3");
      ("count($$) >= 10", "count($$) >= 10");
      ("min(p) = min(min(p))", "min(priority) = min(min(priority))");
      ("avg vs sum", "average(priority) <= sum(max(priority))");
    ]
  in
  List.iter
    (fun n ->
      let instance = karily ~fanout:4 ~size:n () in
      List.iter
        (fun (label, filter) ->
          let stats, pager = fresh_pager () in
          let l1 =
            Ext_list.of_list_resident pager (Instance.to_list instance)
          in
          let f = Qparser.parse_agg_filter_text filter in
          Io_stats.reset stats;
          ignore (Simple_agg.compute f l1);
          row "%8d %28s %10d %10d %12.2f@." n label stats.Io_stats.page_reads
            stats.Io_stats.page_writes
            (ratio stats.Io_stats.page_reads (pages n)))
        filters)
    [ 4_000; 16_000 ]

(* --- E5: structural aggregates stay linear (Thm 6.2, Fig 6) ------------------- *)

let e5 () =
  header ~id:"E5 (Thm 6.2, Fig 6)"
    ~claim:
      "ComputeHSAgg: aggregate selection over hierarchy operators keeps the \
       linear bound, including count($2)=max(count($2)) of Fig 6";
  row "%8s %34s %10s %12s@." "N" "aggregate filter" "io" "io/pages";
  let filters =
    [
      "count($2) > 0";
      "count($2) = max(count($2))";
      "min($2.priority) <= 2";
      "sum($2.weight) >= sum($1.weight)";
      "average($2.priority) >= average(average($2.priority))";
    ]
  in
  List.iter
    (fun n ->
      let instance = karily ~fanout:4 ~size:n () in
      List.iter
        (fun filter ->
          let stats, pager = fresh_pager () in
          let l1, l2 = even_odd pager instance in
          let inp = pages (Ext_list.length l1) + pages (Ext_list.length l2) in
          let agg = Qparser.parse_agg_filter_text filter in
          Io_stats.reset stats;
          ignore (Hs_agg.compute_hier Ast.D l1 l2 ~agg);
          row "%8d %34s %10d %12.2f@." n filter (Io_stats.total_io stats)
            (ratio (Io_stats.total_io stats) inp))
        filters)
    [ 4_000; 16_000 ]

(* --- E6: embedded references are O(N/B log N/B) (Thm 7.1, Fig 3) --------------- *)

let e6 () =
  header ~id:"E6 (Thm 7.1, Fig 3)"
    ~claim:
      "ComputeERAggDV/VD: sort-merge reference join in O(|L1|/B + (|L2| m/B) \
       log(|L2| m/B)); io / (pages * log pages) should stay flat as N and \
       the reference fan-out m grow";
  row "%8s %4s %8s %10s %10s %14s@." "N" "m" "pairs" "io(dv)" "io(vd)"
    "io/(p log p)";
  List.iter
    (fun (n, m) ->
      let instance =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with size = n; seed = 17; ref_fanout = m }
          ()
      in
      let stats, pager = fresh_pager () in
      let all = Ext_list.of_list_resident pager (Instance.to_list instance) in
      let nodes =
        Ext_list.of_list_resident pager
          (Instance.fold
             (fun acc e -> if Entry.has_class e "node" then e :: acc else acc)
             [] instance
          |> List.rev)
      in
      let npairs =
        Ext_list.fold
          (fun acc e -> acc + List.length (Entry.dn_values e "ref"))
          0 nodes
      in
      let _, io_dv, _ = measure ~size:n stats (fun () -> Er.compute_dv all nodes "ref") in
      let _, io_vd, _ = measure ~size:n stats (fun () -> Er.compute_vd nodes all "ref") in
      let p = max 1 (pages (n + npairs)) in
      let logp = max 1 (int_of_float (ceil (log (float_of_int p) /. log 2.))) in
      row "%8d %4d %8d %10d %10d %14.2f@." n m npairs io_dv io_vd
        (ratio (io_dv + io_vd) (2 * p * logp)))
    [ (1_000, 1); (2_000, 1); (4_000, 1); (4_000, 4); (8_000, 4); (8_000, 16) ]

(* --- E7: whole L2 query trees (Thm 8.3) ------------------------------------------ *)

let l2_query =
  "(g (d (dc=kroot ? sub ? tag=even) (& (dc=kroot ? sub ? tag=odd) (dc=kroot \
   ? sub ? priority>=1)) count($2) > 0) min(priority) >= 0)"

let e7 () =
  header ~id:"E7 (Thm 8.3)"
    ~claim:
      "full L2 query trees evaluate with linear I/O and constant memory \
       (max resident pages independent of N)";
  row "%8s %6s %10s %12s %14s@." "N" "|Q|" "io" "io/pages" "max resident";
  let q = Qparser.of_string l2_query in
  List.iter
    (fun n ->
      let instance = karily ~fanout:4 ~size:n () in
      let eng = Engine.create ~mode:!eval_mode ~block ~with_attr_index:false instance in
      Engine.reset_stats eng;
      ignore (Telemetry.with_stats ~size:n (Engine.stats eng) (fun () -> Engine.eval eng q));
      let stats = Engine.stats eng in
      row "%8d %6d %10d %12.2f %14d@." n (Ast.size q) (Io_stats.total_io stats)
        (ratio (Io_stats.total_io stats) (pages n))
        stats.Io_stats.max_resident_pages)
    sizes_linear

(* --- E8: L3 queries are O(N/B log N/B) (Thm 8.4) ----------------------------------- *)

let e8 () =
  header ~id:"E8 (Thm 8.4)"
    ~claim:
      "L3 query trees (embedded references) evaluate in O(N/B log N/B); the \
       normalized column grows like log N, the doubly-normalized one is flat";
  row "%8s %10s %12s %16s@." "N" "io" "io/pages" "io/(p log p)";
  let q =
    "(dv ( ? sub ? objectClass=*) (g (vd ( ? sub ? objectClass=node) ( ? sub \
     ? priority>=5) ref) min(priority) = min(min(priority))) ref)"
  in
  let q = Qparser.of_string q in
  List.iter
    (fun n ->
      let instance =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with size = n; seed = 29; ref_fanout = 4 }
          ()
      in
      let eng = Engine.create ~mode:!eval_mode ~block ~with_attr_index:false instance in
      Engine.reset_stats eng;
      ignore (Telemetry.with_stats ~size:n (Engine.stats eng) (fun () -> Engine.eval eng q));
      let io = Io_stats.total_io (Engine.stats eng) in
      let p = max 1 (pages n) in
      let logp = max 1. (log (float_of_int p) /. log 2.) in
      row "%8d %10d %12.2f %16.2f@." n io (ratio io p)
        (float_of_int io /. (float_of_int p *. logp)))
    sizes_linear

(* --- E9: crossover vs the naive quadratic baselines ---------------------------------- *)

let e9 () =
  header ~id:"E9 (Sections 5.3, 7.2)"
    ~claim:
      "the stack/merge algorithms vs the 'straightforward way': naive I/O \
       grows quadratically and loses by orders of magnitude well before 10k \
       entries";
  row "%8s %12s %12s %10s %14s %14s@." "N" "io(stack)" "io(naive)" "ratio"
    "t(stack) s" "t(naive) s";
  List.iter
    (fun n ->
      let instance = karily ~fanout:4 ~size:n () in
      let stats, pager = fresh_pager () in
      let l1, l2 = even_odd pager instance in
      let _, io_s, t_s = measure ~size:n stats (fun () -> Hs_agg.compute_hier Ast.D l1 l2) in
      let _, io_n, t_n =
        measure ~size:n stats (fun () -> Naive.compute_hier Ast.D l1 l2)
      in
      row "%8d %12d %12d %10.1f %14.4f %14.4f@." n io_s io_n (ratio io_n io_s)
        t_s t_n)
    [ 256; 512; 1_024; 2_048; 4_096; 8_192 ];
  row "@.%s@." "same comparison for the embedded-reference operators:";
  row "%8s %12s %12s %10s@." "N" "io(merge)" "io(naive)" "ratio";
  List.iter
    (fun n ->
      let instance =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with size = n; seed = 3; ref_fanout = 2 }
          ()
      in
      let stats, pager = fresh_pager () in
      let all = Ext_list.of_list_resident pager (Instance.to_list instance) in
      let _, io_s, _ = measure ~size:n stats (fun () -> Er.compute_dv all all "ref") in
      let _, io_n, _ =
        measure ~size:n stats (fun () -> Naive.compute_eref Ast.Dv all all "ref")
      in
      row "%8d %12d %12d %10.1f@." n io_s io_n (ratio io_n io_s))
    [ 256; 1_024; 4_096 ]

(* --- E10: the expressiveness hierarchy (Thm 8.1) --------------------------------------- *)

let e10 () =
  header ~id:"E10 (Thm 8.1)"
    ~claim:
      "LDAP < L0 < L1 < L2 < L3: each level's witness query runs here; the \
       lower level needs client-side work (LDAP) or cannot express it at all";
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 2_000; seed = 41; roots = 1 }
      ()
  in
  let eng = Engine.create ~mode:!eval_mode ~block instance in
  let witnesses =
    [
      ( "L0 over LDAP (Ex 4.1: two bases + difference)",
        "(- (dc=root0 ? sub ? objectClass=person) (id=1, dc=root0 ? sub ? \
         objectClass=person))" );
      ( "L1 over L0 (Ex 5.1: children)",
        "(c (dc=root0 ? sub ? objectClass=organizationalUnit) (dc=root0 ? sub \
         ? objectClass=person))" );
      ( "L2 over L1 (Ex 6.2: counting witnesses)",
        "(c (dc=root0 ? sub ? objectClass=organizationalUnit) (dc=root0 ? sub \
         ? objectClass=person) count($2) >= 3)" );
      ( "L3 over L2 (Ex 7.1: embedded references)",
        "(dv (dc=root0 ? sub ? objectClass=*) (dc=root0 ? sub ? priority>=8) \
         ref)" );
    ]
  in
  row "%-48s %6s %8s %14s@." "witness query" "level" "result" "single LDAP?";
  List.iter
    (fun (label, text) ->
      let q = Qparser.of_string text in
      let result = Engine.eval_entries eng q in
      row "%-48s %6s %8d %14s@." label
        (Lang.level_to_string (Lang.level q))
        (List.length result)
        (match Ldap.of_l0 q with Some _ -> "yes" | None -> "no"))
    witnesses;
  (* Example 4.1 the LDAP way: two queries + client-side difference. *)
  let sub_count base =
    List.length
      (Ldap.eval instance
         {
           Ldap.base = Dn.of_string base;
           scope = Ast.Sub;
           filter = Ldap.F_atom (Afilter.Str_eq (Schema.object_class, "person"));
         })
  in
  row
    "@.Example 4.1 in LDAP: 2 round trips (%d + %d entries shipped), \
     difference computed client-side; in L0: 1 query.@."
    (sub_count "dc=root0") (sub_count "id=1, dc=root0")

(* --- E11: (ac/dc) can express p/c, at whole-instance cost (Thm 8.2d) --------------------- *)

let e11 () =
  header ~id:"E11 (Thm 8.2d)"
    ~claim:
      "(p Q1 Q2) = (ac Q1 Q2 <entire instance>): the rewriting is correct \
       but its third operand is the whole directory, so its cost scales \
       with the instance, not the operands";
  row "%8s %8s %8s %10s %10s %12s %10s@." "N" "|L1|" "|L2|" "io(p)"
    "io(ac-rw)" "overhead" "equal";
  List.iter
    (fun n ->
      let instance =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with size = n; seed = 13; roots = 1 }
          ()
      in
      (* selective operands; the rewriting's third operand is the whole
         instance no matter how small the operands are, so we compare
         the operator costs over pre-materialized operand lists *)
      let stats, pager = fresh_pager () in
      let select f =
        Ext_list.of_list_resident pager
          (Instance.fold (fun acc e -> if f e then e :: acc else acc) [] instance
          |> List.rev)
      in
      let l1 = select (fun e -> Entry.string_values e "surName" = [ "milo" ]) in
      let l2 = select (fun e -> Entry.int_values e "priority" = [ 7 ]) in
      let l3 = select (fun _ -> true) in
      let direct, io_p, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier Ast.P l1 l2) in
      let rewritten, io_ac, _ =
        measure ~size:n stats (fun () -> Hs_agg.compute_hier3 Ast.Ac l1 l2 l3)
      in
      let a = Ext_list.to_list direct and b = Ext_list.to_list rewritten in
      row "%8d %8d %8d %10d %10d %11.1fx %10b@." n (Ext_list.length l1)
        (Ext_list.length l2) io_p io_ac (ratio io_ac io_p)
        (List.length a = List.length b && List.for_all2 Entry.equal_dn a b))
    [ 1_000; 4_000; 16_000 ]

(* --- E12: distributed evaluation (Sec 8.3) -------------------------------------------------- *)

let e12 () =
  header ~id:"E12 (Sec 8.3)"
    ~claim:
      "atomic sub-queries are shipped to the owning servers; only atomic \
       results cross the network, operators run at the coordinator";
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 8_000; roots = 2; seed = 23 }
      ()
  in
  let delegated =
    Instance.fold
      (fun best e ->
        if Dn.depth (Entry.dn e) = 2 && best = None then Some (Entry.dn e)
        else best)
      None instance
    |> Option.get
  in
  let net =
    Dist.deploy ~block instance
      [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1"; delegated ]
  in
  row "%d entries over %d servers@." (Instance.size instance)
    (List.length net.Dist.servers);
  row "%-52s %6s %6s %10s@." "query (posed at dc=root0)" "msgs" "rows" "bytes";
  List.iter
    (fun text ->
      let coord = Dist.coordinator net (Dn.of_string "dc=root0") in
      let result, _ =
        Telemetry.with_stats coord.Dist.stats (fun () ->
            Dist.eval_entries coord (Qparser.of_string text))
      in
      row "%-52s %6d %6d %10d@."
        (if String.length text > 50 then String.sub text 0 49 ^ "…" else text)
        coord.Dist.stats.Io_stats.messages (List.length result)
        coord.Dist.stats.Io_stats.bytes_shipped)
    [
      "(dc=root0 ? sub ? surName=milo)";
      "(dc=root1 ? sub ? surName=milo)";
      "(| (dc=root0 ? sub ? surName=milo) (dc=root1 ? sub ? surName=milo))";
      "(a ( ? sub ? objectClass=person) ( ? sub ? objectClass=organizationalUnit))";
      "(g ( ? sub ? objectClass=person) min(priority) = min(min(priority)))";
    ]

(* --- E13: the QoS application (Ex 2.1, Fig 12) ------------------------------------------------ *)

let e13 () =
  header ~id:"E13 (Ex 2.1 / Fig 12)"
    ~claim:
      "QoS decisions are directory queries: highest-priority matching \
       policies modulo exceptions, then their actions (the Fig 12 scenarios \
       plus a scaled decision workload)";
  let eng = Engine.create ~mode:!eval_mode ~block:8 (Qos.figure_12 ()) in
  let weekend = { Qos.time = 19980704093000; day_of_week = 6 } in
  let weekday = { Qos.time = 19980707093000; day_of_week = 2 } in
  let scenario label pkt clock expect =
    let d = Qos.decide eng ~pkt ~clock in
    let got =
      String.concat ","
        (List.concat_map (fun e -> Entry.string_values e "DSActionName") d.Qos.actions)
    in
    row "%-44s paper: %-10s measured: %-10s %s@." label expect got
      (if got = expect then "OK" else "MISMATCH")
  in
  let pkt ?(src = "204.178.16.5") ?(sport = 4000) ?(dport = 80) () =
    { Qos.src_addr = src; src_port = sport; dst_addr = "135.104.9.9";
      dst_port = dport; protocol = 6 }
  in
  scenario "weekend packet from 204.178.16.*" (pkt ()) weekend "denyAll";
  scenario "same, NNTP: exception fatt overrides" (pkt ~dport:119 ()) weekend
    "permitLow";
  scenario "gold subnet: priority 1 wins" (pkt ~src:"135.104.7.7" ()) weekday
    "permitHigh";
  scenario "weekday SMTP: mail policy" (pkt ~src:"12.9.9.9" ~sport:25 ())
    weekday "permitLow";
  scenario "unmatched traffic: no action"
    (pkt ~src:"8.8.8.8" ~sport:1 ~dport:1 ())
    weekday "";
  row "@.decision workload on synthetic repositories:@.";
  row "%10s %10s %14s %14s@." "policies" "entries" "io/decision" "ms/decision";
  List.iter
    (fun n_policies ->
      let i = Qos.generate ~params:{ Qos.default_gen with n_policies } () in
      let eng = Engine.create ~mode:!eval_mode ~block i in
      let rng = Prng.create 7 in
      let k = 20 in
      Engine.reset_stats eng;
      let t0 = Sys.time () in
      for _ = 1 to k do
        ignore
          (Qos.decide eng ~pkt:(Qos.random_packet rng)
             ~clock:(Qos.random_clock rng))
      done;
      let dt = Sys.time () -. t0 in
      row "%10d %10d %14.1f %14.2f@." n_policies (Instance.size i)
        (float_of_int (Io_stats.total_io (Engine.stats eng)) /. float_of_int k)
        (1000. *. dt /. float_of_int k))
    [ 100; 400; 1_600 ]

(* --- E14: the TOPS application (Ex 2.2, Fig 11) ------------------------------------------------- *)

let e14 () =
  header ~id:"E14 (Ex 2.2 / Fig 11)"
    ~claim:
      "TOPS call resolution = L2 query: highest-priority applicable QHP, \
       then its call appearances (the Fig 11 scenarios plus a scaled call \
       workload)";
  let eng = Engine.create ~mode:!eval_mode ~block:8 (Tops.figure_11 ()) in
  let scenario label time day expect =
    let r = Tops.resolve eng ~uid:"jag" ~time ~day in
    let got =
      match r.Tops.qhp with
      | None -> "(unreachable)"
      | Some q -> String.concat "," (Entry.string_values q "QHPName")
    in
    row "%-34s paper: %-14s measured: %-14s %s@." label expect got
      (if got = expect then "OK" else "MISMATCH")
  in
  scenario "Tuesday 10:30" 1030 2 "workinghours";
  scenario "Saturday 10:30" 1030 6 "weekend";
  scenario "Wednesday 23:00" 2300 3 "(unreachable)";
  row "@.call workload on synthetic directories:@.";
  row "%12s %10s %14s %14s@." "subscribers" "entries" "io/call" "ms/call";
  List.iter
    (fun subscribers ->
      let i = Tops.generate ~params:{ Tops.default_gen with subscribers } () in
      let eng = Engine.create ~mode:!eval_mode ~block i in
      let rng = Prng.create 5 in
      let k = 50 in
      Engine.reset_stats eng;
      let t0 = Sys.time () in
      for _ = 1 to k do
        ignore
          (Tops.resolve eng
             ~uid:(Printf.sprintf "user%d" (Prng.int rng subscribers))
             ~time:(Prng.int rng 2400)
             ~day:(1 + Prng.int rng 7))
      done;
      let dt = Sys.time () -. t0 in
      row "%12d %10d %14.1f %14.2f@." subscribers (Instance.size i)
        (float_of_int (Io_stats.total_io (Engine.stats eng)) /. float_of_int k)
        (1000. *. dt /. float_of_int k))
    [ 200; 800; 3_200 ]

(* --- E15: the sorted-pipeline invariant (Sec 4.2 / 8.2) ------------------------------------------- *)

let e15 () =
  header ~id:"E15 (Sec 4.2 / 8.2)"
    ~claim:
      "every operator consumes and produces reverse-dn-sorted lists, so \
       query trees never re-sort; checked over a corpus of query trees";
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 1_500; seed = 31 }
      ()
  in
  let eng = Engine.create ~mode:!eval_mode ~block instance in
  let queries =
    [
      "(& ( ? sub ? tag=red) ( ? sub ? priority>=3))";
      "(| ( ? sub ? tag=red) ( ? sub ? tag=blue))";
      "(- ( ? sub ? objectClass=node) ( ? sub ? tag=red))";
      "(p ( ? sub ? objectClass=person) ( ? sub ? objectClass=organizationalUnit))";
      "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? objectClass=person))";
      "(a ( ? sub ? objectClass=person) ( ? sub ? objectClass=dcObject))";
      "(d ( ? sub ? objectClass=dcObject) ( ? sub ? objectClass=person))";
      "(ac ( ? sub ? objectClass=person) ( ? sub ? objectClass=dcObject) ( ? \
       sub ? objectClass=organizationalUnit))";
      "(dc ( ? sub ? objectClass=dcObject) ( ? sub ? objectClass=person) ( ? \
       sub ? objectClass=organizationalUnit))";
      "(g ( ? sub ? objectClass=person) min(priority) = min(min(priority)))";
      "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? \
       objectClass=person) count($2) = max(count($2)))";
      "(vd ( ? sub ? objectClass=node) ( ? sub ? priority>=5) ref)";
      "(dv ( ? sub ? objectClass=*) ( ? sub ? objectClass=node) ref \
       count($2) >= 2)";
      "(a (g (| ( ? sub ? tag=red) ( ? sub ? tag=blue)) count($$) >= 0) (vd ( \
       ? sub ? objectClass=node) ( ? sub ? priority<=2) ref))";
    ]
  in
  let all_sorted = ref true in
  List.iter
    (fun text ->
      let out = Engine.eval eng (Qparser.of_string text) in
      let sorted = Ext_list.is_sorted Entry.compare_rev out in
      if not sorted then all_sorted := false;
      row "  %-74s %s@."
        (if String.length text > 72 then String.sub text 0 71 ^ "…" else text)
        (if sorted then "sorted" else "NOT SORTED"))
    queries;
  row "all outputs sorted: %b@." !all_sorted

(* --- E16 (ablation): stack window size --------------------------------------- *)

let e16 () =
  header ~id:"E16 (ablation: DESIGN.md spill-stack)"
    ~claim:
      "stack window size vs spill traffic: deep chains spill with small \
       windows; once the window covers the deepest path, spills vanish — \
       the bound holds at every setting";
  row "%8s %8s %14s %10s@." "N" "window" "io(descend.)" "spill io";
  let n = 4_000 in
  let instance = chain ~size:n () in
  let run window =
    let stats, pager = fresh_pager () in
    let l1, l2 = even_odd pager instance in
    let _, io, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier ~window Ast.D l1 l2) in
    io
  in
  let unbounded = run 4_096 (* window larger than any chain: no spills *) in
  List.iter
    (fun window ->
      let io = run window in
      row "%8d %8d %14d %10d@." n window io (io - unbounded))
    [ 1; 2; 4; 8; 16; 64; 256 ]

(* --- E17 (ablation): index-assisted vs scan-based atomic queries --------------- *)

let e17 () =
  header ~id:"E17 (ablation: Sec 4.1 indexes)"
    ~claim:
      "atomic queries through the attribute indexes vs full subtree scans: \
       selective filters win big with indexes, unselective ones do not";
  let instance = karily ~fanout:4 ~size:32_000 () in
  let indexed = Engine.create ~mode:!eval_mode ~block ~with_attr_index:true instance in
  let scanning = Engine.create ~mode:!eval_mode ~block ~with_attr_index:false instance in
  row "%-34s %12s %12s %8s@." "filter (sub scope at the root)" "io(index)"
    "io(scan)" "rows";
  List.iter
    (fun text ->
      let q = Qparser.of_string ("(dc=kroot ? sub ? " ^ text ^ ")") in
      Engine.reset_stats indexed;
      let rows = List.length (Engine.eval_entries indexed q) in
      let io_i = Io_stats.total_io (Engine.stats indexed) in
      Engine.reset_stats scanning;
      ignore (Engine.eval_entries scanning q);
      let io_s = Io_stats.total_io (Engine.stats scanning) in
      row "%-34s %12d %12d %8d@." text io_i io_s rows)
    [
      "id=12345";
      "id<100";
      "priority=3";
      "tag=even";
      "weight>=31000";
      "objectClass=*";
    ]

(* --- E18 (ablation): blocking factor ------------------------------------------- *)

let e18 () =
  header ~id:"E18 (ablation: blocking factor B)"
    ~claim:
      "the linear bounds are in pages: quadrupling B divides the I/O by \
       ~4 at fixed N (io * B is constant)";
  row "%8s %8s %12s %12s@." "N" "B" "io(descend.)" "io*B";
  let n = 16_000 in
  let instance = karily ~fanout:4 ~size:n () in
  List.iter
    (fun b ->
      let stats = Io_stats.create () in
      let pager = Pager.create ~block:b stats in
      let l1, l2 = even_odd pager instance in
      let _, io, _ = measure ~size:n stats (fun () -> Hs_agg.compute_hier Ast.D l1 l2) in
      row "%8d %8d %12d %12d@." n b io (io * b))
    [ 8; 16; 32; 64; 128; 256 ]

(* --- E19 (ablation): boolean-subtree fusion -------------------------------------- *)

let e19 () =
  header ~id:"E19 (ablation: Thm 8.1 fusion rewrite)"
    ~claim:
      "boolean subtrees over one base+scope collapse into a single fused        scan (the LDAP correspondence): k-leaf trees go from k scans +        merges to 1 scan, with identical results";
  let instance = karily ~fanout:4 ~size:16_000 () in
  let eng = Engine.create ~mode:!eval_mode ~block ~with_attr_index:false instance in
  row "%-52s %6s %6s %10s %10s %8s@." "query" "scans" "fused" "io(plain)"
    "io(fused)" "equal";
  List.iter
    (fun text ->
      let q = Qparser.of_string text in
      let plan = Fuse.plan_of q in
      Engine.reset_stats eng;
      let plain = Engine.eval_entries eng q in
      let io_plain = Io_stats.total_io (Engine.stats eng) in
      Engine.reset_stats eng;
      let fused = Fuse.eval_entries eng q in
      let io_fused = Io_stats.total_io (Engine.stats eng) in
      row "%-52s %6d %6d %10d %10d %8b@."
        (if String.length text > 50 then String.sub text 0 49 ^ "…" else text)
        (List.length (Ast.atomic_subqueries q))
        (Fuse.scan_count plan) io_plain io_fused
        (List.length plain = List.length fused
        && List.for_all2 Entry.equal_dn plain fused))
    [
      "(& (dc=kroot ? sub ? tag=even) (dc=kroot ? sub ? priority>=3))";
      "(- (& (dc=kroot ? sub ? tag=even) (dc=kroot ? sub ? priority>=3)) \
       (dc=kroot ? sub ? weight<8000))";
      "(| (& (dc=kroot ? sub ? tag=even) (dc=kroot ? sub ? priority>=3)) (& \
       (dc=kroot ? sub ? tag=odd) (dc=kroot ? sub ? priority<=1)))";
      "(c (& (dc=kroot ? sub ? tag=even) (dc=kroot ? sub ? priority>=3)) (- \
       (dc=kroot ? sub ? tag=odd) (dc=kroot ? sub ? weight<8000)))";
    ]

(* --- E20 (ablation): buffer pool -------------------------------------------------- *)

let e20 () =
  header ~id:"E20 (ablation: buffer pool)"
    ~claim:
      "an LRU page cache in front of the entry file: a warm decision        workload (100 TOPS calls against the same subscriber pages) drops        far below the cold per-call cost as capacity grows";
  let i = Tops.generate ~params:{ Tops.default_gen with subscribers = 500 } () in
  row "%12s %12s %12s %12s@." "cache pages" "io/call" "hits" "misses";
  List.iter
    (fun cache_pages ->
      let eng = Engine.create ~mode:!eval_mode ~block ~cache_pages ~with_attr_index:false i in
      let rng = Prng.create 5 in
      let calls = 100 in
      Engine.reset_stats eng;
      for _ = 1 to calls do
        ignore
          (Tops.resolve eng
             ~uid:(Printf.sprintf "user%d" (Prng.int rng 500))
             ~time:(Prng.int rng 2400)
             ~day:(1 + Prng.int rng 7))
      done;
      let io = Io_stats.total_io (Engine.stats eng) in
      let hits, misses =
        match Engine.cache eng with
        | Some pool -> (Buffer_pool.hits pool, Buffer_pool.misses pool)
        | None -> (0, 0)
      in
      row "%12d %12.1f %12d %12d@." cache_pages
        (float_of_int io /. float_of_int calls)
        hits misses)
    [ 0; 8; 32; 128; 512 ]

(* --- E21: replication traffic and failover (Sec 3.3) ------------------------------- *)

let e21 () =
  header ~id:"E21 (Sec 3.3, footnote 4)"
    ~claim:
      "primary/secondary replication: traffic is one message per update        per secondary; failover after a replication interval loses exactly        the unreplicated suffix";
  row "%12s %10s %12s %12s %12s@." "secondaries" "updates" "msgs" "bytes"
    "max lag";
  let instance =
    Dif_gen.generate ~params:{ Dif_gen.default_params with size = 2_000; roots = 2 } ()
  in
  let domains = [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1" ] in
  List.iter
    (fun secondaries ->
      let net = Replicated.deploy ~secondaries instance domains in
      let updates = 200 in
      for k = 1 to updates do
        match
          Replicated.update net
            (Replicated.Add
               (Entry.make
                  (Dn.of_string (Printf.sprintf "id=%d, dc=root%d" (800000 + k) (k mod 2)))
                  [
                    ("id", Value.Int (800000 + k));
                    ("priority", Value.Int (k mod 10));
                    (Schema.object_class, Value.Str "person");
                  ]))
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "update failed: %a" Directory.pp_error e
      done;
      let lag = Replicated.max_lag net in
      Replicated.replicate net;
      row "%12d %10d %12d %12d %12d@." secondaries updates
        net.Replicated.stats.Io_stats.messages
        net.Replicated.stats.Io_stats.bytes_shipped lag)
    [ 0; 1; 2; 4 ];
  (* failover data loss vs replication interval *)
  row "@.failover loss vs replication interval (103 updates to one group):@.";
  row "%20s %12s@." "replicate every" "lost at failover";
  List.iter
    (fun interval ->
      let net = Replicated.deploy ~secondaries:1 instance domains in
      for k = 1 to 103 do
        (match
           Replicated.update net
             (Replicated.Add
                (Entry.make
                   (Dn.of_string (Printf.sprintf "id=%d, dc=root0" (810000 + k)))
                   [
                     ("id", Value.Int (810000 + k));
                     (Schema.object_class, Value.Str "person");
                   ]))
         with
        | Ok () -> ()
        | Error e -> Fmt.failwith "update failed: %a" Directory.pp_error e);
        if k mod interval = 0 then Replicated.replicate net
      done;
      let lost = Replicated.fail_primary net (Dn.of_string "dc=root0") in
      row "%20d %12d@." interval lost)
    [ 1; 10; 50; 100 ]

(* --- E22 (ablation): sort-merge vs grace-hash embedded references ------------------- *)

let e22 () =
  header ~id:"E22 (ablation: Sec 7.2 join strategy)"
    ~claim:
      "the paper's sort-merge reference join vs a grace-hash join: hash        partitioning destroys the canonical order and pays a re-sort, so        sort-merge wins whenever the output must stay sorted";
  row "%8s %4s %12s %12s %12s@." "N" "m" "io(merge)" "io(hash)" "hash/merge";
  List.iter
    (fun (n, m) ->
      let instance =
        Dif_gen.generate
          ~params:{ Dif_gen.default_params with size = n; seed = 17; ref_fanout = m }
          ()
      in
      let stats, pager = fresh_pager () in
      let all = Ext_list.of_list_resident pager (Instance.to_list instance) in
      let _, io_merge, _ = measure ~size:n stats (fun () -> Er.compute_dv all all "ref") in
      let _, io_hash, _ =
        measure ~size:n stats (fun () -> Er_hash.compute_dv all all "ref")
      in
      row "%8d %4d %12d %12d %12.2f@." n m io_merge io_hash
        (ratio io_hash io_merge))
    [ (2_000, 1); (2_000, 4); (8_000, 1); (8_000, 4); (8_000, 16) ]

(* --- E23: the semantic result cache on a repeat-skewed workload --------------- *)

let e23 () =
  header ~id:"E23 (result cache)"
    ~claim:
      "on a repeat-skewed workload with interleaved updates, the semantic \
       result cache cuts page reads >= 2x (and coordinator messages, \
       distributed) without changing any result";
  (* Engine variant: TOPS call resolution, 85% of the traffic aimed at 16
     hot subscribers with small time/day pools (so query texts repeat
     exactly), one directory update every 20 steps. *)
  let subscribers = 400 and steps = 600 in
  let instance =
    Tops.generate
      ~params:
        {
          Tops.seed = 31;
          subscribers;
          qhps_per_subscriber = 3;
          appearances_per_qhp = 2;
        }
      ()
  in
  let rng = Prng.create 97 in
  let times = [| 900; 1130; 1415 |] and days = [| 2; 6 |] in
  let ops =
    List.init steps (fun i ->
        if i mod 20 = 19 then
          `Update
            ( Printf.sprintf "user%d" (Prng.int rng subscribers),
              Prng.int rng 3,
              1 + Prng.int rng 5 )
        else
          let uid =
            Printf.sprintf "user%d"
              (Prng.int rng (if Prng.flip rng 0.85 then 16 else subscribers))
          in
          `Query
            ( uid,
              times.(Prng.int rng (Array.length times)),
              days.(Prng.int rng (Array.length days)) ))
  in
  let replay result_cache =
    let d = Directory.create instance in
    Option.iter (fun c -> Cache.attach c d) result_cache;
    let stats = Io_stats.create () in
    (* One engine watching the directory for the whole stream, so reads
       accumulate over every query (index maintenance is never charged). *)
    let eng =
      Engine.create ~mode:!eval_mode ~block ~with_attr_index:false ?result_cache ~stats
        ~directory:d (Directory.instance d)
    in
    let rows = ref [] in
    ignore
      (Telemetry.with_stats ~size:steps stats (fun () ->
           List.iter
             (fun op ->
               match op with
               | `Query (uid, time, day) ->
                   let q = Tops.resolution_query ~uid ~time ~day () in
                   rows := Ext_list.length (Engine.eval eng q) :: !rows
               | `Update (uid, j, p) ->
                   let dn =
                     Dn.of_string
                       (Printf.sprintf "QHPName=qhp%d, %s" j
                          (Tops.subscriber_dn uid))
                   in
                   (match
                      Directory.modify d dn
                        [ Directory.Replace ("priority", [ Value.Int p ]) ]
                    with
                   | Ok () -> ()
                   | Error e ->
                       Fmt.failwith "E23 update: %a" Directory.pp_error e))
             ops));
    (stats, List.rev !rows)
  in
  let off, off_rows = replay None in
  let cache = Cache.create ~admit_min_io:1 () in
  let on, on_rows = replay (Some cache) in
  if off_rows <> on_rows then failwith "E23: cached results differ from uncached";
  let cs = Cache.stats cache in
  row "engine: %d TOPS resolutions + %d updates over %d entries@."
    (List.length off_rows)
    (steps - List.length off_rows)
    (Instance.size instance);
  row "%12s %10s %10s %12s %10s@." "" "reads" "writes" "reduction" "hit rate";
  row "%12s %10d %10d %12s %10s@." "cache off" off.Io_stats.page_reads
    off.Io_stats.page_writes "-" "-";
  row "%12s %10d %10d %11.1fx %9.0f%%  (target >= 2x)@." "cache on"
    on.Io_stats.page_reads on.Io_stats.page_writes
    (ratio off.Io_stats.page_reads (max 1 on.Io_stats.page_reads))
    (100. *. Cache.hit_rate cs);
  (* Distributed variant: the coordinator's shipped-result cache on a
     repeat-skewed query pool, with periodic remote-write notices. *)
  let dinst =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 6_000; roots = 2; seed = 23 }
      ()
  in
  let net =
    Dist.deploy ~block dinst [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1" ]
  in
  let pool =
    Array.map Qparser.of_string
      [|
        "(dc=root1 ? sub ? surName=milo)";
        "(dc=root1 ? sub ? priority>=5)";
        "(| (dc=root0 ? sub ? surName=smith) (dc=root1 ? sub ? surName=smith))";
        "(dc=root1 ? sub ? weight>=3)";
        "(dc=root0 ? sub ? surName=milo)";
        "(dc=root0 ? sub ? priority>=5)";
        "(dc=root1 ? sub ? tag=gr*)";
        "(dc=root1 ? sub ? id<500)";
        "(dc=root0 ? sub ? objectClass=person)";
        "(dc=root1 ? sub ? objectClass=organizationalUnit)";
      |]
  in
  let drng = Prng.create 53 in
  let dops =
    List.init 300 (fun i ->
        if i mod 25 = 24 then `Notice (Prng.int drng 2)
        else if Prng.flip drng 0.85 then `Pick (Prng.int drng 4)
        else `Pick (Prng.int drng (Array.length pool)))
  in
  let dreplay result_cache =
    let coord =
      Dist.coordinator ?result_cache net (Dn.of_string "dc=root0")
    in
    let rows = ref [] in
    ignore
      (Telemetry.with_stats ~size:300 coord.Dist.stats (fun () ->
           List.iter
             (fun op ->
               match op with
               | `Pick i ->
                   rows :=
                     List.length (Dist.eval_entries coord pool.(i)) :: !rows
               | `Notice r ->
                   Dist.note_update ~subtree:true coord
                     (Dn.of_string (Printf.sprintf "dc=root%d" r)))
             dops));
    (coord.Dist.stats, List.rev !rows)
  in
  let doff, doff_rows = dreplay None in
  let dcache = Cache.create () in
  let don, don_rows = dreplay (Some dcache) in
  if doff_rows <> don_rows then
    failwith "E23: distributed cached results differ from uncached";
  let ds = Cache.stats dcache in
  row "@.distributed: %d queries + %d write notices, 2 servers, %d entries@."
    (List.length doff_rows)
    (300 - List.length doff_rows)
    (Instance.size dinst);
  row "%12s %10s %12s %12s %10s@." "" "msgs" "bytes" "saved msgs" "hit rate";
  row "%12s %10d %12d %12s %10s@." "cache off" doff.Io_stats.messages
    doff.Io_stats.bytes_shipped "-" "-";
  row "%12s %10d %12d %12d %9.0f%%@." "cache on" don.Io_stats.messages
    don.Io_stats.bytes_shipped
    (doff.Io_stats.messages - don.Io_stats.messages)
    (100. *. Cache.hit_rate ds);
  (* Retention, outside the telemetry rows: eight selective scans (a
     page of result for a whole subtree read) against one whole-root
     result that fits the budget alone but not beside them, and is cheap
     per page it holds.  Exact LRU let every store of it flush the hot
     set; the cache must refuse it and keep serving the hot scans. *)
  let rinst =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 4_000; roots = 1; seed = 41 }
      ()
  in
  let reng_cache = Cache.create () in
  let reng =
    Engine.create ~mode:!eval_mode ~block ~with_attr_index:false
      ~result_cache:reng_cache rinst
  in
  let hot =
    Array.init 8 (fun k ->
        Qparser.of_string (Printf.sprintf "(dc=root0 ? sub ? id<%d)" (k + 2)))
  and tail = Qparser.of_string "(dc=root0 ? sub ? id>=0)" in
  let tail_pages = pages (Ext_list.length (Engine.eval reng tail)) in
  Cache.clear reng_cache;
  Cache.set_budget_pages reng_cache (tail_pages + 4);
  let rrng = Prng.create 61 in
  let hot_lookups = ref 0 and hot_hits = ref 0 in
  let tail_lookups = ref 0 and tail_rejects = ref 0 in
  for _ = 1 to 400 do
    let s0 = Cache.stats reng_cache in
    if Prng.flip rrng 0.1 then begin
      ignore (Engine.eval reng tail);
      incr tail_lookups;
      tail_rejects :=
        !tail_rejects + (Cache.stats reng_cache).Cache.rejects - s0.Cache.rejects
    end
    else begin
      ignore (Engine.eval reng hot.(Prng.int rrng (Array.length hot)));
      incr hot_lookups;
      hot_hits := !hot_hits + (Cache.stats reng_cache).Cache.hits - s0.Cache.hits
    end
  done;
  let rs = Cache.stats reng_cache in
  let hot_hit_rate = ratio !hot_hits !hot_lookups in
  row "@.retention: %d hot lookups + %d of a %d-page tail, budget %d pages@."
    !hot_lookups !tail_lookups tail_pages rs.Cache.budget_pages;
  row "%12s %10.3f %12s %10d %12s %10d@." "hot hit rate" hot_hit_rate
    "tail refused" !tail_rejects "evictions" rs.Cache.evictions;
  (* Structured stats for the CI artifact. *)
  let out = open_out "BENCH_cache_stats.json" in
  Printf.fprintf out
    "{\n\
    \  \"engine\": {\"hits\": %d, \"misses\": %d, \"stale\": %d, \"evictions\": \
     %d, \"rejects\": %d,\n\
    \    \"hit_rate\": %.3f, \"reads_off\": %d, \"reads_on\": %d, \
     \"read_reduction\": %.2f},\n\
    \  \"dist\": {\"hits\": %d, \"misses\": %d, \"stale\": %d,\n\
    \    \"hit_rate\": %.3f, \"messages_off\": %d, \"messages_on\": %d, \
     \"bytes_off\": %d, \"bytes_on\": %d},\n\
    \  \"retention\": {\"hot_lookups\": %d, \"hot_hits\": %d, \
     \"hot_hit_rate\": %.3f,\n\
    \    \"tail_lookups\": %d, \"tail_rejects\": %d, \"tail_pages\": %d, \
     \"evictions\": %d, \"budget_pages\": %d}\n\
     }\n"
    cs.Cache.hits cs.Cache.misses cs.Cache.stale cs.Cache.evictions
    cs.Cache.rejects (Cache.hit_rate cs) off.Io_stats.page_reads
    on.Io_stats.page_reads
    (ratio off.Io_stats.page_reads (max 1 on.Io_stats.page_reads))
    ds.Cache.hits ds.Cache.misses ds.Cache.stale (Cache.hit_rate ds)
    doff.Io_stats.messages don.Io_stats.messages doff.Io_stats.bytes_shipped
    don.Io_stats.bytes_shipped !hot_lookups !hot_hits hot_hit_rate !tail_lookups
    !tail_rejects tail_pages rs.Cache.evictions rs.Cache.budget_pages;
  close_out out;
  row "wrote cache stats to BENCH_cache_stats.json@.";
  (* One stitched distributed trace for the CI artifact: trace the
     cross-root OR query (it involves both servers), so the exported
     Chrome trace shows the coordinator's merge spans and each server's
     engine spans in their own lanes, all under one trace id.  The
     coordinator offers its tree to Tail (the harness runs at slow
     threshold 0, so it is retained), where it is the newest entry of
     origin "dist". *)
  let tracing_was = Trace.enabled () in
  Trace.set_enabled true;
  let coord = Dist.coordinator net (Dn.of_string "dc=root0") in
  ignore (Dist.eval_entries coord pool.(2));
  Trace.set_enabled tracing_was;
  (match
     List.find_opt
       (fun (r : Tail.retained) -> r.Tail.r_origin = "dist")
       (Tail.retained ())
   with
  | Some { Tail.r_span = span; _ } ->
      let out = open_out "BENCH_dist_trace.json" in
      output_string out (Chrome_trace.to_string [ span ]);
      output_char out '\n';
      close_out out;
      row "wrote a stitched 2-server trace to BENCH_dist_trace.json@."
  | None -> row "no trace captured for BENCH_dist_trace.json@.")

(* --- E25: streaming vs materialized operator boundaries (Thm 8.3) ------------ *)

let e25 () =
  header ~id:"E25 (Thm 8.3, streaming)"
    ~claim:
      "the fused pipeline cuts page writes >= 1.5x on full L2 query trees \
       with identical results, and max resident pages stay constant in N";
  let q = Qparser.of_string l2_query in
  (* E7's sweep, run once per mode on the same instance.  Telemetry rows
     (and hence the perf baseline) record the streaming side; the
     materialized side is measured with plain counters. *)
  let run_tree mode ~record ~size instance q =
    let eng = Engine.create ~mode ~block ~with_attr_index:false instance in
    Engine.reset_stats eng;
    let out =
      if record then (
        let r = ref [] in
        ignore
          (Telemetry.with_stats ~size (Engine.stats eng) (fun () ->
               r := Engine.eval_entries eng q));
        !r)
      else Engine.eval_entries eng q
    in
    (List.map Entry.key out, Engine.stats eng)
  in
  row "%8s %10s %10s %8s %7s %12s %12s@." "N" "writes(m)" "writes(s)" "saved"
    "ratio" "resident(m)" "resident(s)";
  let sweep =
    List.map
      (fun n ->
        let instance = karily ~fanout:4 ~size:n () in
        let mkeys, m = run_tree Engine.Materialized ~record:false ~size:n instance q in
        let skeys, s = run_tree Engine.Streaming ~record:true ~size:n instance q in
        if mkeys <> skeys then
          failwith "E25: streaming results differ from materialized";
        let mw = m.Io_stats.page_writes and sw = s.Io_stats.page_writes in
        row "%8d %10d %10d %8d %6.2fx %12d %12d@." n mw sw (mw - sw)
          (ratio mw (max 1 sw))
          m.Io_stats.max_resident_pages s.Io_stats.max_resident_pages;
        (n, mw, sw, m.Io_stats.max_resident_pages, s.Io_stats.max_resident_pages))
      sizes_linear
  in
  (* TOPS decision workload: repeated call resolutions, each mode. *)
  let tops_instance =
    Tops.generate
      ~params:
        {
          Tops.seed = 31;
          subscribers = 200;
          qhps_per_subscriber = 3;
          appearances_per_qhp = 2;
        }
      ()
  in
  let rng = Prng.create 41 in
  let times = [| 900; 1130; 1415 |] and days = [| 2; 6 |] in
  let queries =
    List.init 200 (fun _ ->
        Tops.resolution_query
          ~uid:(Printf.sprintf "user%d" (Prng.int rng 200))
          ~time:times.(Prng.int rng (Array.length times))
          ~day:days.(Prng.int rng (Array.length days))
          ())
  in
  let run_tops mode record =
    let eng = Engine.create ~mode ~block ~with_attr_index:false tops_instance in
    Engine.reset_stats eng;
    let rows = ref [] in
    let go () =
      List.iter
        (fun q -> rows := Ext_list.length (Engine.eval eng q) :: !rows)
        queries
    in
    if record then
      ignore
        (Telemetry.with_stats ~size:(List.length queries) (Engine.stats eng) go)
    else go ();
    (List.rev !rows, Engine.stats eng)
  in
  let trows_m, tm = run_tops Engine.Materialized false in
  let trows_s, ts = run_tops Engine.Streaming true in
  if trows_m <> trows_s then
    failwith "E25: TOPS streaming results differ from materialized";
  row "@.TOPS decision workload: %d resolutions over %d entries@."
    (List.length queries)
    (Instance.size tops_instance);
  row "%14s %10s %10s %8s %7s@." "" "writes(m)" "writes(s)" "saved" "ratio";
  row "%14s %10d %10d %8d %6.2fx  (target >= 1.5x)@." "tops"
    tm.Io_stats.page_writes ts.Io_stats.page_writes
    (tm.Io_stats.page_writes - ts.Io_stats.page_writes)
    (ratio tm.Io_stats.page_writes (max 1 ts.Io_stats.page_writes));
  (* Structured stats for the CI artifact and the pages_written gate. *)
  let out = open_out "BENCH_stream_stats.json" in
  Printf.fprintf out "{\n  \"l2_sweep\": [\n";
  List.iteri
    (fun i (n, mw, sw, mres, sres) ->
      Printf.fprintf out
        "    {\"n\": %d, \"mat_writes\": %d, \"stream_writes\": %d, \
         \"saved\": %d, \"ratio\": %.3f, \"mat_max_resident\": %d, \
         \"stream_max_resident\": %d}%s\n"
        n mw sw (mw - sw)
        (ratio mw (max 1 sw))
        mres sres
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf out
    "  ],\n\
    \  \"tops\": {\"queries\": %d, \"mat_writes\": %d, \"stream_writes\": %d, \
     \"saved\": %d, \"ratio\": %.3f}\n\
     }\n"
    (List.length queries) tm.Io_stats.page_writes ts.Io_stats.page_writes
    (tm.Io_stats.page_writes - ts.Io_stats.page_writes)
    (ratio tm.Io_stats.page_writes (max 1 ts.Io_stats.page_writes));
  close_out out;
  row "wrote streaming stats to BENCH_stream_stats.json@."

(* --- E26: plan-quality observatory (estimate vs actual) -------------------------- *)

let e26 () =
  header ~id:"E26 (plan quality)"
    ~claim:
      "the planner's cardinality estimates stay within a small q-error band \
       on L2 trees and the TOPS decision workload, and a workload shift \
       trips the drift detector";
  (* Private stores, subscribed to the journal only for the duration of
     each phase, so the summaries cover exactly these queries.  No
     Telemetry rows: this experiment measures estimation quality, not
     time or I/O. *)
  let journaled = Qlog.enabled () in
  if not journaled then
    row "(journal disabled: no events will flow; run via bench/main)@.";
  let q = Qparser.of_string l2_query in
  let ps_l2 = Planstats.create () in
  Planstats.attach ps_l2;
  Fun.protect
    ~finally:(fun () -> Planstats.detach ps_l2)
    (fun () ->
      List.iter
        (fun n ->
          let instance = karily ~fanout:4 ~size:n () in
          let eng =
            Engine.create ~mode:!eval_mode ~block ~with_attr_index:false instance
          in
          ignore (Engine.eval_entries eng q))
        sizes_linear);
  row "L2 sweep (%d journaled queries):@." (Planstats.events ps_l2);
  row "%a" Planstats.pp_summary ps_l2;
  (* The TOPS workload, judged against the L2 sweep's calibration: a
     genuinely different workload should trip the drift detector. *)
  let tops_instance =
    Tops.generate
      ~params:
        {
          Tops.seed = 31;
          subscribers = 200;
          qhps_per_subscriber = 3;
          appearances_per_qhp = 2;
        }
      ()
  in
  let rng = Prng.create 41 in
  let times = [| 900; 1130; 1415 |] and days = [| 2; 6 |] in
  let queries =
    List.init 200 (fun _ ->
        Tops.resolution_query
          ~uid:(Printf.sprintf "user%d" (Prng.int rng 200))
          ~time:times.(Prng.int rng (Array.length times))
          ~day:days.(Prng.int rng (Array.length days))
          ())
  in
  let ps_tops = Planstats.create () in
  Planstats.set_baseline ps_tops ps_l2;
  Planstats.attach ps_tops;
  Fun.protect
    ~finally:(fun () -> Planstats.detach ps_tops)
    (fun () ->
      let eng =
        Engine.create ~mode:!eval_mode ~block ~with_attr_index:false
          tops_instance
      in
      List.iter (fun q -> ignore (Engine.eval_entries eng q)) queries);
  row "@.TOPS decision workload (%d journaled resolutions):@."
    (Planstats.events ps_tops);
  row "%a" Planstats.pp_summary ps_tops;
  row "%a" Planstats.pp_drift ps_tops

(* --- E27: alert lifecycle (operational health) ---------------------------- *)

let e27 () =
  header ~id:"E27 (alert lifecycle)"
    ~claim:
      "turning the result cache off under a repeat-skewed workload drives \
       the read-amplification alert inactive -> pending -> firing, and \
       turning it back on resolves it";
  (* The TOPS repeat workload of E23, queries only: 16 hot subscribers,
     small time/day pools, so with the cache on almost every resolution
     is a hit (near-zero page reads per query) and with it off every one
     pays the full index walk. *)
  let subscribers = 400 and burst_len = 120 in
  let instance =
    Tops.generate
      ~params:
        {
          Tops.seed = 31;
          subscribers;
          qhps_per_subscriber = 3;
          appearances_per_qhp = 2;
        }
      ()
  in
  let rng = Prng.create 97 in
  let times = [| 900; 1130; 1415 |] and days = [| 2; 6 |] in
  let pick () =
    Tops.resolution_query
      ~uid:(Printf.sprintf "user%d" (Prng.int rng 16))
      ~time:times.(Prng.int rng (Array.length times))
      ~day:days.(Prng.int rng (Array.length days))
      ()
  in
  let d = Directory.create instance in
  let cache = Cache.create ~admit_min_io:1 () in
  Cache.attach cache d;
  let stats = Io_stats.create () in
  let mk result_cache =
    Engine.create ~mode:!eval_mode ~block ~with_attr_index:false ?result_cache
      ~stats (Directory.instance d)
  in
  let cached = mk (Some cache) and uncached = mk None in
  (* Reads/query of each regime, measured on this instance so the alert
     threshold splits them instead of hard-coding today's constants.
     The warm-up burst also fills the cache. *)
  let rpq eng =
    let r0 = stats.Io_stats.page_reads in
    for _ = 1 to burst_len do
      ignore (Engine.eval eng (pick ()))
    done;
    float_of_int (stats.Io_stats.page_reads - r0) /. float_of_int burst_len
  in
  ignore (rpq cached) (* warm up *);
  let warm = rpq cached and cold = rpq uncached in
  let threshold = Float.max 0.5 ((warm +. cold) /. 2.) in
  (* A private evaluator over the default store and registry: its
     ALERTS series land in the same exposition a collector scrapes, but
     its ticks and aggressive thresholds stay out of the harness-wide
     evaluator.  Created after the warm-up, so its first tick reads only
     the baseline phase. *)
  let a = Alerts.create () in
  ignore
    (Alerts.add ~severity:"critical" a ~name:"e27-read-amplification"
       (Printf.sprintf
          "rate(engine_page_reads_total) / rate(engine_queries_total) > %g \
           for 2"
          threshold));
  ignore
    (Alerts.add a ~name:"e27-latency-p99" "engine_query_ns p99 > 250ms for 2");
  let timeline = ref [] in
  let phase_tick name eng =
    Option.iter (fun e -> for _ = 1 to burst_len do
        ignore (Engine.eval e (pick ()))
      done) eng;
    Alerts.tick a;
    let st =
      Option.value ~default:Alerts.Inactive
        (Alerts.state a "e27-read-amplification")
    and v =
      Option.value ~default:0. (Alerts.last_value a "e27-read-amplification")
    in
    timeline :=
      (Alerts.ticks a, name, v, Alerts.state_name st) :: !timeline;
    row "%6s tick %d: reads/query %8.2f  -> %s@." name (Alerts.ticks a) v
      (Alerts.state_name st)
  in
  ignore
    (Telemetry.with_stats ~size:burst_len stats (fun () ->
         phase_tick "baseline" None;
         (* healthy: cache on, amplification below threshold *)
         phase_tick "healthy" (Some cached);
         phase_tick "healthy" (Some cached);
         (* induce: cache off -> pending, then firing (for 2) *)
         phase_tick "induce" (Some uncached);
         phase_tick "induce" (Some uncached);
         phase_tick "induce" (Some uncached);
         (* recover: cache back on -> one quiet tick resolves *)
         phase_tick "recover" (Some cached)));
  let reached s =
    List.exists
      (fun tr ->
        tr.Alerts.tr_rule = "e27-read-amplification" && tr.Alerts.tr_to = s)
      (Alerts.history a)
  in
  let fired = reached "firing" and resolved = reached "resolved" in
  let ended_inactive =
    Alerts.state a "e27-read-amplification" = Some Alerts.Inactive
  in
  row "threshold %.2f reads/query (warm %.2f, cold %.2f)@." threshold warm
    cold;
  row "lifecycle: fired %b, resolved %b, ended inactive %b@." fired resolved
    ended_inactive;
  let doc =
    Json.Obj
      [
        ("threshold", Json.Num threshold);
        ("warm_reads_per_query", Json.Num warm);
        ("cold_reads_per_query", Json.Num cold);
        ( "timeline",
          Json.Arr
            (List.rev_map
               (fun (t, name, v, st) ->
                 Json.Obj
                   [
                     ("tick", Json.Num (float_of_int t));
                     ("phase", Json.Str name);
                     ("value", Json.Num v);
                     ("state", Json.Str st);
                   ])
               !timeline) );
        ( "lifecycle",
          Json.Obj
            [
              ("reached_firing", Json.Bool fired);
              ("resolved", Json.Bool resolved);
              ("ended_inactive", Json.Bool ended_inactive);
            ] );
        ("alerts", Alerts.to_json a);
      ]
  in
  let out = open_out "BENCH_alerts.json" in
  output_string out (Json.to_string doc);
  output_char out '\n';
  close_out out;
  row "wrote the alert lifecycle to BENCH_alerts.json@.";
  (* Zero the e27 ALERTS gauges so the run-wide exposition ends clean. *)
  Alerts.clear a;
  if not (fired && resolved && ended_inactive) then
    failwith "E27: alert lifecycle did not reach firing and resolve"

(* --- E30: cost-based access-path selection (selectivity sweep) ------------ *)

type e30_point = {
  p_label : string;
  p_workload : string;
  p_scan : int;  (* page reads under the forced subtree-scan path *)
  p_index : int;  (* page reads under the forced index path *)
  p_auto : int;  (* page reads, cost-based planner, uncalibrated *)
  p_calib : int;  (* page reads, cost-based planner + journal calibration *)
  p_auto_path : string;
  p_calib_path : string;
}

let e30 () =
  header ~id:"E30 (cost-based planner)"
    ~claim:
      "access-path selection rides the attribute index at high \
       selectivity, flips to the subtree scan past the crossover, and \
       never loses to either forced path; journal calibration repairs \
       the mispriced suffix-trie collection and flips a substring \
       regime back to the index";
  let journaled = Qlog.enabled () in
  if not journaled then
    row "(journal disabled: calibration gates skipped; run via bench/main)@.";
  let n = 16_000 in
  (* Two workloads.  The id-range sweep over a balanced tree walks the
     index<->scan crossover with a well-priced B-tree path: the planner
     should track min(scan, index) across the whole sweep without help.
     The substring probe over generated names is mispriced by design —
     the estimator's collection proxy charges one read per candidate,
     the suffix trie really charges one per trie node — so only the
     journal's learned reads bias can flip it back to the index. *)
  let ktree = karily ~fanout:4 ~size:n () in
  let names = Dif_gen.generate ~params:{ Dif_gen.default_params with size = n } () in
  let mk instance planner =
    let stats = Io_stats.create () in
    (stats, Engine.create ~mode:!eval_mode ~block ~stats ~planner instance)
  in
  let rig instance =
    (mk instance Engine.Force_scan, mk instance Engine.Force_index,
     mk instance Engine.Auto, mk instance Engine.Auto)
  in
  let rig_tree = rig ktree and rig_names = rig names in
  let points =
    List.map
      (fun k ->
        ( rig_tree,
          Qparser.of_string (Printf.sprintf "( ? sub ? id<%d )" k),
          Printf.sprintf "id<%d" k,
          "int-range" ))
      [ 16; 64; 256; 1024; 4096; n ]
    @ [
        ( rig_names,
          Qparser.of_string "( ? sub ? name=*ilo* )",
          "name=*ilo*",
          "substring" );
      ]
  in
  (* One evaluation: page reads charged to this engine's stats, plus
     which access path the planner took (the path counters move once
     per sub-scope atomic). *)
  let run (stats, eng) q =
    let i0, s0, c0 = Engine.path_counts eng in
    stats.Io_stats.page_reads <- 0;
    ignore (Engine.eval_entries eng q);
    let i1, s1, c1 = Engine.path_counts eng in
    let path =
      if i1 > i0 then "index"
      else if c1 > c0 then "cache"
      else if s1 > s0 then "scan"
      else "-"
    in
    (stats.Io_stats.page_reads, path)
  in
  (* Calibration: a private store subscribed to the journal while both
     forced paths run the full sweep a few times, so every (class x
     selectivity-bucket) cell clears the bias support threshold; the
     calibrated engines then consult the frozen store. *)
  let store = Planstats.create () in
  Planstats.attach store;
  Fun.protect
    ~finally:(fun () -> Planstats.detach store)
    (fun () ->
      for _ = 1 to 5 do
        List.iter
          (fun ((scan, index, _, _), q, _, _) ->
            ignore (run scan q);
            ignore (run index q))
          points
      done);
  List.iter
    (fun ((_, _, _, (_, calib)), _, _, _) ->
      Engine.set_calibration calib (Some store))
    points;
  row "%-12s %-10s %8s %8s %8s %8s  %-6s %-6s@." "filter" "workload" "scan"
    "index" "auto" "calib" "auto" "calib";
  let results =
    List.map
      (fun ((scan, index, auto, calib), q, label, workload) ->
        let p_scan, _ = run scan q in
        let p_index, _ = run index q in
        let p_auto, p_auto_path = run auto q in
        let p_calib, p_calib_path = run calib q in
        row "%-12s %-10s %8d %8d %8d %8d  %-6s %-6s@." label workload p_scan
          p_index p_auto p_calib p_auto_path p_calib_path;
        { p_label = label; p_workload = workload; p_scan; p_index; p_auto;
          p_calib; p_auto_path; p_calib_path })
      points
  in
  let doc =
    Json.Obj
      [
        ("n", Json.Num (float_of_int n));
        ("block", Json.Num (float_of_int block));
        ("calibrated", Json.Bool journaled);
        ( "sweep",
          Json.Arr
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("filter", Json.Str p.p_label);
                     ("workload", Json.Str p.p_workload);
                     ("scan_reads", Json.Num (float_of_int p.p_scan));
                     ("index_reads", Json.Num (float_of_int p.p_index));
                     ("auto_reads", Json.Num (float_of_int p.p_auto));
                     ("calib_reads", Json.Num (float_of_int p.p_calib));
                     ("auto_path", Json.Str p.p_auto_path);
                     ("calib_path", Json.Str p.p_calib_path);
                   ])
               results) );
      ]
  in
  let out = open_out "BENCH_planner.json" in
  output_string out (Json.to_string doc);
  output_char out '\n';
  close_out out;
  row "wrote the sweep to BENCH_planner.json@.";
  let find label = List.find (fun p -> p.p_label = label) results in
  (* Structural gates, calibration-free: never lose to the naive
     always-scan engine, and the crossover must be visible. *)
  List.iter
    (fun p ->
      if p.p_auto > p.p_scan + 2 then
        failwith
          (Printf.sprintf "E30: auto (%d reads) lost to always-scan (%d) at %s"
             p.p_auto p.p_scan p.p_label))
    results;
  if (find "id<16").p_auto_path <> "index" then
    failwith "E30: high-selectivity point did not ride the index";
  let lo = find (Printf.sprintf "id<%d" n) in
  if lo.p_auto_path <> "scan" then
    failwith "E30: unselective point did not flip to the scan";
  if journaled then begin
    List.iter
      (fun p ->
        if p.p_calib > p.p_index + 2 then
          failwith
            (Printf.sprintf
               "E30: calibrated (%d reads) worse than always-index (%d) at %s"
               p.p_calib p.p_index p.p_label);
        if p.p_calib > p.p_scan + 2 then
          failwith
            (Printf.sprintf
               "E30: calibrated (%d reads) worse than always-scan (%d) at %s"
               p.p_calib p.p_scan p.p_label))
      results;
    if lo.p_index < 2 * lo.p_calib then
      failwith
        (Printf.sprintf
           "E30: always-index (%d) not >=2x calibrated (%d) at the \
            unselective end" lo.p_index lo.p_calib);
    let sub = find "name=*ilo*" in
    if not (2 * sub.p_calib <= sub.p_auto && sub.p_calib_path = "index") then
      failwith
        (Printf.sprintf
           "E30: calibration did not flip the substring regime (auto %d, \
            calib %d via %s)" sub.p_auto sub.p_calib sub.p_calib_path)
  end

let all : (string * (unit -> unit)) list =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
    ("e22", e22); ("e23", e23); ("e25", e25); ("e26", e26); ("e27", e27);
    ("e30", e30);
  ]
