(* Tests for the ablation-only modules: the grace-hash reference join
   (Er_hash) agrees with the paper's sort-merge one, as a list and as a
   streaming edge, and primary/secondary replication (Replicated) keeps
   its lag, routing and failover semantics. *)

let dn = Dn.of_string

(* --- Grace-hash reference joins (Section 7.2 ablation) -------------------- *)

let prop_er_hash_matches_oracle (instance, q) =
  (* only eref nodes differ; rewrite evaluation to use the hash variant
     by comparing on whole eref queries drawn from the generator *)
  match q with
  | Ast.Eref (op, q1, q2, attr, agg) ->
      let eng = Testkit.engine instance in
      let l1 = Engine.eval eng q1 and l2 = Engine.eval eng q2 in
      let merge = Ext_list.to_list (Er.compute ?agg op l1 l2 attr) in
      let hash = Ext_list.to_list (Er_hash.compute ?agg op l1 l2 attr) in
      List.length merge = List.length hash
      && List.for_all2 Entry.equal_dn merge hash
  | _ -> true

let rec sorted = function
  | a :: (b :: _ as tl) -> Entry.compare_rev a b < 0 && sorted tl
  | _ -> true

(* The streaming hash joins produce the sorted result of their
   materialized counterparts, writing no more pages. *)
let test_hash_edges () =
  let instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 150; seed = 7; ref_fanout = 2 }
      ()
  in
  let stats = Io_stats.create () in
  let pager = Pager.create ~block:8 stats in
  let part k =
    Instance.fold
      (fun acc e ->
        match Entry.int_values e "id" with
        | id :: _ when id mod 3 = k -> e :: acc
        | _ -> acc)
      [] instance
    |> List.rev
    |> Ext_list.of_list_resident pager
  in
  let l1 = part 0 and l2 = part 1 in
  let s = Ext_list.Source.of_list in
  let edge name ~list_op ~src_op =
    Io_stats.reset stats;
    let expected = Ext_list.to_list (list_op ()) in
    let list_writes = stats.Io_stats.page_writes in
    Io_stats.reset stats;
    let got = Array.to_list (Ext_list.Source.drain (src_op ())) in
    let src_writes = stats.Io_stats.page_writes in
    Testkit.check_entries (name ^ ": streaming = materialized") expected got;
    Alcotest.(check bool) (name ^ ": canonical order") true (sorted got);
    Alcotest.(check bool)
      (Printf.sprintf "%s: streaming writes (%d) <= materialized (%d)" name src_writes
         list_writes)
      true (src_writes <= list_writes)
  in
  edge "eref dv (hash)"
    ~list_op:(fun () -> Er_hash.compute_dv l1 l2 "ref")
    ~src_op:(fun () -> Er_hash.compute_dv_src pager (s l1) (s l2) "ref");
  edge "eref vd (hash)"
    ~list_op:(fun () -> Er_hash.compute_vd l1 l2 "ref")
    ~src_op:(fun () -> Er_hash.compute_vd_src pager (s l1) (s l2) "ref")

(* --- Replication (Section 3.3, footnote 4) ------------------------------- *)

let instance seed =
  Dif_gen.generate
    ~params:{ Dif_gen.default_params with size = 200; seed; roots = 2; depth_bias = 0.4 }
    ()

(* Domains: the two forest roots plus one delegated subdomain inside
   root0 (a deeper entry, picked deterministically). *)
let domains_of i =
  let deep =
    Instance.fold
      (fun best e ->
        let d = Entry.dn e in
        if
          Dn.depth d = 2
          && Dn.is_ancestor_of ~ancestor:(dn "dc=root0") ~descendant:d
        then match best with None -> Some d | some -> some
        else best)
      None i
  in
  [ dn "dc=root0"; dn "dc=root1" ]
  @ (match deep with Some d -> [ d ] | None -> [])

let repl_net seed =
  let i = instance seed in
  (Replicated.deploy ~secondaries:2 i (domains_of i), i)

let fresh_entry uid =
  Entry.make
    (Dn.of_string (Printf.sprintf "id=%d, dc=root0" uid))
    [ ("id", Value.Int uid); ("surName", Value.Str "newcomer");
      (Schema.object_class, Value.Str "person") ]

let ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Directory.pp_error e

let count_newcomers eng =
  List.length
    (Engine.eval_entries eng (Qparser.of_string "( ? sub ? surName=newcomer)"))

let test_replication_lag_and_catchup () =
  let net, _ = repl_net 31 in
  ok (Replicated.update net (Replicated.Add (fresh_entry 900001)));
  ok (Replicated.update net (Replicated.Add (fresh_entry 900002)));
  (* visible at the primary immediately *)
  let primary_eng = Replicated.engine net (dn "dc=root0") in
  Alcotest.(check int) "primary sees both" 2 (count_newcomers primary_eng);
  (* secondaries lag until replication runs *)
  let sec_eng = Replicated.engine ~prefer:Replicated.Any_secondary net (dn "dc=root0") in
  Alcotest.(check int) "secondary stale" 0 (count_newcomers sec_eng);
  Alcotest.(check int) "lag = 2" 2 (Replicated.max_lag net);
  Alcotest.(check bool) "inconsistent while lagging" false
    (Replicated.consistent net);
  let msgs_before = net.Replicated.stats.Io_stats.messages in
  Replicated.replicate net;
  (* 2 updates x 2 secondaries of the root0 group *)
  Alcotest.(check int) "replication messages" 4
    (net.Replicated.stats.Io_stats.messages - msgs_before);
  Alcotest.(check int) "lag cleared" 0 (Replicated.max_lag net);
  Alcotest.(check bool) "consistent after replicate" true
    (Replicated.consistent net);
  let sec_eng = Replicated.engine ~prefer:Replicated.Any_secondary net (dn "dc=root0") in
  Alcotest.(check int) "secondary caught up" 2 (count_newcomers sec_eng)

let test_update_routing_and_validation () =
  let net, _ = repl_net 32 in
  (* updates go to the owning group: a root1 entry does not appear in
     root0's partition *)
  let e =
    Entry.make
      (Dn.of_string "id=900005, dc=root1")
      [ ("id", Value.Int 900005); ("surName", Value.Str "newcomer");
        (Schema.object_class, Value.Str "person") ]
  in
  ok (Replicated.update net (Replicated.Add e));
  let g0 = Replicated.group_of net (dn "dc=root0") in
  let g1 = Replicated.group_of net (dn "dc=root1") in
  Alcotest.(check int) "root0 log untouched" 0 g0.Replicated.log_length;
  Alcotest.(check int) "root1 logged" 1 g1.Replicated.log_length;
  (* schema violations are rejected at the primary and never logged *)
  (match
     Replicated.update net
       (Replicated.Add
          (Entry.make
             (Dn.of_string "id=900009, dc=root1")
             [ ("id", Value.Int 900009); ("ghost", Value.Str "boo");
               (Schema.object_class, Value.Str "person") ]))
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "invalid add must be rejected");
  Alcotest.(check int) "rejected update not logged" 1 g1.Replicated.log_length;
  (* modify and delete route the same way *)
  ok
    (Replicated.update net
       (Replicated.Modify
          (Entry.dn e, [ Directory.Add_value ("priority", Value.Int 4) ])));
  ok (Replicated.update net (Replicated.Delete (Entry.dn e)));
  Replicated.replicate net;
  Alcotest.(check bool) "consistent at the end" true (Replicated.consistent net)

let test_failover_loses_unreplicated_suffix () =
  let net, _ = repl_net 33 in
  ok (Replicated.update net (Replicated.Add (fresh_entry 900011)));
  Replicated.replicate net;
  ok (Replicated.update net (Replicated.Add (fresh_entry 900012)));
  ok (Replicated.update net (Replicated.Add (fresh_entry 900013)));
  (* primary dies before replicating the last two updates *)
  let lost = Replicated.fail_primary net (dn "dc=root0") in
  Alcotest.(check int) "two updates lost" 2 lost;
  let eng = Replicated.engine net (dn "dc=root0") in
  Alcotest.(check int) "promoted replica has only the replicated one" 1
    (count_newcomers eng);
  (* the group keeps serving reads and updates after failover *)
  ok (Replicated.update net (Replicated.Add (fresh_entry 900014)));
  Replicated.replicate net;
  Alcotest.(check bool) "consistent after failover + new update" true
    (Replicated.consistent net);
  (* exhausting secondaries raises *)
  let _ = Replicated.fail_primary net (dn "dc=root0") in
  (match Replicated.fail_primary net (dn "dc=root0") with
  | exception Replicated.No_secondary _ -> ()
  | _ -> Alcotest.fail "expected No_secondary")

let () =
  Alcotest.run "ablation"
    [
      ( "differential",
        [
          Testkit.qtest ~count:200 "hash eref = sort-merge eref"
            Testkit.gen_instance_and_query prop_er_hash_matches_oracle;
        ] );
      ("edges", [ Alcotest.test_case "hash reference joins" `Quick test_hash_edges ]);
      ( "replication",
        [
          Alcotest.test_case "lag and catch-up" `Quick
            test_replication_lag_and_catchup;
          Alcotest.test_case "routing and validation" `Quick
            test_update_routing_and_validation;
          Alcotest.test_case "failover semantics" `Quick
            test_failover_loses_unreplicated_suffix;
        ] );
    ]
