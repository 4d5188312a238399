(* Tests for distributed evaluation (Section 8.3): domain ownership,
   result equivalence with centralized evaluation, and shipping
   accounting. *)

let dn = Dn.of_string

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

let test_ownership () =
  let i = instance 3 in
  let net = Dist.deploy i (domains_of i) in
  (* every entry lives on exactly one server, and the union is complete *)
  let total =
    List.fold_left (fun n (s : Dist.server) -> n + Instance.size s.Dist.instance)
      0 net.Dist.servers
  in
  Alcotest.(check int) "partition complete" (Instance.size i) total;
  List.iter
    (fun (s : Dist.server) ->
      Instance.iter
        (fun e ->
          let owner = Dist.find_server net (Entry.dn e) in
          Alcotest.(check string) "entry on its owner" s.Dist.name
            owner.Dist.name)
        s.Dist.instance)
    net.Dist.servers

let prop_distributed_matches_oracle (i, q) =
  let domains =
    match Instance.roots i with
    | [] -> [ Dn.root ]
    | roots -> List.map Entry.dn roots
  in
  let net = Dist.deploy i domains in
  let coord = Dist.coordinator net (List.hd domains) in
  let got = Dist.eval_entries coord q in
  let expected = Testkit.oracle i q in
  List.length got = List.length expected
  && List.for_all2 Entry.equal_dn got expected

let test_shipping_accounting () =
  let i = instance 9 in
  let net = Dist.deploy i (domains_of i) in
  let coord = Dist.coordinator net (dn "dc=root0") in
  (* a root-scoped query must touch remote servers *)
  let q = Qparser.of_string "( ? sub ? objectClass=person)" in
  ignore (Dist.eval_entries coord q);
  Alcotest.(check bool) "messages shipped" true (coord.Dist.stats.Io_stats.messages > 0);
  Alcotest.(check bool) "bytes shipped" true
    (coord.Dist.stats.Io_stats.bytes_shipped > 0);
  (* a query confined to the home domain (no delegated subdomains below
     dc=root1) ships nothing *)
  let coord1 = Dist.coordinator net (dn "dc=root1") in
  let local = Qparser.of_string "(dc=root1 ? sub ? objectClass=person)" in
  ignore (Dist.eval_entries coord1 local);
  Alcotest.(check int) "local query ships nothing" 0
    coord1.Dist.stats.Io_stats.messages

let test_remote_query_and_combine () =
  let i = instance 11 in
  let net = Dist.deploy i (domains_of i) in
  let coord = Dist.coordinator net (dn "dc=root0") in
  (* operands on different servers, combined at the coordinator *)
  let q =
    Qparser.of_string
      "(| (dc=root0 ? sub ? objectClass=person) (dc=root1 ? sub ? \
       objectClass=person))"
  in
  let got = Dist.eval_entries coord q in
  let expected = Testkit.oracle i q in
  Testkit.check_entries "cross-server union" expected got;
  Alcotest.(check bool) "remote operand shipped" true
    (coord.Dist.stats.Io_stats.messages >= 2)

let test_scope_across_delegation () =
  (* A one-scope (children) query whose base sits just above a delegated
     subdomain: the children inside the delegation live on another
     server, and must still be found. *)
  let i = instance 21 in
  let domains = domains_of i in
  match List.filter (fun d -> Dn.depth d = 2) domains with
  | [] -> ()  (* no delegation in this seed; nothing to test *)
  | delegated :: _ ->
      let net = Dist.deploy i domains in
      let parent = Option.get (Dn.parent delegated) in
      let coord = Dist.coordinator net (dn "dc=root1") in
      let q =
        Ast.Atomic
          { Ast.base = parent; scope = Ast.One;
            filter = Afilter.Present Schema.object_class }
      in
      let got = Dist.eval_entries coord q in
      let expected = Testkit.oracle i q in
      Testkit.check_entries "children across the boundary" expected got;
      Alcotest.(check bool) "the delegated root is among them" true
        (List.exists (fun e -> Dn.equal (Entry.dn e) delegated) got)

let test_deploy_validation () =
  let i = instance 1 in
  Alcotest.check_raises "no domains" (Invalid_argument "Dist.deploy: no domains")
    (fun () -> ignore (Dist.deploy i []))

let () =
  Alcotest.run "dist"
    [
      ( "deployment",
        [
          Alcotest.test_case "ownership partition" `Quick test_ownership;
          Alcotest.test_case "validation" `Quick test_deploy_validation;
        ] );
      ( "evaluation",
        [
          Testkit.qtest ~count:150 "distributed = centralized"
            Testkit.gen_instance_and_query prop_distributed_matches_oracle;
          Alcotest.test_case "shipping accounted" `Quick test_shipping_accounting;
          Alcotest.test_case "cross-server combine" `Quick
            test_remote_query_and_combine;
          Alcotest.test_case "one-scope across delegation" `Quick
            test_scope_across_delegation;
        ] );
    ]
