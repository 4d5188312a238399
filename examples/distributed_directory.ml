(* Distributed directories (Sections 3.3 / 8.3): the namespace is split
   into DNS-style domains, each served by its own server; a coordinator
   ships atomic sub-queries to the owning servers and combines the
   results locally.  (Primary/secondary replication of the domains,
   Section 3.3, is experiment E21's: bench/ablation/replicated.ml.)

   Run with:  dune exec examples/distributed_directory.exe *)

open Ndq

let () =
  (* One forest, three domains: two roots, plus a subdomain delegated out
     of root0 (the deepest level-2 entry, DNS-style). *)
  let dir =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 3_000; roots = 2; seed = 23 }
      ()
  in
  let delegated =
    Instance.fold
      (fun best e ->
        let d = Entry.dn e in
        if Dn.depth d = 2 && best = None then Some d else best)
      None dir
    |> Option.get
  in
  let domains = [ Dn.of_string "dc=root0"; Dn.of_string "dc=root1"; delegated ] in
  let net = Dist.deploy ~block:32 dir domains in
  Fmt.pr "Deployed %d entries across %d servers:@." (Instance.size dir)
    (List.length net.Dist.servers);
  List.iter
    (fun (s : Dist.server) ->
      Fmt.pr "  %-40s %5d entries@." s.Dist.name (Instance.size s.Dist.instance))
    net.Dist.servers;

  let run title home qtext =
    let coord = Dist.coordinator net home in
    let q = Qparser.of_string qtext in
    let result = Dist.eval_entries coord q in
    Fmt.pr "@.== %s@.   posed at the %s server: %s@." title
      (Dn.to_string home) qtext;
    Fmt.pr "   %d entries; coordinator io: %a@." (List.length result)
      Io_stats.pp coord.Dist.stats
  in

  run "a query local to the home domain" (Dn.of_string "dc=root1")
    "(dc=root1 ? sub ? objectClass=person)";

  run "the same shape, posed at the *other* server (all results shipped)"
    (Dn.of_string "dc=root0") "(dc=root1 ? sub ? objectClass=person)";

  run "a cross-server union" (Dn.of_string "dc=root0")
    "(| (dc=root0 ? sub ? surName=milo) (dc=root1 ? sub ? surName=milo))";

  run "hierarchy operators over shipped operands" (Dn.of_string "dc=root0")
    "(a ( ? sub ? objectClass=person) ( ? sub ? objectClass=organizationalUnit))";

  (* Sanity: distributed answers match centralized evaluation. *)
  let coord = Dist.coordinator net (Dn.of_string "dc=root0") in
  let q =
    Qparser.of_string
      "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? priority>=5))"
  in
  let distributed = Dist.eval_entries coord q in
  let centralized = Semantics.eval dir q in
  Fmt.pr
    "@.centralized vs distributed on a children query: %d vs %d entries, equal \
     = %b@."
    (List.length centralized) (List.length distributed)
    (List.length centralized = List.length distributed
    && List.for_all2 Entry.equal_dn centralized distributed)
