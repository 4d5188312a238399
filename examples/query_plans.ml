(* Query plans: estimated vs measured cost per operator (Explain), and
   the boolean-fusion rewrite (Fuse) that collapses same-base boolean
   subtrees into single scans.

   Run with:  dune exec examples/query_plans.exe *)

open Ndq

let () =
  let dir =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size = 5_000; seed = 77; roots = 1 }
      ()
  in
  let eng = Engine.create ~block:64 dir in
  Fmt.pr "directory: %d entries@." (Instance.size dir);

  let q =
    Qparser.of_string
      "(a (& (dc=root0 ? sub ? tag=red) (dc=root0 ? sub ? priority>=5)) (g \
       (dc=root0 ? sub ? objectClass=organizationalUnit) count($$) >= 1))"
  in
  Fmt.pr "@.query:@.%a@." Qprinter.pp_pretty q;

  (* Estimate before running... *)
  Fmt.pr "@.estimated plan (no execution):@.%a@." Plan.pp_node
    (Explain.estimate eng q);

  (* ...then profile: per-operator actual rows and I/O. *)
  Engine.reset_stats eng;
  let result, plan = Explain.profile eng q in
  Fmt.pr "@.profiled plan:@.%a@." Plan.pp_node plan;
  Fmt.pr "result: %d entries, attributed io: %d@." (Ext_list.length result)
    (Plan.total_actual_io plan);

  (* The fusion rewrite: the (& ...) subtree shares base and scope, so it
     becomes one LDAP-style fused scan. *)
  let fq =
    Qparser.of_string
      "(- (& (dc=root0 ? sub ? tag=red) (dc=root0 ? sub ? priority>=5)) \
       (dc=root0 ? sub ? weight<300))"
  in
  Fmt.pr "@.fusable query: %s@." (Qprinter.to_string fq);
  let plan = Fuse.plan_of fq in
  Fmt.pr "fused plan (%d scans instead of %d):@.%a@." (Fuse.scan_count plan)
    (List.length (Ast.atomic_subqueries fq))
    Fuse.pp_plan plan;
  Engine.reset_stats eng;
  let plain = Engine.eval_entries eng fq in
  let io_plain = Io_stats.total_io (Engine.stats eng) in
  Engine.reset_stats eng;
  let fused = Fuse.eval_entries eng fq in
  let io_fused = Io_stats.total_io (Engine.stats eng) in
  Fmt.pr "plain io = %d, fused io = %d, same %d results = %b@." io_plain
    io_fused (List.length plain)
    (List.length plain = List.length fused
    && List.for_all2 Entry.equal_dn plain fused)
