(* Bechamel micro-benchmarks: wall-clock cost of each operator family at a
   fixed input size (the per-operator companion of the I/O experiments). *)

module Dir = Instance
(* Bechamel's Toolkit shadows the directory [Instance] module below. *)

(* This compilation unit is itself named [Bechamel], which shadows the
   library's umbrella module; reach the library through its alias module
   instead. *)
open Bechamel__
open Toolkit

let size = 4_000

let setup () =
  let stats = Io_stats.create () in
  let pager = Pager.create ~block:64 stats in
  let instance = Dif_gen.karily ~fanout:4 ~size () in
  let l1, l2 = Util.even_odd pager instance in
  let ref_instance =
    Dif_gen.generate
      ~params:{ Dif_gen.default_params with size; seed = 17; ref_fanout = 2 }
      ()
  in
  let all = Ext_list.of_list_resident pager (Dir.to_list ref_instance) in
  let engine = Engine.create ~block:64 instance in
  let small_pager = Pager.create ~block:64 (Io_stats.create ()) in
  let s1, s2 = Util.even_odd small_pager (Dif_gen.karily ~fanout:4 ~size:512 ()) in
  (l1, l2, all, engine, s1, s2)

let tests () =
  let l1, l2, all, engine, s1, s2 = setup () in
  let max_count =
    Qparser.parse_agg_filter_text "count($2) = max(count($2))"
  in
  let engine_query =
    Qparser.of_string
      "(g (d (dc=kroot ? sub ? tag=even) (dc=kroot ? sub ? tag=odd) count($2) \
       > 0) min(priority) >= 0)"
  in
  let qos_engine = Engine.create ~block:64 (Qos.generate ()) in
  let tops_engine = Engine.create ~block:64 (Tops.generate ()) in
  let rng = Prng.create 3 in
  [
    Test.make ~name:"bool/and" (Staged.stage (fun () -> Bool_ops.and_ l1 l2));
    Test.make ~name:"bool/or" (Staged.stage (fun () -> Bool_ops.or_ l1 l2));
    Test.make ~name:"bool/diff" (Staged.stage (fun () -> Bool_ops.diff l1 l2));
    Test.make ~name:"hspc/children"
      (Staged.stage (fun () -> Hs_agg.compute_hier Ast.C l1 l2));
    Test.make ~name:"hsad/descendants"
      (Staged.stage (fun () -> Hs_agg.compute_hier Ast.D l1 l2));
    Test.make ~name:"hsadc/descendants_c"
      (Staged.stage (fun () -> Hs_agg.compute_hier3 Ast.Dc l1 l2 l2));
    Test.make ~name:"hsagg/max-count"
      (Staged.stage (fun () -> Hs_agg.compute_hier Ast.D l1 l2 ~agg:max_count));
    Test.make ~name:"simple-agg/min=min(min)"
      (Staged.stage (fun () ->
           Simple_agg.compute
             (Qparser.parse_agg_filter_text
                "min(priority) = min(min(priority))")
             l1));
    Test.make ~name:"er/dv" (Staged.stage (fun () -> Er.compute_dv all all "ref"));
    Test.make ~name:"er/vd" (Staged.stage (fun () -> Er.compute_vd all all "ref"));
    Test.make ~name:"naive/descendants-512"
      (Staged.stage (fun () -> Naive.compute_hier Ast.D s1 s2));
    Test.make ~name:"engine/l2-tree"
      (Staged.stage (fun () -> Engine.eval engine engine_query));
    Test.make ~name:"qos/decide"
      (Staged.stage (fun () ->
           Qos.decide qos_engine ~pkt:(Qos.random_packet rng)
             ~clock:(Qos.random_clock rng)));
    Test.make ~name:"tops/resolve"
      (Staged.stage (fun () ->
           Tops.resolve tops_engine
             ~uid:(Printf.sprintf "user%d" (Prng.int rng 50))
             ~time:(Prng.int rng 2400)
             ~day:(1 + Prng.int rng 7)));
  ]

let run () =
  Util.header ~id:"B1-B14 (bechamel)"
    ~claim:
      (Printf.sprintf
         "wall-clock per operation, inputs of %d entries (monotonic clock, \
          OLS on run count)"
         size);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | Some [] | None -> nan
          in
          Fmt.pr "%-28s %12.1f ns/op  (%8.3f ms/op)@." name ns (ns /. 1e6))
        analyzed)
    (List.map (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ]) (tests ()))
