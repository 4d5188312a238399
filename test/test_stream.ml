(* Tests for the streaming executor (Theorem 8.3): a query tree
   evaluates as one fused pipeline, materializing only the root result,
   sort boundaries and double-consumed operands.

   Covered here:
   - Source accounting: pulls from a resident list are charged like a
     scan, live buffers pull free, [force] only copies touched streams;
   - every streaming operator edge produces the canonically sorted
     result of its materialized counterpart;
   - differential: streaming = materialized = reference semantics on
     random instances and query trees (including aggregate filters
     with double-consumed operands);
   - streaming never writes more pages than materialized evaluation;
   - the streaming working set (max resident pages) does not grow with
     the instance size;
   - distributed evaluation returns identical results in both modes. *)

open Testkit

module Src = Ext_list.Source

let fresh_pager () =
  let stats = Io_stats.create () in
  (stats, Pager.create ~block:8 stats)

(* --- Source accounting --------------------------------------------------- *)

let test_source_accounting () =
  let stats, pager = fresh_pager () in
  let backing = Ext_list.of_list_resident pager (List.init 20 Fun.id) in
  (match Src.peek (Src.of_list backing) with
  | Some 0 -> ()
  | _ -> Alcotest.fail "peek of first record");
  (* an untouched list-backed source unwraps for free *)
  Io_stats.reset stats;
  let s = Src.of_list backing in
  ignore (Ext_list.length (Src.force pager s));
  Alcotest.(check int) "untouched force reads nothing" 0 stats.Io_stats.page_reads;
  Alcotest.(check int) "untouched force writes nothing" 0
    stats.Io_stats.page_writes;
  (* draining charges the cursor reads of a scan, and nothing else *)
  Io_stats.reset stats;
  let drained = Src.drain (Src.of_list backing) in
  Alcotest.(check int) "drained all records" 20 (Array.length drained);
  Alcotest.(check int) "drain charges one read per page" 3
    stats.Io_stats.page_reads;
  Alcotest.(check int) "drain writes nothing" 0 stats.Io_stats.page_writes;
  (* live operator output pulls free; only materializing is charged *)
  Io_stats.reset stats;
  let live = Src.of_array (Array.init 20 Fun.id) in
  Alcotest.(check int) "live length" 20 (Src.length live);
  let out = Ext_list.Source.materialize pager live in
  Alcotest.(check int) "live pulls are free" 0 stats.Io_stats.page_reads;
  Alcotest.(check int) "materialize charges the output writes" 3
    stats.Io_stats.page_writes;
  Alcotest.(check int) "materialized length" 20 (Ext_list.length out);
  (* a stream already pulled from must be copied by [force] *)
  Io_stats.reset stats;
  let s = Src.of_list backing in
  ignore (Src.next s);
  let rest = Src.force pager s in
  Alcotest.(check int) "touched force keeps the remainder" 19
    (Ext_list.length rest);
  Alcotest.(check bool) "touched force writes a copy" true
    (stats.Io_stats.page_writes > 0)

(* --- Every streaming operator edge --------------------------------------- *)

let rec sorted = function
  | a :: (b :: _ as tl) -> Entry.compare_rev a b < 0 && sorted tl
  | _ -> true

(* [list_op] and [src_op] are the same operator in its two dresses; the
   streaming edge must drain to the materialized result, in canonical
   order, without ever writing more pages. *)
let check_edge stats name ~list_op ~src_op =
  Io_stats.reset stats;
  let expected = Ext_list.to_list (list_op ()) in
  let list_writes = stats.Io_stats.page_writes in
  Io_stats.reset stats;
  let got = Array.to_list (Src.drain (src_op ())) in
  let src_writes = stats.Io_stats.page_writes in
  check_entries (name ^ ": streaming = materialized") expected got;
  Alcotest.(check bool) (name ^ ": canonical order") true (sorted got);
  Alcotest.(check bool)
    (Printf.sprintf "%s: streaming writes (%d) <= materialized (%d)" name
       src_writes list_writes)
    true
    (src_writes <= list_writes)

let esas_filter =
  (* count($2) >= max(count($2)): mentions an entry-set aggregate, so
     the annotated list must stay materialized even under streaming. *)
  Ast.
    {
      lhs = A_entry Ea_count_witnesses;
      op = Ge;
      rhs = A_entry_set (Esa_agg (Max, Ea_count_witnesses));
    }

let global_gsel_filter =
  (* min(id) <= count($1): needs the global first scan. *)
  Ast.
    {
      lhs = A_entry (Ea_agg (Min, Self "id"));
      op = Le;
      rhs = A_entry_set Esa_count_entries;
    }

let local_gsel_filter =
  Ast.{ lhs = A_entry (Ea_agg (Min, Self "id")); op = Ge; rhs = A_const 10 }

let test_operator_edges () =
  let instance =
    Dif_gen.generate
      ~params:
        { Dif_gen.default_params with size = 150; seed = 7; ref_fanout = 2 }
      ()
  in
  let stats, pager = fresh_pager () in
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
  let l1 = part 0 and l2 = part 1 and l3 = part 2 in
  let s = Src.of_list in
  let edge = check_edge stats in
  edge "and"
    ~list_op:(fun () -> Bool_ops.and_ l1 l2)
    ~src_op:(fun () -> Bool_ops.and_src pager (s l1) (s l2));
  edge "or"
    ~list_op:(fun () -> Bool_ops.or_ l1 l2)
    ~src_op:(fun () -> Bool_ops.or_src pager (s l1) (s l2));
  edge "diff"
    ~list_op:(fun () -> Bool_ops.diff l1 l2)
    ~src_op:(fun () -> Bool_ops.diff_src pager (s l1) (s l2));
  edge "parents"
    ~list_op:(fun () -> Hs_agg.compute_hier Ast.P l1 l2)
    ~src_op:(fun () -> Hs_agg.compute_hier_src pager Ast.P (s l1) (s l2));
  edge "children"
    ~list_op:(fun () -> Hs_agg.compute_hier Ast.C l1 l2)
    ~src_op:(fun () -> Hs_agg.compute_hier_src pager Ast.C (s l1) (s l2));
  edge "ancestors"
    ~list_op:(fun () -> Hs_agg.compute_hier Ast.A l1 l2)
    ~src_op:(fun () -> Hs_agg.compute_hier_src pager Ast.A (s l1) (s l2));
  edge "descendants"
    ~list_op:(fun () -> Hs_agg.compute_hier Ast.D l1 l2)
    ~src_op:(fun () -> Hs_agg.compute_hier_src pager Ast.D (s l1) (s l2));
  edge "ancestors-c"
    ~list_op:(fun () -> Hs_agg.compute_hier3 Ast.Ac l1 l2 l3)
    ~src_op:(fun () -> Hs_agg.compute_hier3_src pager Ast.Ac (s l1) (s l2) (s l3));
  edge "descendants-c"
    ~list_op:(fun () -> Hs_agg.compute_hier3 Ast.Dc l1 l2 l3)
    ~src_op:(fun () -> Hs_agg.compute_hier3_src pager Ast.Dc (s l1) (s l2) (s l3));
  edge "hier with entry-set aggs"
    ~list_op:(fun () -> Hs_agg.compute_hier ~agg:esas_filter Ast.D l1 l2)
    ~src_op:(fun () ->
      Hs_agg.compute_hier_src ~agg:esas_filter pager Ast.D (s l1) (s l2));
  edge "hier3 with entry-set aggs"
    ~list_op:(fun () -> Hs_agg.compute_hier3 ~agg:esas_filter Ast.Dc l1 l2 l3)
    ~src_op:(fun () ->
      Hs_agg.compute_hier3_src ~agg:esas_filter pager Ast.Dc (s l1) (s l2)
        (s l3));
  edge "gsel (local)"
    ~list_op:(fun () -> Simple_agg.compute local_gsel_filter l1)
    ~src_op:(fun () -> Simple_agg.compute_src pager local_gsel_filter (s l1));
  edge "gsel (global, double-consumed input)"
    ~list_op:(fun () -> Simple_agg.compute global_gsel_filter l1)
    ~src_op:(fun () -> Simple_agg.compute_src pager global_gsel_filter (s l1));
  edge "eref dv"
    ~list_op:(fun () -> Er.compute_dv l1 l2 "ref")
    ~src_op:(fun () -> Er.compute_dv_src pager (s l1) (s l2) "ref");
  edge "eref vd (double-consumed L1)"
    ~list_op:(fun () -> Er.compute_vd l1 l2 "ref")
    ~src_op:(fun () -> Er.compute_vd_src pager (s l1) (s l2) "ref")

(* --- Differential: streaming = materialized = semantics ------------------ *)

let prop_modes_agree (instance, q) =
  let eval mode = Engine.eval_entries (engine ~mode instance) q in
  let streaming = eval Engine.Streaming in
  let materialized = eval Engine.Materialized in
  let expected = dns_of (oracle instance q) in
  dns_of streaming = expected && dns_of materialized = expected

let prop_streaming_writes_no_more (instance, q) =
  let writes mode =
    let e = engine ~mode instance in
    ignore (Engine.eval_entries e q);
    (Engine.stats e).Io_stats.page_writes
  in
  writes Engine.Streaming <= writes Engine.Materialized

(* --- Constant working set ------------------------------------------------ *)

let l2_query =
  "(g (d (dc=kroot ? sub ? tag=even) (& (dc=kroot ? sub ? tag=odd) (dc=kroot \
   ? sub ? priority>=1)) count($2) > 0) min(priority) >= 0)"

let test_constant_resident () =
  let q = Qparser.of_string l2_query in
  let resident size =
    let instance = Dif_gen.karily ~fanout:4 ~size () in
    let e =
      Engine.create ~block:8 ~with_attr_index:false ~mode:Engine.Streaming
        instance
    in
    let stats = Engine.stats e in
    Io_stats.reset stats;
    ignore (Engine.eval_entries e q);
    stats.Io_stats.max_resident_pages
  in
  let r500 = resident 500 in
  Alcotest.(check int) "working set constant at N=1000" r500 (resident 1000);
  Alcotest.(check int) "working set constant at N=2000" r500 (resident 2000)

(* --- Distributed evaluation ---------------------------------------------- *)

let test_dist_modes_agree () =
  let instance =
    Dif_gen.generate
      ~params:
        { Dif_gen.default_params with size = 300; seed = 11; roots = 2 }
      ()
  in
  let domains =
    match Instance.roots instance with
    | [] -> [ Dn.root ]
    | roots -> List.map Entry.dn roots
  in
  let net = Dist.deploy instance domains in
  let q = Qparser.of_string "(d ( ? sub ? priority>=0) ( ? sub ? id>=5))" in
  let run mode =
    let coord = Dist.coordinator net (List.hd domains) in
    let out = Dist.eval_entries ~mode coord q in
    (out, coord.Dist.stats.Io_stats.page_writes)
  in
  let materialized, mat_writes = run Engine.Materialized in
  let streaming, stream_writes = run Engine.Streaming in
  check_entries "distributed streaming = materialized" materialized streaming;
  check_entries "distributed = centralized semantics"
    (oracle instance q) streaming;
  Alcotest.(check bool)
    (Printf.sprintf "coordinator streaming writes (%d) <= materialized (%d)"
       stream_writes mat_writes)
    true
    (stream_writes <= mat_writes)

let () =
  Alcotest.run "stream"
    [
      ( "source",
        [ Alcotest.test_case "accounting" `Quick test_source_accounting ] );
      ( "edges",
        [ Alcotest.test_case "every operator" `Quick test_operator_edges ] );
      ( "differential",
        [
          qtest ~count:80 "streaming = materialized = semantics"
            gen_instance_and_query prop_modes_agree;
          qtest ~count:80 "streaming writes <= materialized"
            gen_instance_and_query prop_streaming_writes_no_more;
        ] );
      ( "working-set",
        [
          Alcotest.test_case "max resident constant in N" `Quick
            test_constant_resident;
        ] );
      ( "dist",
        [ Alcotest.test_case "modes agree" `Quick test_dist_modes_agree ] );
    ]
