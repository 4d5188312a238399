(* Grace-hash evaluation of the embedded-reference operators — the
   classical alternative to the paper's sort-merge choice (Section 7.2
   picks "sort-merge based techniques for join and semijoin from
   relational databases").

   Both sides are partitioned by a hash of the referenced dn key
   (one read + one write of each), then each partition is joined with an
   in-memory hash table.  The catch — and the reason the paper prefers
   sort-merge — is that hash partitioning destroys the canonical order,
   so the matched contributions must be re-sorted by candidate position
   before the output can be emitted in reverse-dn order.  Experiment E22
   measures both costs side by side; the differential tests pin the
   results to the sort-merge implementation's.

   The cores consume {!Ext_list.Source} streams; the partitions and the
   re-order sort are always materialized (they are repartitioning /
   sort boundaries), and vd's L1 is consumed twice (reference explosion
   plus candidate retrieval), so a live L1 is forced resident.  The
   streaming entry points pipeline only the filter output. *)

let hash_key key partitions = Hashtbl.hash key mod partitions

(* dv (L1 L2 a): candidates are L1 entries referenced by some L2 entry. *)
let dv_core pager tracked partitions s1 s2 attr =
  (* Partition the exploded reference pairs of L2. *)
  let pair_parts = Array.init partitions (fun _ -> Ext_list.Writer.make pager) in
  Ext_list.Source.iter
    (fun r2 ->
      Entry.ref_keys r2 attr (fun key ->
          Ext_list.Writer.push pair_parts.(hash_key key partitions) (key, r2)))
    s2;
  let pair_parts = Array.map Ext_list.Writer.close pair_parts in
  (* Partition the candidates, remembering their original position. *)
  let n1 = Ext_list.Source.length s1 in
  let cand_parts = Array.init partitions (fun _ -> Ext_list.Writer.make pager) in
  let ord = ref (-1) in
  Ext_list.Source.iter
    (fun r1 ->
      incr ord;
      let key = Entry.key r1 in
      Ext_list.Writer.push cand_parts.(hash_key key partitions) (!ord, r1))
    s1;
  let cand_parts = Array.map Ext_list.Writer.close cand_parts in
  (* Join each partition pair with an in-memory build side. *)
  let annots = Array.make n1 None in
  let annotate ord r1 states =
    annots.(ord) <-
      Some { Hs_stack.a_entry = r1; a_above = states; a_below = states }
  in
  Array.iteri
    (fun p cands ->
      let table = Hashtbl.create 64 in
      Ext_list.iter
        (fun (key, r2) -> Hashtbl.add table key r2)
        pair_parts.(p);
      Ext_list.iter
        (fun (ord, r1) ->
          let witnesses = Hashtbl.find_all table (Entry.key r1) in
          let states =
            List.fold_left
              (fun st w -> Hs_stack.combine_into st (Hs_stack.unit_of tracked w))
              (Hs_stack.zeros tracked) witnesses
          in
          annotate ord r1 states)
        cands)
    cand_parts;
  (* Partitioning scattered the candidates: restoring the canonical
     output order costs a sort of the annotated records by position. *)
  let scattered =
    let w = Ext_list.Writer.make pager in
    Array.iteri
      (fun i a ->
        match a with Some a -> Ext_list.Writer.push w (i, a) | None -> ())
      annots;
    Ext_list.Writer.close w
  in
  ignore (Ext_sort.sort (fun (i, _) (j, _) -> Int.compare i j) scattered);
  Array.map (fun a -> Option.get a) annots

let tracked_for agg =
  let f = Option.value ~default:Ast.has_witness agg in
  Hs_stack.tracked_of_filter f

let compute_dv ?agg ?(partitions = 8) l1 l2 attr =
  let pager = Ext_list.pager l1 in
  let tracked = tracked_for agg in
  let annots =
    dv_core pager tracked partitions (Ext_list.Source.of_list l1)
      (Ext_list.Source.of_list l2) attr
  in
  Hs_agg.finish tracked Hs_agg.Witness_above agg annots pager

let compute_dv_src ?agg ?(partitions = 8) pager s1 s2 attr =
  let tracked = tracked_for agg in
  let annots = dv_core pager tracked partitions s1 s2 attr in
  Hs_agg.finish_src tracked Hs_agg.Witness_above agg annots pager

(* vd (L1 L2 a): candidates are L1 entries referencing some L2 entry.
   L1 is resident because it is consumed twice: once to explode its
   references, once to retrieve the candidates in order. *)
let vd_core pager tracked partitions l1 s2 attr =
  (* Partition L2 by its own dn key (the build side). *)
  let target_parts = Array.init partitions (fun _ -> Ext_list.Writer.make pager) in
  Ext_list.Source.iter
    (fun r2 ->
      let key = Entry.key r2 in
      Ext_list.Writer.push target_parts.(hash_key key partitions) (key, r2))
    s2;
  let target_parts = Array.map Ext_list.Writer.close target_parts in
  (* Partition L1's outgoing references. *)
  let ref_parts = Array.init partitions (fun _ -> Ext_list.Writer.make pager) in
  let ord = ref (-1) in
  Ext_list.iter
    (fun r1 ->
      incr ord;
      Entry.ref_keys r1 attr (fun key ->
          Ext_list.Writer.push ref_parts.(hash_key key partitions) (key, !ord)))
    l1;
  let ref_parts = Array.map Ext_list.Writer.close ref_parts in
  let n1 = Ext_list.length l1 in
  let states = Array.init n1 (fun _ -> Hs_stack.zeros tracked) in
  Array.iteri
    (fun p targets ->
      let table = Hashtbl.create 64 in
      Ext_list.iter (fun (key, r2) -> Hashtbl.replace table key r2) targets;
      Ext_list.iter
        (fun (key, ord) ->
          match Hashtbl.find_opt table key with
          | Some r2 ->
              states.(ord) <-
                Hs_stack.combine_into states.(ord) (Hs_stack.unit_of tracked r2)
          | None -> ())
        ref_parts.(p))
    target_parts;
  (* The contribution stream is scattered across partitions: restoring
     candidate order costs a sort. *)
  let scattered =
    let w = Ext_list.Writer.make pager in
    Array.iteri (fun i st -> Ext_list.Writer.push w (i, st)) states;
    Ext_list.Writer.close w
  in
  ignore (Ext_sort.sort (fun (i, _) (j, _) -> Int.compare i j) scattered);
  let annots =
    Array.init n1 (fun i ->
        {
          Hs_stack.a_entry = Ext_list.unsafe_get l1 i;
          a_above = states.(i);
          a_below = states.(i);
        })
  in
  (* The second pass over L1, retrieving the candidates. *)
  Pager.charge_scan_read pager n1;
  annots

let compute_vd ?agg ?(partitions = 8) l1 l2 attr =
  let pager = Ext_list.pager l1 in
  let tracked = tracked_for agg in
  let annots =
    vd_core pager tracked partitions l1 (Ext_list.Source.of_list l2) attr
  in
  Hs_agg.finish tracked Hs_agg.Witness_above agg annots pager

let compute_vd_src ?agg ?(partitions = 8) pager s1 s2 attr =
  let tracked = tracked_for agg in
  let l1 = Ext_list.Source.force pager s1 in
  let annots = vd_core pager tracked partitions l1 s2 attr in
  Hs_agg.finish_src tracked Hs_agg.Witness_above agg annots pager

let compute ?agg ?partitions op l1 l2 attr =
  match op with
  | Ast.Vd -> compute_vd ?agg ?partitions l1 l2 attr
  | Ast.Dv -> compute_dv ?agg ?partitions l1 l2 attr

let compute_src ?agg ?partitions pager op s1 s2 attr =
  match op with
  | Ast.Vd -> compute_vd_src ?agg ?partitions pager s1 s2 attr
  | Ast.Dv -> compute_dv_src ?agg ?partitions pager s1 s2 attr
