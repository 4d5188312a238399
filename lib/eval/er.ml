(* ComputeERAggVD / ComputeERAggDV — the embedded-reference operators
   valueDN (vd) and DNvalue (dv) with optional aggregate selection
   (Section 7.2, Fig 3).

   Sort-merge join/semijoin:

   dv (L1 L2 a):  candidates are L1 entries whose dn is referenced by the
   [a] attribute of some L2 entry.  Phase 1 explodes L2 into a pair list
   LP of (referenced-dn key, referencing entry) — at most |L2| * m pairs —
   and sorts it by the referenced key.  Phase 2 merges LP against L1,
   maintaining the witness-dependent aggregate states per candidate.
   Phase 3 applies the aggregate selection filter (shared with Hs_agg).

   vd (L1 L2 a):  symmetric — the pair list comes from L1's own [a]
   values, is sorted by referenced key and merged against L2; the witness
   contributions are then routed back to L1 order by a second sort on the
   candidate's ordinal.

   The cores consume {!Ext_list.Source} streams.  The pair lists and
   their sorts are always materialized — they are sort boundaries,
   exception (b) of Thm 8.3 — and vd's L1 is consumed twice (phases 1
   and 3), so a live L1 is forced resident first (exception (c)).  The
   streaming entry points pipeline the annotations into phase 3; the
   list-level ones write the annotated copy and the output, keeping the
   classic bill: O(|L1|/B + (|L2| m / B) log (|L2| m / B)) for dv
   (Theorem 7.1) and symmetrically for vd. *)

let annot_of entry states =
  { Hs_stack.a_entry = entry; a_above = states; a_below = states }

let finish ?agg tracked annots pager =
  Hs_agg.finish tracked Hs_agg.Witness_above agg annots pager

(* Explode embedded references into a pair list sorted by referenced
   key: [proj] says what rides along with each key (the referencing
   entry for dv, the candidate ordinal for vd).  The keys are the ones
   cached on the entry, shared, not rebuilt.  Always materialized — a
   sort boundary. *)
let sorted_pairs pager s attr proj =
  let w = Ext_list.Writer.make pager in
  let ord = ref (-1) in
  Ext_list.Source.iter
    (fun r ->
      incr ord;
      Entry.ref_keys r attr (fun k -> Ext_list.Writer.push w (k, proj r !ord)))
    s;
  Ext_sort.sort
    (fun (k1, _) (k2, _) -> String.compare k1 k2)
    (Ext_list.Writer.close w)

(* --- dv ----------------------------------------------------------------- *)

(* Phases 1-2: annotations in L1 order, charging input pulls, pair-list
   writes and the sort. *)
let dv_core pager tracked s1 s2 attr =
  let pairs = sorted_pairs pager s2 attr (fun r2 _ -> r2) in
  (* Phase 2: merge the sorted pair list against L1 in key order. *)
  let annots = Array.make (Ext_list.Source.length s1) None in
  let cp = Ext_list.Cursor.make pairs in
  let ord = ref (-1) in
  Ext_list.Source.iter
    (fun r1 ->
      incr ord;
      let key = Entry.key r1 in
      let states = ref (Hs_stack.zeros tracked) in
      let rec absorb () =
        match Ext_list.Cursor.peek cp with
        | Some (k, r2) ->
            let c = String.compare k key in
            if c < 0 then begin
              (* reference to a dn not in L1: skip *)
              Ext_list.Cursor.advance cp;
              absorb ()
            end
            else if c = 0 then begin
              Ext_list.Cursor.advance cp;
              states :=
                Hs_stack.combine_into !states (Hs_stack.unit_of tracked r2);
              absorb ()
            end
        | None -> ()
      in
      absorb ();
      annots.(!ord) <- Some (annot_of r1 !states))
    s1;
  Array.map Option.get annots

let compute_dv ?agg l1 l2 attr =
  let pager = Ext_list.pager l1 in
  let f = Option.value ~default:Ast.has_witness agg in
  let tracked = Hs_stack.tracked_of_filter f in
  let annots =
    dv_core pager tracked (Ext_list.Source.of_list l1)
      (Ext_list.Source.of_list l2) attr
  in
  (* The annotated copy of L1 is written once. *)
  Pager.charge_scan_write pager (Array.length annots);
  finish ?agg tracked annots pager

let compute_dv_src ?agg pager s1 s2 attr =
  let f = Option.value ~default:Ast.has_witness agg in
  let tracked = Hs_stack.tracked_of_filter f in
  let annots = dv_core pager tracked s1 s2 attr in
  Hs_agg.finish_src tracked Hs_agg.Witness_above agg annots pager

(* --- vd ----------------------------------------------------------------- *)

(* Phases 1-3 over a resident L1 (it is scanned twice: reference
   explosion and the final lockstep) and a streamed L2. *)
let vd_core pager tracked l1 s2 attr =
  (* Phase 1: explode L1's embedded references, tagged with the
     candidate's position so contributions can be routed back. *)
  let pairs =
    sorted_pairs pager (Ext_list.Source.of_list l1) attr (fun _ ord -> ord)
  in
  (* Phase 2: merge against L2 in key order, emitting per-candidate
     witness contributions. *)
  let contribs =
    let w = Ext_list.Writer.make pager in
    Ext_list.iter
      (fun (k, ord) ->
        let rec seek () =
          match Ext_list.Source.peek s2 with
          | Some r2 ->
              let c = String.compare (Entry.key r2) k in
              if c < 0 then begin
                Ext_list.Source.advance s2;
                seek ()
              end
              else if c = 0 then Ext_list.Writer.push w (ord, r2)
          | None -> ()
        in
        seek ())
      pairs;
    Ext_list.Writer.close w
  in
  (* Route contributions back to candidate order. *)
  let contribs =
    Ext_sort.sort (fun (o1, _) (o2, _) -> Int.compare o1 o2) contribs
  in
  (* Phase 3: scan L1 and the contributions in lockstep. *)
  let annots = Array.make (Ext_list.length l1) None in
  let cc = Ext_list.Cursor.make contribs in
  let ord = ref (-1) in
  Ext_list.iter
    (fun r1 ->
      incr ord;
      let states = ref (Hs_stack.zeros tracked) in
      let rec absorb () =
        match Ext_list.Cursor.peek cc with
        | Some (o, r2) when o = !ord ->
            Ext_list.Cursor.advance cc;
            states := Hs_stack.combine_into !states (Hs_stack.unit_of tracked r2);
            absorb ()
        | Some _ | None -> ()
      in
      absorb ();
      annots.(!ord) <- Some (annot_of r1 !states))
    l1;
  Array.map Option.get annots

let compute_vd ?agg l1 l2 attr =
  let pager = Ext_list.pager l1 in
  let f = Option.value ~default:Ast.has_witness agg in
  let tracked = Hs_stack.tracked_of_filter f in
  let annots = vd_core pager tracked l1 (Ext_list.Source.of_list l2) attr in
  Pager.charge_scan_write pager (Array.length annots);
  finish ?agg tracked annots pager

let compute_vd_src ?agg pager s1 s2 attr =
  let f = Option.value ~default:Ast.has_witness agg in
  let tracked = Hs_stack.tracked_of_filter f in
  (* L1 is consumed twice: force a live stream resident first. *)
  let l1 = Ext_list.Source.force pager s1 in
  let annots = vd_core pager tracked l1 s2 attr in
  Hs_agg.finish_src tracked Hs_agg.Witness_above agg annots pager

let compute ?agg op l1 l2 attr =
  match op with
  | Ast.Vd -> compute_vd ?agg l1 l2 attr
  | Ast.Dv -> compute_dv ?agg l1 l2 attr

let compute_src ?agg pager op s1 s2 attr =
  match op with
  | Ast.Vd -> compute_vd_src ?agg pager s1 s2 attr
  | Ast.Dv -> compute_dv_src ?agg pager s1 s2 attr
