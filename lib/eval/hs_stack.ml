(* The stack machinery shared by the hierarchical-selection algorithms
   ComputeHSPC (Fig 2), ComputeHSAD (Fig 4), ComputeHSADc (Fig 5) and
   their aggregate extensions ComputeHSAgg* (Fig 6, Section 6.4).

   Inputs are sorted by reverse-dn key, so the merged stream visits the
   forest in document order and the stack always holds a root-to-current
   ancestor chain (observations (1) and (2) the paper's correctness
   argument rests on).  Instead of plain witness counts, every frame
   carries an array of distributive aggregate states — one per
   witness-dependent entry aggregate of the selection filter — and the
   push/pop propagation of Figures 2/4/5 is performed on those states.
   Plain hierarchical selection is the special case count($2) > 0.

   I/O accounting of phase 1:
   - the merged scan charges |L1|/B + |L2|/B (+ |L3|/B) page reads via
     the input cursors;
   - the stack is a [Spill_stack] with a bounded window, charging spill
     writes and re-fetch reads exactly when the ancestor chain outgrows
     memory (the paper's "stack entries may be swapped out" remark);
   - the materialized operators write finalized annotations out as an
     annotated copy of L1, |L1|/B page writes (charged by [Hs_agg]).
     Annotations are finalized in postorder, not in L1 order, but each
     finalized record is written exactly once and the runs between
     consecutive open ancestors are already sorted, so a page-linked
     output file achieves sequential cost. *)

type mode = Pc | Ad | Adc

type frame = {
  entry : Entry.t;
  in_l1 : bool;
  in_l2 : bool;
  in_l3 : bool;
  ordinal : int;  (* position in L1; -1 when not in L1 *)
  mutable above : Agg.state array;  (* over descendant witnesses in L2 *)
  mutable below : Agg.state array;  (* over ancestor witnesses in L2 *)
}

(* An annotated L1 entry: the entry plus its witness-side aggregate
   states for both directions. *)
type annot = {
  a_entry : Entry.t;
  a_above : Agg.state array;
  a_below : Agg.state array;
}

(* --- Tracked witness-dependent aggregates ------------------------------ *)

(* The entry aggregates that depend on the witness set and must therefore
   be maintained on the stack. *)
let witness_dependent = function
  | Ast.Ea_count_witnesses -> true
  | Ast.Ea_agg (_, Ast.W2 _) -> true
  | Ast.Ea_agg (_, (Ast.Self _ | Ast.W1 _)) -> false

let collect_entry_aggs acc = function
  | Ast.A_const _ -> acc
  | Ast.A_entry ea -> if witness_dependent ea then ea :: acc else acc
  | Ast.A_entry_set esa -> (
      match esa with
      | Ast.Esa_agg (_, ea) -> if witness_dependent ea then ea :: acc else acc
      | Ast.Esa_count_entries | Ast.Esa_count_all -> acc)

let tracked_of_filter (f : Ast.agg_filter) =
  let aggs = collect_entry_aggs (collect_entry_aggs [] f.Ast.lhs) f.Ast.rhs in
  Array.of_list (List.sort_uniq Stdlib.compare aggs)

let agg_fun_of = function
  | Ast.Ea_count_witnesses -> Ast.Count
  | Ast.Ea_agg (f, _) -> f

let zeros tracked = Array.map (fun ea -> Agg.init (agg_fun_of ea)) tracked

(* Contribution of one witness [w] to each tracked aggregate. *)
let unit_of tracked w =
  Array.map
    (fun ea ->
      match ea with
      | Ast.Ea_count_witnesses -> Agg.add_int (Agg.init Ast.Count) 0
      | Ast.Ea_agg (f, Ast.W2 a) ->
          let st = Agg.init f in
          List.fold_left
            (fun st v ->
              match (f, v) with
              | Ast.Count, _ -> Agg.add_int st 0
              | _, Value.Int i -> Agg.add_int st i
              | _, (Value.Str _ | Value.Dn _) -> st)
            st (Entry.values w a)
      | Ast.Ea_agg (_, (Ast.Self _ | Ast.W1 _)) -> assert false)
    tracked

let combine_into dst src = Array.mapi (fun i s -> Agg.combine s src.(i)) dst

(* --- Merged input stream ----------------------------------------------- *)

let live c = not (Ext_list.Source.at_end c)
let head_key c = Entry.key (Ext_list.Source.head c)

(* The lesser of [k] and the head key of [c], when [c] is live
   ([alive]). *)
let least alive c k =
  if alive then
    let h = head_key c in
    if String.compare h k < 0 then h else k
  else k

let at alive c k = alive && String.equal (head_key c) k

(* Stream the union of up to three sorted sources in key order,
   coalescing entries present in several inputs into one labelled
   frame: [more ()] says whether a frame is left, [next ()] makes it.
   The heads are compared in place.  Each input charges whatever its
   pulls charge: scan reads for a resident list, nothing for live
   operator output.  A frame starts with the sweep's shared [zero]
   states. *)
let make_merge zero c1 c2 c3 =
  let ordinal = ref (-1) in
  (* without a third input, [c3] is never live and never read *)
  let has3, c3 = match c3 with Some c -> (true, c) | None -> (false, c1) in
  let more () = live c1 || live c2 || (has3 && live c3) in
  let next () =
    let a1 = live c1 and a2 = live c2 and a3 = has3 && live c3 in
    let k = if a1 then head_key c1 else if a2 then head_key c2 else head_key c3 in
    let k = least a3 c3 (least a2 c2 k) in
    let in_l1 = at a1 c1 k and in_l2 = at a2 c2 k and in_l3 = at a3 c3 k in
    let entry = Ext_list.Source.head (if in_l1 then c1 else if in_l2 then c2 else c3) in
    if in_l1 then begin
      Ext_list.Source.advance c1;
      incr ordinal
    end;
    if in_l2 then Ext_list.Source.advance c2;
    if in_l3 then Ext_list.Source.advance c3;
    {
      entry;
      in_l1;
      in_l2;
      in_l3;
      ordinal = (if in_l1 then !ordinal else -1);
      above = zero;
      below = zero;
    }
  in
  (more, next)

(* --- Phase 1: the stack sweep ------------------------------------------ *)

(* Run the sweep over sources, handing each L1 entry to [finalize] as
   it leaves the stack.  Charges: input pulls and stack spill I/O only
   — whether the annotation stream is ever written to disk is the
   caller's decision (the streaming phase 2 pipelines it; the
   materialized one writes the annotated L1 copy).

   State arrays are never mutated in place, only replaced, so frames
   share them: every frame starts with one zero array, a descendant
   inherits its ancestor's [below] as is, and absorbing the zero states
   (the empty multiset) allocates nothing. *)
let sweep mode ?(window = 2) ~tracked ~pager s1 s2 s3 finalize =
  let zero = zeros tracked in
  let absorb dst src =
    if src == zero then dst else if dst == zero then src else combine_into dst src
  in
  let stack = Spill_stack.create ~window_pages:window pager in
  let more, next = make_merge zero s1 s2 s3 in
  (* Fig 2/4/5 push-time updates. *)
  let on_push rt rl =
    match mode with
    | Pc ->
        if Entry.key_parent_of ~parent:rt.entry ~child:rl.entry then begin
          if rl.in_l2 then rt.above <- absorb rt.above (unit_of tracked rl.entry);
          if rt.in_l2 then rl.below <- absorb rl.below (unit_of tracked rt.entry)
        end
    | Ad ->
        if rl.in_l2 then rt.above <- absorb rt.above (unit_of tracked rl.entry);
        rl.below <-
          (if rt.in_l2 then absorb rt.below (unit_of tracked rt.entry) else rt.below)
    | Adc ->
        if rl.in_l2 then rt.above <- absorb rt.above (unit_of tracked rl.entry);
        let inherited = if rt.in_l3 then zero else rt.below in
        rl.below <-
          (if rt.in_l2 then absorb inherited (unit_of tracked rt.entry) else inherited)
  in
  (* Fig 4/5 pop-time propagation of descendant-witness aggregates. *)
  let on_pop popped =
    match mode with
    | Pc -> ()
    | Ad -> (
        match Spill_stack.top stack with
        | Some rb -> rb.above <- absorb rb.above popped.above
        | None -> ())
    | Adc -> (
        match Spill_stack.top stack with
        | Some rb when not popped.in_l3 -> rb.above <- absorb rb.above popped.above
        | Some _ | None -> ())
  in
  let leave popped =
    if popped.in_l1 then
      finalize popped.ordinal popped.entry ~above:popped.above ~below:popped.below;
    on_pop popped
  in
  (* Pop until the top is an ancestor of [rl], then push it. *)
  let rec place rl =
    match Spill_stack.top stack with
    | None -> Spill_stack.push stack rl
    | Some rt ->
        if Entry.key_ancestor_of ~ancestor:rt.entry ~descendant:rl.entry then begin
          on_push rt rl;
          Spill_stack.push stack rl
        end
        else begin
          leave (Option.get (Spill_stack.pop stack));
          place rl
        end
  in
  while more () do
    place (next ())
  done;
  let rec drain () =
    match Spill_stack.pop stack with
    | None -> ()
    | Some popped ->
        leave popped;
        drain ()
  in
  drain ();
  Spill_stack.release stack
