(* ComputeHSAgg — hierarchical selection with aggregate selection filters
   (Section 6.4, Fig 6), subsuming the plain operators of Section 5 as
   the special case count($2) > 0.

   Phase 1 is the stack sweep of [Hs_stack]; phase 2 evaluates the
   aggregate selection filter against each annotated L1 entry.  When the
   filter mentions entry-set aggregates (e.g. max(count($2))), an extra
   sequential pass computes the global values first — the maxabove /
   maxbelow accumulators of Fig 6 folded over the annotated list.
   Without them, each L1 entry is decided as it leaves the stack, and
   one byte per L1 entry holds the verdict until the survivors are
   emitted in L1 order. *)

type direction = Witness_above | Witness_below

let direction_of_hier = function
  | Ast.P | Ast.A -> Witness_below
  | Ast.C | Ast.D -> Witness_above

let direction_of_hier3 = function Ast.Ac -> Witness_below | Ast.Dc -> Witness_above

let mode_of_hier = function Ast.P | Ast.C -> Hs_stack.Pc | Ast.A | Ast.D -> Hs_stack.Ad

let states_of direction ~above ~below =
  match direction with Witness_above -> above | Witness_below -> below

(* Find the slot of a tracked aggregate. *)
let slot tracked ea =
  let rec find i =
    if i >= Array.length tracked then
      invalid_arg "Hs_agg: aggregate not tracked"
    else if tracked.(i) = ea then i
    else find (i + 1)
  in
  find 0

(* An entry aggregate as a function of a candidate and its states:
   witness-dependent ones read their slot of the maintained states,
   self-referencing ones are computed from the entry directly.  The
   slot is found once, not per candidate. *)
let entry_agg_value tracked = function
  | (Ast.Ea_count_witnesses | Ast.Ea_agg (_, Ast.W2 _)) as ea ->
      let i = slot tracked ea in
      fun _ states -> Agg.result states.(i)
  | Ast.Ea_agg (_, (Ast.Self _ | Ast.W1 _)) as ea ->
      fun self _ -> Agg.eval_entry_agg_over ~self ~witnesses:[] ea

(* Global (entry-set) aggregate values, one fold over the annotations. *)
let collect_globals tracked direction (f : Ast.agg_filter) annots pager =
  let esas =
    List.filter_map
      (function Ast.A_entry_set esa -> Some esa | _ -> None)
      [ f.Ast.lhs; f.Ast.rhs ]
    |> List.sort_uniq Stdlib.compare
  in
  if esas = [] then []
  else begin
    (* One extra sequential scan of the annotated list. *)
    Pager.charge_scan_read pager (Array.length annots);
    List.map
      (fun esa ->
        let v =
          match esa with
          | Ast.Esa_count_entries | Ast.Esa_count_all ->
              Some (Agg.num_of_int (Array.length annots))
          | Ast.Esa_agg (fn, ea) ->
              let value = entry_agg_value tracked ea in
              let st =
                Array.fold_left
                  (fun st (a : Hs_stack.annot) ->
                    match
                      value a.a_entry
                        (states_of direction ~above:a.a_above ~below:a.a_below)
                    with
                    | Some v -> Agg.add st v
                    | None -> st)
                  (Agg.init fn) annots
              in
              Agg.result st
        in
        (esa, v))
      esas
  end

(* The filter as a predicate on a candidate and its witness-side
   states; constants and entry-set values are resolved once. *)
let predicate tracked globals (f : Ast.agg_filter) =
  let value = function
    | Ast.A_const c ->
        let v = Some (Agg.num_of_int c) in
        fun _ _ -> v
    | Ast.A_entry ea -> entry_agg_value tracked ea
    | Ast.A_entry_set esa ->
        let v = List.assoc esa globals in
        fun _ _ -> v
  in
  let lhs = value f.Ast.lhs and rhs = value f.Ast.rhs in
  fun e states -> Agg.cmp_holds_opt f.Ast.op (lhs e states) (rhs e states)

(* Does the filter mention entry-set aggregates?  If so phase 2 needs
   two passes over the annotations, which therefore must exist as a
   resident list even under streaming (the aggregate second-scan
   exception of Thm 8.3). *)
let has_entry_set_aggs (f : Ast.agg_filter) =
  List.exists
    (function
      | Ast.A_entry_set _ -> true | Ast.A_const _ | Ast.A_entry _ -> false)
    [ f.Ast.lhs; f.Ast.rhs ]

(* The filter-and-emit pass, pure of I/O charges: the callers decide
   how the annotation scan and the survivor output are accounted. *)
let survivors tracked direction f globals annots emit =
  let holds = predicate tracked globals f in
  Array.iter
    (fun (a : Hs_stack.annot) ->
      if holds a.a_entry (states_of direction ~above:a.a_above ~below:a.a_below) then
        emit a.a_entry)
    annots

let filter_of agg = Option.value ~default:Ast.has_witness agg

(* --- Phase 2 over annotations ------------------------------------------ *)

let finish tracked direction agg annots pager =
  let f = filter_of agg in
  let globals = collect_globals tracked direction f annots pager in
  (* Final pass: read the annotated list once, write survivors. *)
  Pager.charge_scan_read pager (Array.length annots);
  let w = Ext_list.Writer.make pager in
  survivors tracked direction f globals annots (Ext_list.Writer.push w);
  Ext_list.Writer.close w

(* Streaming phase 2: when the filter has no entry-set aggregates the
   annotation stream flows straight into the filter — no annotated copy
   is ever written or re-read; survivors flow on as a live source.
   With entry-set aggregates the annotations are consumed twice, so the
   annotated copy is materialized (one write) and both passes charge
   their scan reads, exactly like the materialized operator. *)
let finish_src tracked direction agg annots pager =
  let f = filter_of agg in
  let globals =
    if has_entry_set_aggs f then begin
      Pager.charge_scan_write pager (Array.length annots);
      let globals = collect_globals tracked direction f annots pager in
      Pager.charge_scan_read pager (Array.length annots);
      globals
    end
    else []
  in
  let out = ref [] in
  survivors tracked direction f globals annots (fun e -> out := e :: !out);
  Ext_list.Source.of_array (Array.of_list (List.rev !out))

(* --- The hierarchical operators ----------------------------------------- *)

(* Phase 1 keeping every annotation, in L1 order, for a filter with
   entry-set aggregates. *)
let annotations mode ?window ~tracked ~pager s1 s2 s3 =
  let annots = Array.make (Ext_list.Source.length s1) None in
  Hs_stack.sweep mode ?window ~tracked ~pager s1 s2 s3 (fun ord a_entry ~above ~below ->
      annots.(ord) <- Some { Hs_stack.a_entry; a_above = above; a_below = below });
  (* every L1 entry leaves the stack once *)
  Array.map Option.get annots

(* Phase 1 deciding each L1 entry as it leaves the stack, for a filter
   without entry-set aggregates: the survivors, in L1 order. *)
let decided mode ?window ~tracked direction f ~pager s1 s2 s3 =
  let holds = predicate tracked [] f in
  let keep = Bytes.make (Ext_list.Source.length s1) '\000' in
  Hs_stack.sweep mode ?window ~tracked ~pager s1 s2 s3 (fun ord e ~above ~below ->
      if holds e (states_of direction ~above ~below) then Bytes.set keep ord '\001');
  let out = ref [] in
  for i = Bytes.length keep - 1 downto 0 do
    if Bytes.get keep i <> '\000' then out := Ext_list.Source.unsafe_get s1 i :: !out
  done;
  Array.of_list !out

(* The materialized operator: the annotated L1 copy is written once,
   phase 2 scans it (twice with entry-set aggregates) and writes the
   survivors. *)
let hier mode direction ?window agg l1 l2 l3 =
  let pager = Ext_list.pager l1 and f = filter_of agg in
  let tracked = Hs_stack.tracked_of_filter f in
  let src = Ext_list.Source.of_list in
  let n1 = Ext_list.length l1 in
  if has_entry_set_aggs f then begin
    let annots =
      annotations mode ?window ~tracked ~pager (src l1) (src l2) (Option.map src l3)
    in
    Pager.charge_scan_write pager n1;
    finish tracked direction agg annots pager
  end
  else begin
    let out =
      decided mode ?window ~tracked direction f ~pager (src l1) (src l2)
        (Option.map src l3)
    in
    Pager.charge_scan_write pager n1;
    Pager.charge_scan_read pager n1;
    Ext_list.materialize pager out
  end

(* The streaming operator: the annotations pipeline into phase 2. *)
let hier_src mode direction ?window agg pager s1 s2 s3 =
  let f = filter_of agg in
  let tracked = Hs_stack.tracked_of_filter f in
  if has_entry_set_aggs f then
    finish_src tracked direction agg
      (annotations mode ?window ~tracked ~pager s1 s2 s3)
      pager
  else Ext_list.Source.of_array (decided mode ?window ~tracked direction f ~pager s1 s2 s3)

(* (op L1 L2 [AggSelFilter]) for op in {p, c, a, d}. *)
let compute_hier ?window ?agg op l1 l2 =
  hier (mode_of_hier op) (direction_of_hier op) ?window agg l1 l2 None

(* (op L1 L2 L3 [AggSelFilter]) for op in {ac, dc}. *)
let compute_hier3 ?window ?agg op l1 l2 l3 =
  hier Hs_stack.Adc (direction_of_hier3 op) ?window agg l1 l2 (Some l3)

let compute_hier_src ?window ?agg pager op s1 s2 =
  hier_src (mode_of_hier op) (direction_of_hier op) ?window agg pager s1 s2 None

let compute_hier3_src ?window ?agg pager op s1 s2 s3 =
  hier_src Hs_stack.Adc (direction_of_hier3 op) ?window agg pager s1 s2 (Some s3)
