(* The clustering index on reverse-dn keys.

   The entries of an instance, sorted by [Dn.rev_key], laid out on pages.
   Because an ancestor's key is a prefix of each descendant's key, the
   three LDAP search scopes become key-range operations:

   - [base]: binary search (charged like a B-tree descent);
   - [sub]:  the contiguous range of keys with prefix [rev_key base];
   - [one]:  the same range, filtered to depth(base) + 1.

   Atomic queries produce their result in canonical sorted order directly
   from this index — the property Section 8.2's pipelined evaluation
   depends on. *)

type t = {
  pager : Pager.t;
  entries : Entry.t array;
  pool : Buffer_pool.t option;  (* optional page cache: hits are free *)
}

let build ?pool pager instance =
  let entries = Array.of_list (Instance.to_list instance) in
  (* Construction writes the sorted entry file once. *)
  Pager.charge_scan_write pager (Array.length entries);
  { pager; entries; pool }

let of_sorted_array ?pool pager entries = { pager; entries; pool }
let length t = Array.length t.entries

(* Read one page of the entry file, through the cache when present. *)
let read_page t page =
  match t.pool with
  | Some pool -> Buffer_pool.read pool ~file:"dn_index" ~page
  | None -> Io_stats.read_page (Pager.stats t.pager)

(* First index in [[from], length) whose entry fails [below], the
   entries passing it forming a prefix of that range. *)
let partition_point ?(from = 0) t below =
  let lo = ref from and hi = ref (Array.length t.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below t.entries.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index whose key is >= [key]. *)
let lower_bound t key =
  partition_point t (fun e -> String.compare (Entry.key e) key < 0)

(* Charge a B-tree-like descent: ceil(log2 (pages)) + 1 page reads; the
   touched internal nodes are cacheable (keyed per level over the page
   range they cover). *)
let charge_descent t =
  let pages = max 1 (Pager.pages_of t.pager (Array.length t.entries)) in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let depth = log2 pages + 1 in
  match t.pool with
  | None -> Io_stats.read_page ~n:depth (Pager.stats t.pager)
  | Some pool ->
      for level = 0 to depth - 1 do
        Buffer_pool.read pool ~file:"dn_index.inner" ~page:level
      done

let find t dn =
  charge_descent t;
  let key = Dn.rev_key dn in
  let i = lower_bound t key in
  if i < Array.length t.entries && String.equal (Entry.key t.entries.(i)) key
  then Some t.entries.(i)
  else None

(* Index range [lo, hi) of the subtree rooted at [base]: the keys with
   prefix [rev_key base] are one run starting at [lo], so [hi] is a
   second binary search. *)
let subtree_range t base =
  let prefix = Dn.rev_key base in
  let lo = lower_bound t prefix in
  (lo, partition_point ~from:lo t (fun e -> Entry.key_is_prefix ~prefix (Entry.key e)))

(* Index range [lo, hi) of [dn]'s own entry: its slot, or the empty
   range at the slot it would take. *)
let entry_range t dn =
  let key = Dn.rev_key dn in
  let lo = lower_bound t key in
  if lo < Array.length t.entries && String.equal (Entry.key t.entries.(lo)) key
  then (lo, lo + 1)
  else (lo, lo)

(* Merge-diff one range of the entry file against [fresh], the range's
   current entries in canonical order.  Physically equal entries are
   skipped; every other old entry is [removed], every other new one
   [added] (a replaced entry is both).  When anything differed the
   result is a copy with the range spliced in — a pointer copy, so a
   holder of [t] keeps a consistent snapshot — charged as writing the
   spliced records; otherwise it is [t] itself. *)
let sync t dn ~subtree fresh ~removed ~added =
  let lo, hi = if subtree then subtree_range t dn else entry_range t dn in
  let changed = ref false in
  let rec merge i l =
    match l with
    | [] ->
        for j = i to hi - 1 do
          changed := true;
          removed t.entries.(j)
        done
    | e :: rest when i = hi ->
        changed := true;
        added e;
        merge i rest
    | e :: rest ->
        let old = t.entries.(i) in
        if old == e then merge (i + 1) rest
        else begin
          changed := true;
          let c = String.compare (Entry.key old) (Entry.key e) in
          if c <= 0 then removed old;
          if c >= 0 then added e;
          merge (if c <= 0 then i + 1 else i) (if c >= 0 then rest else l)
        end
  in
  merge lo fresh;
  if not !changed then t
  else begin
    let slice = Array.of_list fresh in
    let m = Array.length slice in
    Pager.charge_scan_write t.pager m;
    let entries =
      Array.init
        (Array.length t.entries - (hi - lo) + m)
        (fun i ->
          if i < lo then t.entries.(i)
          else if i < lo + m then slice.(i - lo)
          else t.entries.(i - m + hi - lo))
    in
    { t with entries }
  end

(* Scan a subtree as a stream: charges the descent plus a sequential
   read of the touched range; the kept entries flow out as a live
   source, ready to pipeline into an operator without ever being
   written. *)
let scan_subtree_src ?(keep = fun _ -> true) t base =
  charge_descent t;
  let lo, hi = subtree_range t base in
  if hi > lo then begin
    let block = Pager.block t.pager in
    for page = lo / block to (hi - 1) / block do
      read_page t page
    done
  end;
  let out = ref [] in
  for i = lo to hi - 1 do
    if keep t.entries.(i) then out := t.entries.(i) :: !out
  done;
  Ext_list.Source.of_array (Array.of_list (List.rev !out))

let scan_children_src ?(keep = fun _ -> true) t base =
  let d = Dn.depth base in
  scan_subtree_src t base ~keep:(fun e ->
      let depth = Dn.depth (Entry.dn e) in
      (depth = d + 1 || depth = d) && keep e)

let scan_base_src ?(keep = fun _ -> true) t base =
  charge_descent t;
  let key = Dn.rev_key base in
  let i = lower_bound t key in
  let out =
    if i < Array.length t.entries then
      let e = t.entries.(i) in
      if String.equal (Entry.key e) key && keep e then [| e |] else [||]
    else [||]
  in
  Ext_list.Source.of_array out

(* Materialized scans: the same ranges, with the output written through
   a page-buffered writer. *)
let scan_subtree ?keep t base =
  Ext_list.Source.materialize t.pager (scan_subtree_src ?keep t base)

let scan_children ?keep t base =
  Ext_list.Source.materialize t.pager (scan_children_src ?keep t base)

let scan_base ?keep t base =
  Ext_list.Source.materialize t.pager (scan_base_src ?keep t base)
