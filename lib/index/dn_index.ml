(* The clustering index on reverse-dn keys.

   The entries of an instance, sorted by reverse-dn key, laid out on pages:
   the entry of rank r in canonical order sits on page r / B.  The
   instance's size-annotated tree answers every rank in O(log n), so the
   index is a view of the instance and holds no copy of its entries.
   Because an ancestor's key is a prefix of each descendant's key, the
   three LDAP search scopes become key-range operations:

   - [base]: a point lookup (charged like a B-tree descent);
   - [sub]:  the contiguous range of keys the base's key prefixes;
   - [one]:  the same range, filtered to depth(base) + 1.

   Atomic queries produce their result in canonical sorted order directly
   from this index — the property Section 8.2's pipelined evaluation
   depends on. *)

type t = {
  pager : Pager.t;
  pool : Buffer_pool.t option;  (* optional page cache: hits are free *)
  instance : Instance.t;
}

let build ?pool pager instance =
  (* Construction writes the sorted entry file once. *)
  Pager.charge_scan_write pager (Instance.size instance);
  { pager; pool; instance }

let length t = Instance.size t.instance

(* Read one page of the entry file, through the cache when present. *)
let read_page t page =
  match t.pool with
  | Some pool -> Buffer_pool.read pool ~file:"dn_index" ~page
  | None -> Io_stats.read_page (Pager.stats t.pager)

(* Charge a B-tree-like descent: ceil(log2 (pages)) + 1 page reads; the
   touched internal nodes are cacheable (keyed per level over the page
   range they cover). *)
let charge_descent t =
  let pages = max 1 (Pager.pages_of t.pager (length t)) in
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
  Instance.find t.instance dn

let instance t = t.instance

(* Scan one scope of a resolved base: the descent, then for [one] and
   [sub] a sequential read of the pages its rank range covers; the kept
   entries flow out as a live source, ready to pipeline into an
   operator without ever being written.  The base entry, when present,
   is its range's first entry, the one whose key is the prefix itself. *)
let scan ?(keep = fun _ -> true) t scope (r : Instance.range) =
  if r.Instance.inst != t.instance then
    invalid_arg "Dn_index.scan: a base resolved in another instance";
  charge_descent t;
  let lo = r.Instance.lo and hi = r.Instance.hi in
  let read_range () =
    if hi > lo then begin
      let block = Pager.block t.pager in
      for page = lo / block to (hi - 1) / block do
        read_page t page
      done
    end
  in
  let kept range keep = Instance.fold_range (fun e l -> if keep e then e :: l else l) t.instance range [] in
  let kept =
    match scope with
    | Ast.Base ->
        let is_base e = String.length (Entry.key e) = String.length r.Instance.key in
        kept (lo, min hi (lo + 1)) (fun e -> is_base e && keep e)
    | Ast.One ->
        read_range ();
        let d = Dn.depth r.Instance.base in
        kept (lo, hi) (fun e ->
            let depth = Dn.depth (Entry.dn e) in
            (depth = d + 1 || depth = d) && keep e)
    | Ast.Sub ->
        read_range ();
        kept (lo, hi) keep
  in
  Ext_list.Source.of_array (Array.of_list kept)
