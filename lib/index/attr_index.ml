(* Per-attribute secondary indexes over a directory instance.

   Integer attributes get a B+tree (equality and range filters), string
   attributes get an exact-match trie plus a suffix-trie substring index
   (wildcard filters), per Section 4.1's assumption that atomic queries
   are supported by "B-trees indices for integer and distinguishedName
   filters, and trie and suffix tree indices for string filters".
   Distinguished-name-valued attributes are indexed by their reverse key
   in the exact trie. *)

type t = {
  pager : Pager.t;
  ints : (string, Entry.t Btree.t) Hashtbl.t;
  str_exact : (string, Entry.t Str_trie.t) Hashtbl.t;
  str_sub : (string, Entry.t Str_trie.Substr.t) Hashtbl.t;
  dn_exact : (string, Entry.t Str_trie.t) Hashtbl.t;
}

let find_or_add tbl key create =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = create () in
      Hashtbl.replace tbl key v;
      v

(* The pairs of one attribute are contiguous in [Entry.attrs], so its
   cached reference keys are (un)indexed all at once, at its first dn
   value; [done_attr] is the last attribute so handled. *)
let add_entry t e =
  let done_attr = ref "" in
  List.iter
    (fun (a, v) ->
      match v with
      | Value.Int i ->
          Btree.insert (find_or_add t.ints a (fun () -> Btree.create t.pager)) i e
      | Value.Str s ->
          Str_trie.add (find_or_add t.str_exact a (fun () -> Str_trie.create t.pager)) s e;
          Str_trie.Substr.add
            (find_or_add t.str_sub a (fun () -> Str_trie.Substr.create t.pager))
            s e
      | Value.Dn _ ->
          if not (String.equal a !done_attr) then begin
            done_attr := a;
            let trie = find_or_add t.dn_exact a (fun () -> Str_trie.create t.pager) in
            Entry.ref_keys e a (fun k -> Str_trie.add trie k e)
          end)
    (Entry.attrs e)

(* Undo [add_entry]: each of [e]'s postings (physically [e]) leaves its
   index, and an index left empty is dropped, as a fresh build would
   never have made it. *)
let remove_entry t e =
  let drain tbl a remove is_empty =
    match Hashtbl.find_opt tbl a with
    | None -> ()
    | Some idx ->
        remove idx;
        if is_empty idx then Hashtbl.remove tbl a
  in
  let trie_empty trie = Str_trie.size trie = 0 in
  let done_attr = ref "" in
  List.iter
    (fun (a, v) ->
      match v with
      | Value.Int i ->
          drain t.ints a (fun bt -> Btree.remove bt i e) (fun bt -> Btree.cardinal bt = 0)
      | Value.Str s ->
          drain t.str_exact a (fun trie -> Str_trie.remove trie s e) trie_empty;
          drain t.str_sub a
            (fun idx -> Str_trie.Substr.remove idx s e)
            (fun idx -> Str_trie.Substr.count idx = 0)
      | Value.Dn _ ->
          if not (String.equal a !done_attr) then begin
            done_attr := a;
            drain t.dn_exact a
              (fun trie -> Entry.ref_keys e a (fun k -> Str_trie.remove trie k e))
              trie_empty
          end)
    (Entry.attrs e)

let build pager instance =
  let t =
    {
      pager;
      ints = Hashtbl.create 32;
      str_exact = Hashtbl.create 32;
      str_sub = Hashtbl.create 32;
      dn_exact = Hashtbl.create 32;
    }
  in
  Instance.iter (add_entry t) instance;
  t

(* --- Probes ---------------------------------------------------------------- *)

type probe =
  | Int_range of string * int * int
  | Exact of string * string
  | Prefix of string * string
  | Substring of string * string
  | Ref of string * string

(* The component a substring filter probes with: the longest available
   one (ties prefer the initial component, whose exact-trie prefix walk
   is cheaper than the suffix trie).  Probing with anything shorter
   inflates the candidate set the full pattern then filters back down. *)
let substr_probe a (pat : Afilter.substring) =
  let longest best (s, anchored) =
    match best with
    | Some (b, _) when String.length b >= String.length s -> best
    | _ -> Some (s, anchored)
  in
  let best = match pat.Afilter.initial with Some s -> Some (s, true) | None -> None in
  let best = List.fold_left (fun b s -> longest b (s, false)) best pat.Afilter.middles in
  let best = match pat.Afilter.final with Some s -> longest best (s, false) | None -> best in
  match best with
  | None -> None
  | Some (s, true) -> Some (Prefix (a, s))
  | Some (s, false) -> Some (Substring (a, s))

let probe (f : Afilter.t) =
  match f with
  | Afilter.Present _ -> None
  | Afilter.Int_cmp (a, op, k) ->
      let lo, hi =
        match op with
        | Afilter.Lt -> (min_int, k - 1)
        | Afilter.Le -> (min_int, k)
        | Afilter.Eq -> (k, k)
        | Afilter.Ge -> (k, max_int)
        | Afilter.Gt -> (k + 1, max_int)
      in
      Some (Int_range (a, lo, hi))
  | Afilter.Str_eq (a, s) -> Some (Exact (a, s))
  | Afilter.Dn_eq (a, d) -> Some (Ref (a, Entry.ref_key d))
  | Afilter.Substr (a, pat) -> substr_probe a pat

(* Candidates in unspecified order, which callers re-sort into the
   canonical one; none when the attribute is not indexed. *)
let lookup t p =
  let on tbl a f = match Hashtbl.find_opt tbl a with None -> [] | Some idx -> f idx in
  match p with
  | Int_range (a, lo, hi) -> on t.ints a (fun bt -> List.concat_map snd (Btree.range bt ~lo ~hi))
  | Exact (a, s) -> on t.str_exact a (fun trie -> Str_trie.find_exact trie s)
  | Prefix (a, s) -> on t.str_exact a (fun trie -> Str_trie.find_prefix trie s)
  | Substring (a, s) -> on t.str_sub a (fun idx -> Str_trie.Substr.find_substring idx s)
  | Ref (a, k) -> on t.dn_exact a (fun trie -> Str_trie.find_exact trie k)

(* How many candidates [lookup] would return, without materializing the
   postings: descent I/O is charged like a lookup's, the collection is
   not (O(log n) for the B-tree, O(|pattern|) for the tries), which is
   what lets a planner price the index path before committing to it.
   A substring count is an upper bound: suffix occurrences, not
   distinct strings. *)
let count t p =
  let on tbl a f = match Hashtbl.find_opt tbl a with None -> 0 | Some idx -> f idx in
  match p with
  | Int_range (a, lo, hi) -> on t.ints a (fun bt -> Btree.count_range bt ~lo ~hi)
  | Exact (a, s) -> on t.str_exact a (fun trie -> Str_trie.count_exact trie s)
  | Prefix (a, s) -> on t.str_exact a (fun trie -> Str_trie.count_prefix trie s)
  | Substring (a, s) -> on t.str_sub a (fun idx -> Str_trie.Substr.count_substring idx s)
  | Ref (a, k) -> on t.dn_exact a (fun trie -> Str_trie.count_exact trie k)
