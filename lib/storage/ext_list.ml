(* Disk-resident lists of records, simulated.

   An ['a t] models a sequence of records stored contiguously on disk
   pages.  The contents live in an in-process array, but every access path
   goes through a pager so that page reads and writes are charged exactly
   as a real external-memory implementation would incur them:

   - materializing a list of n records charges ceil(n/B) page writes;
   - a sequential scan charges one page read every B records;
   - a writer charges one page write each time it fills a page, plus one
     for a final partial page.

   All of the paper's operator algorithms consume and produce values of
   this type, keeping the sorted-by-reverse-dn invariant externally. *)

type 'a t = { data : 'a array; pager : Pager.t }

(* Build a list that is already on disk (e.g. a base relation); no charge. *)
let of_array_resident pager data = { data; pager }

(* Materialize fresh output to disk: charges the page writes. *)
let materialize pager data =
  Pager.charge_scan_write pager (Array.length data);
  { data; pager }

let of_list_resident pager l = of_array_resident pager (Array.of_list l)
let length t = Array.length t.data
let is_empty t = Array.length t.data = 0
let pager t = t.pager
let pages t = Pager.pages_of t.pager (length t)

(* Unaccounted raw access, for tests and result extraction only. *)
let unsafe_get t i = t.data.(i)
let to_list t = Array.to_list t.data
let to_array t = Array.copy t.data

(* A sequential read cursor.  [peek] faults in the page holding the current
   record the first time any record of that page is touched. *)
module Cursor = struct
  type 'a cur = { src : 'a t; mutable pos : int; mutable page_loaded : int }

  let make src = { src; pos = 0; page_loaded = -1 }

  let fault cur =
    let block = Pager.block cur.src.pager in
    let page = cur.pos / block in
    if page <> cur.page_loaded then begin
      Io_stats.read_page (Pager.stats cur.src.pager);
      cur.page_loaded <- page
    end

  let current cur =
    fault cur;
    cur.src.data.(cur.pos)

  let peek cur = if cur.pos >= Array.length cur.src.data then None else Some (current cur)

  let advance cur = cur.pos <- cur.pos + 1

  let next cur =
    match peek cur with
    | None -> None
    | Some v ->
        advance cur;
        Some v

  let at_end cur = cur.pos >= Array.length cur.src.data
end

(* An output writer that charges a write per page.  The records pushed
   so far are one reversed list; [close] fills the output array from
   its end. *)
module Writer = struct
  type 'a w = {
    pager : Pager.t;
    mutable rev : 'a list;  (* everything pushed, most recent first *)
    mutable in_page : int;  (* records on the current partial page *)
    mutable total : int;
  }

  let make pager = { pager; rev = []; in_page = 0; total = 0 }

  let push w v =
    w.rev <- v :: w.rev;
    w.in_page <- w.in_page + 1;
    w.total <- w.total + 1;
    if w.in_page = Pager.block w.pager then begin
      Io_stats.write_page (Pager.stats w.pager);
      w.in_page <- 0
    end

  let close w =
    if w.in_page > 0 then begin
      Io_stats.write_page (Pager.stats w.pager);
      w.in_page <- 0
    end;
    let data =
      match w.rev with
      | [] -> [||]
      | last :: _ ->
          let data = Array.make w.total last in
          List.iteri (fun i v -> data.(w.total - 1 - i) <- v) w.rev;
          data
    in
    { data; pager = w.pager }

  let count w = w.total
end

(* A pull-based sorted record stream: the streaming executor's edge
   type, unifying "cursor over a resident list" and "live operator
   output".

   A [List] source is an accounted cursor: pulls fault pages in and
   charge reads exactly like a scan of the backing list.  A [Buf]
   source is live operator output flowing through the pipeline: pulls
   charge nothing, because in the modeled execution the producing
   operator hands each page directly to its consumer without touching
   disk (Thm 8.3's pipelined evaluation).  The in-memory array behind a
   [Buf] models the stream, not a resident file — at any instant the
   real pipeline holds one page of it.

   [force] implements the theorem's double-consumption exception: an
   operand that will be read more than once must exist as a resident
   list, so a live stream is materialized (charged), while a source
   that merely wraps an untouched resident list unwraps for free. *)
module Source = struct
  type 'a src =
    | List of { cur : 'a Cursor.cur; backing : 'a t; mutable touched : bool }
    | Buf of { data : 'a array; mutable pos : int }

  let of_list backing =
    List { cur = Cursor.make backing; backing; touched = false }

  let of_array data = Buf { data; pos = 0 }

  let length = function
    | List l -> Array.length l.backing.data
    | Buf b -> Array.length b.data

  let at_end = function
    | List l -> Cursor.at_end l.cur
    | Buf b -> b.pos >= Array.length b.data

  let head = function
    | List l ->
        l.touched <- true;
        Cursor.current l.cur
    | Buf b -> b.data.(b.pos)

  let peek s =
    (match s with List l -> l.touched <- true | Buf _ -> ());
    if at_end s then None else Some (head s)

  let unsafe_get s i =
    match s with List l -> l.backing.data.(i) | Buf b -> b.data.(i)

  let advance = function
    | List l ->
        l.touched <- true;
        Cursor.advance l.cur
    | Buf b -> b.pos <- b.pos + 1

  let next s =
    match peek s with
    | None -> None
    | Some v ->
        advance s;
        Some v

  let iter f s =
    let rec loop () =
      match next s with
      | None -> ()
      | Some v ->
          f v;
          loop ()
    in
    loop ()

  (* Drain the remaining records into a plain array, charging only what
     the pulls themselves charge (reads for a [List], nothing for a
     [Buf]). *)
  let drain s =
    let buf = ref [] in
    iter (fun v -> buf := v :: !buf) s;
    Array.of_list (List.rev !buf)

  (* Write the stream out as a fresh resident list: one page write per
     [B] records, like any operator output under materialized
     evaluation.  This is how the root result (and only the root, under
     streaming) reaches disk. *)
  let materialize pager s =
    let w = Writer.make pager in
    iter (Writer.push w) s;
    Writer.close w

  (* A resident list for an operand consumed more than once.  An
     untouched list-backed source is already resident — unwrap free; a
     live stream must be written out first (the paper's aggregate
     second-scan / $3 witness-list exception). *)
  let force pager s =
    match s with
    | List l when not l.touched -> l.backing
    | List _ | Buf _ -> materialize pager s
end

(* A full accounted scan. *)
let iter f t =
  let cur = Cursor.make t in
  let rec loop () =
    match Cursor.next cur with
    | None -> ()
    | Some v ->
        f v;
        loop ()
  in
  loop ()

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

(* Accounted filter: scans input, writes matching records. *)
let filter f t =
  let w = Writer.make t.pager in
  iter (fun v -> if f v then Writer.push w v) t;
  Writer.close w

let map f t =
  let w = Writer.make t.pager in
  iter (fun v -> Writer.push w (f v)) t;
  Writer.close w

(* Check an ordering invariant without charging I/O (assertion helper). *)
let is_sorted compare t =
  let n = Array.length t.data in
  let rec loop i =
    i >= n - 1 || (compare t.data.(i) t.data.(i + 1) <= 0 && loop (i + 1))
  in
  loop 0
