(* The bounded-memory stack used by the ComputeHS* algorithms.

   The paper's stack algorithms (Figs 2, 4, 5, 6) note that "particular
   stack entries may be swapped out (and eventually re-fetched) from the
   memory multiple times when the stack repeatedly grows and shrinks", yet
   the total I/O stays linear.  This module models exactly that behaviour:
   the top [window_pages] pages of the stack are held in memory; when a
   push overflows the window, the bottom-most in-memory page is spilled
   (one page write); when a pop drains the window while spilled pages
   remain, the most recent spilled page is re-fetched (one page read).

   Per record, a spill/fetch pair happens at most once between the record's
   push and its pop on any monotone grow-then-shrink excursion, so the
   extra I/O is bounded by the number of records pushed — preserving the
   paper's linear bound, which experiment E1-E3 verify. *)

(* The stack is one growable array; its top [hot] elements are the
   in-memory window, everything below them is spilled.  Spilled pages
   are always full (a push spills exactly one page, a fetch brings back
   the most recent one), so counts alone say where a page boundary
   lies. *)
type 'a t = {
  pager : Pager.t;
  window_pages : int;
  mutable items : 'a array;  (* bottom first; [items.(len - 1)] is the top *)
  mutable len : int;
  mutable hot : int;  (* the top [hot] elements are in memory *)
}

let create ?(window_pages = 2) pager =
  if window_pages < 1 then invalid_arg "Spill_stack.create: window_pages < 1";
  Io_stats.grow_resident ~n:window_pages (Pager.stats pager);
  { pager; window_pages; items = [||]; len = 0; hot = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push t v =
  let block = Pager.block t.pager in
  if t.hot = t.window_pages * block then begin
    (* Spill the bottom page of the hot window. *)
    Io_stats.write_page (Pager.stats t.pager);
    t.hot <- t.hot - block
  end;
  if t.len = Array.length t.items then begin
    let items = Array.make (max 16 (2 * t.len)) v in
    Array.blit t.items 0 items 0 t.len;
    t.items <- items
  end;
  t.items.(t.len) <- v;
  t.len <- t.len + 1;
  t.hot <- t.hot + 1

(* When the hot window drains, re-fetch the most recently spilled page
   (one page read).  The fetched page becomes the new hot segment, so
   repeated peeks of the same record are charged only once. *)
let ensure_hot t =
  if t.hot = 0 && t.len > 0 then begin
    Io_stats.read_page (Pager.stats t.pager);
    t.hot <- Pager.block t.pager
  end

let top t =
  ensure_hot t;
  if t.len = 0 then None else Some t.items.(t.len - 1)

(* A popped slot keeps its element until a push overwrites it: the
   array holds at most the deepest chain's worth. *)
let pop t =
  ensure_hot t;
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    t.hot <- t.hot - 1;
    Some t.items.(t.len)
  end

let release t =
  Io_stats.shrink_resident ~n:t.window_pages (Pager.stats t.pager)
