(* A nanosecond clock and an allocation meter for the observability
   layer.

   [Unix.gettimeofday] is wall-clock and can jump backwards (NTP); the
   instrumentation that consumes these timestamps subtracts pairs of
   them, so we clamp the reading to be non-decreasing within the
   process.  Resolution is microseconds, which is ample for the
   operator-level spans this layer measures. *)

let last = ref 0

let now_ns () =
  let t = int_of_float (Unix.gettimeofday () *. 1e9) in
  let t = if t > !last then t else !last in
  last := t;
  t

(* Render a nanosecond duration with an adaptive unit. *)
let pp_ns ppf ns =
  if ns < 1_000 then Fmt.pf ppf "%dns" ns
  else if ns < 1_000_000 then Fmt.pf ppf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then Fmt.pf ppf "%.2fms" (float_of_int ns /. 1e6)
  else Fmt.pf ppf "%.2fs" (float_of_int ns /. 1e9)

let ns_to_string ns = Fmt.str "%a" pp_ns ns

(* Words allocated by the process so far, exact to the word without
   forcing a collection: [Gc.minor_words] reads the minor heap's
   allocation pointer, and the words allocated straight into the major
   heap are [major - promoted] of [Gc.counters].  The stdlib's byte
   count of the same name is no substitute: under OCaml 5.1 it sees the
   minor heap only as of its last collection, so a span that saw no
   minor collection read about an eighth of what it allocated. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let bytes_of_words w = int_of_float w * (Sys.word_size / 8)
