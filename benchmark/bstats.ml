(* The benchmark's clock, and order statistics for its reports. *)

(* Seconds on the monotonic clock, nanosecond resolution: a cache hit
   takes about 10 us, where a microsecond clock's steps are 10%. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [q] in [0,1]; 0 when
   empty.  Latency percentiles use this rank, so p99 of 1000 samples is
   the 990th smallest and has ten samples above it. *)
let rank_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let percentile a q = rank_sorted (sorted a) q

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes
   them (the default "exclusive" method), so spreads printed here match
   the ones computed from the result files with the standard library.
   Needs at least two values; one value is its own quartiles. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q2, q3 = quartiles a in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
