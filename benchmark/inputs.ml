(* The benchmark's inputs.  The workload seed draws the synthetic
   directory; query text is drawn by [Query_mix] over that directory
   from a fixed template stream ([template_seed]).  The shapes of the
   queries (levels, operators, scopes, filters) are therefore the same
   for every workload seed, while their base entries, and with them
   every operand, come from the seeded directory, as a TPC-style query
   generator fixes its templates and draws their parameters.  Drawing
   the shapes from the workload seed as well moves the heavy tail (ten
   queries of a thousand set p99) by 20-30% from one seed to the next,
   so the benchmark would measure the draw instead of the code. *)

open Ndq

let template_seed = 1

(* Independent PRNG streams per purpose, all from the one seed. *)
let sub_seed seed tag = (seed * 7919) + tag

let dif ~seed ~size =
  Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size } ()

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The cached workloads' request stream: a pool of queries and [hot] of
   them drawn at random from the template stream.  A round holds every
   pool query once (the tail) and four times as many requests spread
   evenly over the hot queries, shuffled: 80% of requests go to the hot
   set and every round has the same composition.  Like the query
   shapes, the hot set and the order come from the template stream, so
   which results a round's LRU traffic keeps is decided by the
   directory alone. *)
type skewed = { pool : string array; hot : int array }

let skewed ~pool_size ~hot inst =
  let pool = Query_mix.generate ~seed:template_seed ~count:pool_size inst in
  let r = Prng.create (sub_seed template_seed 7) in
  { pool; hot = Array.of_list (Prng.sample r ~k:(min hot pool_size) ~n:pool_size) }

let round_len s = 5 * Array.length s.pool

(* Round [k]'s requests as pool indices; negative rounds are warm-up. *)
let round s k =
  let n = Array.length s.pool and h = Array.length s.hot in
  let a =
    Array.init (round_len s) (fun i -> if i < n then i else s.hot.((i - n) mod h))
  in
  shuffle (Prng.create (sub_seed template_seed (1000 + k))) a;
  a

(* Write targets of the read/write workload: entries carrying the
   integer [priority] attribute, and the new value for each write. *)
let writes ~seed inst count =
  let targets =
    Array.of_list
      (List.filter_map
         (fun e ->
           if Entry.int_values e "priority" <> [] then Some (Entry.dn e) else None)
         (Instance.to_list inst))
  in
  let r = Prng.create (sub_seed seed 29) in
  Array.init count (fun _ ->
      (Prng.pick r targets, Prng.int r Dif_gen.default_params.priority_range))
