(* A process-wide metrics registry: named, labeled counters, gauges and
   log-scale histograms, with text and JSON-lines exporters.

   Zero dependencies beyond the stdlib by design: the registry is a
   hashtable of metric families, each holding one series per label set.
   Histograms bucket observations by powers of two (64 buckets cover
   everything from 1 to ~9e18, i.e. sub-nanosecond to centuries when
   observations are nanoseconds), so quantile estimates carry at most a
   factor-of-two bucketing error — plenty for the order-of-magnitude
   questions this layer answers.  Handles returned by {!counter},
   {!gauge} and {!histogram} stay valid across {!reset}: resetting
   zeroes series in place rather than dropping them.

   Thread safety: the serving front-end's worker pool observes into the
   same registry from many threads, so every registration, mutation and
   export takes one process-wide mutex.  The critical sections are a
   few field updates (no allocation-heavy work happens under the lock),
   so contention stays negligible next to query evaluation. *)

type labels = (string * string) list

(* One lock for every registry: registration and observation interleave
   from worker threads, and a per-registry lock would buy nothing (the
   default registry is where everyone meets anyway). *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let normalize labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

(* --- Series ---------------------------------------------------------------- *)

let hbuckets = 64

type exemplar = {
  ex_trace_id : string;
  ex_value : float;
  ex_ts : float;  (* unix seconds at observation time *)
}

type histogram = {
  buckets : int array;  (* buckets.(i): observations in [2^i, 2^(i+1)) *)
  exemplars : exemplar option array;  (* most recent traced hit per bucket *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type counter = { mutable c : int }
type gauge = { mutable g : float }

type series = C of counter | G of gauge | H of histogram

type metric = {
  mname : string;
  help : string;
  kind : string;  (* "counter" | "gauge" | "histogram" *)
  series : (labels, series) Hashtbl.t;
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }
let default = create ()

let family registry ~kind ~help name =
  match Hashtbl.find_opt registry.tbl name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name m.kind);
      m
  | None ->
      let m = { mname = name; help; kind; series = Hashtbl.create 4 } in
      Hashtbl.replace registry.tbl name m;
      m

let series_of m labels mk =
  let labels = normalize labels in
  match Hashtbl.find_opt m.series labels with
  | Some s -> s
  | None ->
      let s = mk () in
      Hashtbl.replace m.series labels s;
      s

(* --- Counters ---------------------------------------------------------------- *)

let counter ?(registry = default) ?(help = "") ?(labels = []) name =
  locked (fun () ->
      let m = family registry ~kind:"counter" ~help name in
      match series_of m labels (fun () -> C { c = 0 }) with
      | C c -> c
      | G _ | H _ -> assert false)

let add c n = locked (fun () -> c.c <- c.c + n)
let incr c = add c 1
let counter_value c = c.c

(* --- Gauges ------------------------------------------------------------------- *)

let gauge ?(registry = default) ?(help = "") ?(labels = []) name =
  locked (fun () ->
      let m = family registry ~kind:"gauge" ~help name in
      match series_of m labels (fun () -> G { g = 0. }) with
      | G g -> g
      | C _ | H _ -> assert false)

let set g v = locked (fun () -> g.g <- v)
let gauge_value g = g.g

(* --- Histograms ----------------------------------------------------------------- *)

let histogram ?(registry = default) ?(help = "") ?(labels = []) name =
  locked (fun () ->
      let m = family registry ~kind:"histogram" ~help name in
      let mk () =
        H
          {
            buckets = Array.make hbuckets 0;
            exemplars = Array.make hbuckets None;
            hcount = 0;
            hsum = 0.;
            hmin = infinity;
            hmax = neg_infinity;
          }
      in
      match series_of m labels mk with
      | H h -> h
      | C _ | G _ -> assert false)

let bucket_index v =
  if v < 1. then 0
  else min (hbuckets - 1) (int_of_float (Float.log2 v))

let observe ?trace_id h v =
  (* NaN would flow through Float.max unchanged and hand int_of_float an
     unspecified value in bucket_index; clamp it to zero like negatives. *)
  let v = if Float.is_nan v then 0. else Float.max v 0. in
  (* Stamp outside the lock: gettimeofday is a syscall on some systems
     and only traced observations need it. *)
  let ex =
    match trace_id with
    | None -> None
    | Some tid ->
        Some { ex_trace_id = tid; ex_value = v; ex_ts = Unix.gettimeofday () }
  in
  locked (fun () ->
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      (match ex with None -> () | Some _ -> h.exemplars.(i) <- ex);
      h.hcount <- h.hcount + 1;
      h.hsum <- h.hsum +. v;
      if v < h.hmin then h.hmin <- v;
      if v > h.hmax then h.hmax <- v)

let observe_ns ?trace_id h ns = observe ?trace_id h (float_of_int ns)

let histogram_count h = h.hcount
let histogram_sum h = h.hsum

(* Quantile estimate from per-bucket counts: find the bucket holding
   the ceil-rank, interpolate linearly inside it.  The one estimator of
   the obs layer: histogram exports below and the flight recorder's
   merged window deltas both read quantiles through it. *)
let bucket_quantile counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total <= 0 then None
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec go i cum =
      let c = counts.(i) in
      if cum + c >= rank then begin
        let lo = if i = 0 then 0. else ldexp 1. i in
        let hi = ldexp 1. (i + 1) in
        lo +. (float_of_int (rank - cum) /. float_of_int c *. (hi -. lo))
      end
      else go (i + 1) (cum + c)
    in
    Some (go 0 0)
  end

(* A live histogram also knows its observed min/max, so its estimate is
   clamped to them.  The unlocked variant serves the exporters below,
   which already hold the lock. *)
let quantile_unlocked h q =
  match bucket_quantile h.buckets q with
  | None -> 0.
  | Some v -> Float.min h.hmax (Float.max h.hmin v)

let quantile h q = locked (fun () -> quantile_unlocked h q)

(* --- Reset ------------------------------------------------------------------------ *)

let reset_series = function
  | C c -> c.c <- 0
  | G g -> g.g <- 0.
  | H h ->
      Array.fill h.buckets 0 hbuckets 0;
      Array.fill h.exemplars 0 hbuckets None;
      h.hcount <- 0;
      h.hsum <- 0.;
      h.hmin <- infinity;
      h.hmax <- neg_infinity

let reset registry =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m -> Hashtbl.iter (fun _ s -> reset_series s) m.series)
        registry.tbl)

(* --- Export view -------------------------------------------------------------------- *)

(* A read-only snapshot of the registry for exporters that live outside
   this module (Prometheus text exposition, the introspection server):
   everything they need without exposing the mutable series. *)

type hview = {
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (* infinity when empty *)
  hv_max : float;  (* neg_infinity when empty *)
  hv_cumulative : int array;  (* entry i counts observations below 2^(i+1) *)
  hv_exemplars : (int * exemplar) list;  (* bucket index -> most recent hit *)
}

type view = V_counter of int | V_gauge of float | V_histogram of hview

type family_view = {
  fv_name : string;
  fv_kind : string;  (* "counter" | "gauge" | "histogram" *)
  fv_help : string;
  fv_series : (labels * view) list;  (* sorted by label set *)
}

let bucket_count = hbuckets
let bucket_upper i = ldexp 1. (i + 1)

let cumulative_buckets h =
  let cum = Array.make hbuckets 0 in
  let running = ref 0 in
  Array.iteri
    (fun i c ->
      running := !running + c;
      cum.(i) <- !running)
    h.buckets;
  cum

let exemplar_list h =
  let acc = ref [] in
  for i = hbuckets - 1 downto 0 do
    match h.exemplars.(i) with
    | Some ex -> acc := (i, ex) :: !acc
    | None -> ()
  done;
  !acc

(* --- Exporters ---------------------------------------------------------------------- *)

let sorted_families registry =
  Hashtbl.fold (fun _ m acc -> m :: acc) registry.tbl []
  |> List.sort (fun a b -> String.compare a.mname b.mname)

let sorted_series m =
  Hashtbl.fold (fun labels s acc -> (labels, s) :: acc) m.series []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let export registry =
  locked (fun () ->
      List.map
        (fun m ->
          {
            fv_name = m.mname;
            fv_kind = m.kind;
            fv_help = m.help;
            fv_series =
              List.map
                (fun (labels, s) ->
                  ( labels,
                    match s with
                    | C c -> V_counter c.c
                    | G g -> V_gauge g.g
                    | H h ->
                        V_histogram
                          {
                            hv_count = h.hcount;
                            hv_sum = h.hsum;
                            hv_min = h.hmin;
                            hv_max = h.hmax;
                            hv_cumulative = cumulative_buckets h;
                            hv_exemplars = exemplar_list h;
                          } ))
                (sorted_series m);
          })
        (sorted_families registry))

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Fmt.pf ppf "{%a}"
        (Fmt.list ~sep:(Fmt.any ",") (fun ppf (k, v) ->
             Fmt.pf ppf "%s=%S" k v))
        labels

let finite v = if Float.is_finite v then v else 0.

let pp ppf registry =
  locked (fun () ->
      List.iter
        (fun m ->
          if m.help <> "" then Fmt.pf ppf "# %s: %s@." m.mname m.help;
          List.iter
            (fun (labels, s) ->
              match s with
              | C c -> Fmt.pf ppf "%s%a %d@." m.mname pp_labels labels c.c
              | G g -> Fmt.pf ppf "%s%a %g@." m.mname pp_labels labels g.g
              | H h ->
                  Fmt.pf ppf
                    "%s%a count=%d sum=%g min=%g p50=%g p90=%g p99=%g max=%g@."
                    m.mname pp_labels labels h.hcount h.hsum (finite h.hmin)
                    (quantile_unlocked h 0.5) (quantile_unlocked h 0.9)
                    (quantile_unlocked h 0.99) (finite h.hmax))
            (sorted_series m))
        (sorted_families registry))

(* Minimal JSON string escaping (quotes, backslashes, control chars). *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         labels)
  ^ "}"

let json_num v = Printf.sprintf "%.17g" (finite v)

(* One JSON object per line per series. *)
let to_json_lines registry =
  locked @@ fun () ->
  let b = Buffer.create 256 in
  List.iter
    (fun m ->
      List.iter
        (fun (labels, s) ->
          let head =
            Printf.sprintf "{\"name\":\"%s\",\"type\":\"%s\",\"labels\":%s"
              (json_escape m.mname) m.kind (json_labels labels)
          in
          (match s with
          | C c -> Buffer.add_string b (Printf.sprintf "%s,\"value\":%d}" head c.c)
          | G g ->
              Buffer.add_string b
                (Printf.sprintf "%s,\"value\":%s}" head (json_num g.g))
          | H h ->
              (* The full cumulative bucket array (bucket i covers values
                 below 2^(i+1)), so offline tooling can recompute any
                 quantile, not just the three summarized here. *)
              let cum = Buffer.create (4 * hbuckets) in
              let running = ref 0 in
              Buffer.add_char cum '[';
              Array.iteri
                (fun i c ->
                  running := !running + c;
                  if i > 0 then Buffer.add_char cum ',';
                  Buffer.add_string cum (string_of_int !running))
                h.buckets;
              Buffer.add_char cum ']';
              Buffer.add_string b
                (Printf.sprintf
                   "%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s,\"buckets\":%s}"
                   head h.hcount (json_num h.hsum) (json_num h.hmin)
                   (json_num (quantile_unlocked h 0.5))
                   (json_num (quantile_unlocked h 0.9))
                   (json_num (quantile_unlocked h 0.99))
                   (json_num h.hmax) (Buffer.contents cum)));
          Buffer.add_char b '\n')
        (sorted_series m))
    (sorted_families registry);
  Buffer.contents b
