(* The perf-regression gate: compare a fresh BENCH_results.json against
   the committed BENCH_baseline.json.

     dune exec bench/baseline.exe BENCH_baseline.json BENCH_results.json [MULT]

   Rows are aggregated per experiment id (summing reads, writes and
   wall_ns over the id's rows) and compared with tolerance bands:

   - page reads and writes are deterministic in the simulated cost
     model, so any *increase* over the baseline fails the gate
     (a decrease is reported as a stale baseline, not a failure);
   - wall-clock time is machine-dependent, so the band is a generous
     multiplier (default 50x) plus an absolute slack of 250ms — the
     gate catches order-of-magnitude blowups, not jitter.

   Allocated bytes (the rows' [allocated_bytes]) are summed per id too
   and reported next to the page counts, base -> run and per page read;
   they are not gated.

   Exit status 0 when every id is within its band, 1 on any regression,
   2 on unusable input. *)

let wall_slack_ns = 250_000_000
let default_multiplier = 50.

type agg = {
  mutable reads : int;
  mutable writes : int;
  mutable wall_ns : int;
  mutable alloc : int;  (* allocated bytes; 0 for rows without the field *)
  mutable rows : int;
}

(* Sum the telemetry rows of each experiment id, preserving first-seen
   order (the files are chronological). *)
let aggregate path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let rows =
    (* Either the legacy bare array of rows, or the current results
       document {"rows": [...], "monitor": [...]}. *)
    match Json.of_string text with
    | Json.Arr l -> l
    | Json.Obj _ as o -> (
        match Json.member "rows" o with
        | Json.Arr l -> l
        | _ -> failwith (path ^ ": expected telemetry rows under \"rows\""))
    | _ -> failwith (path ^ ": expected a JSON array of telemetry rows")
  in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let id = Json.str (Json.member "id" r) in
      let a =
        match Hashtbl.find_opt tbl id with
        | Some a -> a
        | None ->
            let a = { reads = 0; writes = 0; wall_ns = 0; alloc = 0; rows = 0 } in
            Hashtbl.add tbl id a;
            order := id :: !order;
            a
      in
      a.reads <- a.reads + Json.to_int (Json.member "reads" r);
      a.writes <- a.writes + Json.to_int (Json.member "writes" r);
      a.wall_ns <- a.wall_ns + Json.to_int (Json.member "wall_ns" r);
      a.alloc <- a.alloc + Json.to_int (Json.member "allocated_bytes" r);
      a.rows <- a.rows + 1)
    rows;
  (List.rev !order, tbl)

let bytes_to_string n =
  let f = float_of_int n in
  if f >= 1e6 then Printf.sprintf "%.1fMB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fkB" (f /. 1e3)
  else Printf.sprintf "%dB" n

(* Allocation per page read: how much heap a unit of the paper's cost
   measure takes. *)
let per_read a = if a.reads = 0 then "-" else bytes_to_string (a.alloc / a.reads)

type verdict = Pass | Stale of string | Regression of string

let check ~multiplier ~(base : agg) ~(fresh : agg) =
  if fresh.reads > base.reads then
    Regression
      (Printf.sprintf "reads %d -> %d (band: exact)" base.reads fresh.reads)
  else if fresh.writes > base.writes then
    Regression
      (Printf.sprintf "writes %d -> %d (band: exact)" base.writes fresh.writes)
  else if
    float_of_int fresh.wall_ns > multiplier *. float_of_int base.wall_ns
    && fresh.wall_ns - base.wall_ns > wall_slack_ns
  then
    Regression
      (Printf.sprintf "wall %s -> %s (band: %gx + %dms)"
         (Mclock.ns_to_string base.wall_ns)
         (Mclock.ns_to_string fresh.wall_ns)
         multiplier
         (wall_slack_ns / 1_000_000))
  else if fresh.reads < base.reads || fresh.writes < base.writes then
    Stale
      (Printf.sprintf "io improved (reads %d -> %d, writes %d -> %d): refresh \
                       the baseline"
         base.reads fresh.reads base.writes fresh.writes)
  else Pass

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> rest
    | [] -> []
  in
  let baseline_path, results_path, multiplier =
    match args with
    | [ b; r ] -> (b, r, default_multiplier)
    | [ b; r; m ] -> (
        match float_of_string_opt m with
        | Some m when m >= 1. -> (b, r, m)
        | _ ->
            Fmt.epr "bad multiplier %S@." m;
            exit 2)
    | _ ->
        Fmt.epr
          "usage: baseline.exe BASELINE.json RESULTS.json [WALL_MULTIPLIER]@.";
        exit 2
  in
  match (aggregate baseline_path, aggregate results_path) with
  | exception (Sys_error m | Failure m) ->
      Fmt.epr "%s@." m;
      exit 2
  | exception Json.Parse_error m ->
      Fmt.epr "%s@." m;
      exit 2
  | (base_order, base), (fresh_order, fresh) ->
      let regressions = ref 0 and mismatches = ref 0 in
      List.iter
        (fun id ->
          let f = Hashtbl.find fresh id in
          match Hashtbl.find_opt base id with
          | None ->
              incr mismatches;
              Fmt.pr "%-10s NEW        no baseline (%d rows, reads=%d \
                      writes=%d wall=%s)@."
                id f.rows f.reads f.writes
                (Mclock.ns_to_string f.wall_ns)
          | Some b -> (
              match check ~multiplier ~base:b ~fresh:f with
              | Pass ->
                  Fmt.pr "%-10s ok         reads=%d writes=%d wall=%s (base \
                          %s) alloc=%s -> %s (%s/read)@."
                    id f.reads f.writes
                    (Mclock.ns_to_string f.wall_ns)
                    (Mclock.ns_to_string b.wall_ns)
                    (bytes_to_string b.alloc) (bytes_to_string f.alloc) (per_read f)
              | Stale why ->
                  incr mismatches;
                  Fmt.pr "%-10s STALE      %s@." id why
              | Regression why ->
                  incr regressions;
                  incr mismatches;
                  Fmt.pr "%-10s REGRESSION %s@." id why))
        fresh_order;
      List.iter
        (fun id ->
          if not (Hashtbl.mem fresh id) then
            Fmt.pr "%-10s skipped    in baseline but not in this run@." id)
        base_order;
      (* On any mismatch, lay the two runs side by side so re-baselining
         is a copy-paste decision, not an archaeology session. *)
      if !mismatches > 0 then begin
        Fmt.pr "@.before/after (%s -> %s):@." baseline_path results_path;
        Fmt.pr "%-28s %12s %12s %12s %12s %12s %12s %12s %12s %12s@." "id"
          "reads(base)" "reads(run)" "writes(base)" "writes(run)" "wall(base)"
          "wall(run)" "alloc(base)" "alloc(run)" "alloc/read";
        let opt tbl id show =
          match Hashtbl.find_opt tbl id with Some a -> show a | None -> "-"
        in
        let opt_int tbl id field = opt tbl id (fun a -> string_of_int (field a)) in
        let opt_wall tbl id = opt tbl id (fun a -> Mclock.ns_to_string a.wall_ns) in
        let opt_alloc tbl id = opt tbl id (fun a -> bytes_to_string a.alloc) in
        let all_ids =
          fresh_order
          @ List.filter (fun id -> not (Hashtbl.mem fresh id)) base_order
        in
        List.iter
          (fun id ->
            Fmt.pr "%-28s %12s %12s %12s %12s %12s %12s %12s %12s %12s@." id
              (opt_int base id (fun a -> a.reads))
              (opt_int fresh id (fun a -> a.reads))
              (opt_int base id (fun a -> a.writes))
              (opt_int fresh id (fun a -> a.writes))
              (opt_wall base id) (opt_wall fresh id)
              (opt_alloc base id) (opt_alloc fresh id)
              (opt fresh id per_read))
          all_ids
      end;
      if !regressions > 0 then begin
        Fmt.pr "@.%d experiment id(s) regressed against %s@." !regressions
          baseline_path;
        exit 1
      end
      else Fmt.pr "@.all experiment ids within the baseline tolerance bands@."
