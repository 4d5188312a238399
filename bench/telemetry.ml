(* Structured results for the experiment harness.

   Every [Util.measure] call (and the explicit records in the
   engine-level experiments) appends one row; [write] dumps them all as
   a JSON array so the numbers behind EXPERIMENTS.md can be diffed and
   plotted without scraping the pretty-printed tables. *)

type row = {
  id : string;  (* experiment id, e.g. "E1" *)
  size : int option;  (* instance size N, when the experiment has one *)
  reads : int;
  writes : int;
  wall_ns : int;
  max_resident_pages : int;
  (* GC columns: deltas over the measured region, except
     [top_heap_words] which is the process high-water mark so far. *)
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  allocated_bytes : int;
}

let rows : row list ref = ref []
let current = ref "startup"

(* Keep just the experiment tag out of header ids like
   "E1 (Thm 5.1, Fig 2)". *)
let set_experiment id =
  current := (match String.index_opt id ' ' with
              | Some i -> String.sub id 0 i
              | None -> id)

let record ?size ?(minor_collections = 0) ?(major_collections = 0)
    ?(top_heap_words = 0) ?(allocated_bytes = 0) ~reads ~writes ~wall_ns
    ~max_resident_pages () =
  rows :=
    {
      id = !current;
      size;
      reads;
      writes;
      wall_ns;
      max_resident_pages;
      minor_collections;
      major_collections;
      top_heap_words;
      allocated_bytes;
    }
    :: !rows

(* Words allocated so far, to the word, read by the one allocation
   meter ([Mclock.allocated_words]).  A minor collection and a major
   slice are forced first, outside the measured region, so every row
   starts and ends on a settled heap. *)
let allocated_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  Mclock.allocated_words ()

(* Snapshot [stats] around [f], timing it with the monotonic clock.
   The GC is snapshotted too ([Gc.quick_stat] — no heap walk), so every
   row carries the collection counts and bytes allocated by the
   measured region next to its io.  The collections [allocated_words]
   forces fall outside the region. *)
let with_stats ?size stats f =
  let reads0 = stats.Io_stats.page_reads
  and writes0 = stats.Io_stats.page_writes in
  let words0 = allocated_words () in
  let gc0 = Gc.quick_stat () in
  let t0 = Mclock.now_ns () in
  let r = f () in
  let wall_ns = Mclock.now_ns () - t0 in
  let gc1 = Gc.quick_stat () in
  let words = allocated_words () - words0 in
  record ?size
    ~minor_collections:(gc1.Gc.minor_collections - gc0.Gc.minor_collections)
    ~major_collections:(gc1.Gc.major_collections - gc0.Gc.major_collections)
    ~top_heap_words:gc1.Gc.top_heap_words
    ~allocated_bytes:(Mclock.bytes_of_words words)
    ~reads:(stats.Io_stats.page_reads - reads0)
    ~writes:(stats.Io_stats.page_writes - writes0)
    ~wall_ns ~max_resident_pages:stats.Io_stats.max_resident_pages ();
  (r, wall_ns)

let chronological () = List.rev !rows
(* [rows] accumulates newest-first (cons); everything that leaves this
   module is chronological, so BENCH_results.json is stable across runs
   and diffs cleanly against BENCH_baseline.json. *)

(* --- Monitor-sourced snapshots -------------------------------------------- *)

(* In a monitored run (main.exe --monitor PORT) the harness scrapes its
   own /metrics endpoint after each experiment and keeps one snapshot
   per scrape: the per-family sums parsed back out of the Prometheus
   text, proving the live endpoint and the written results agree. *)

type snapshot = { after : string; metrics : (string * float) list }

let snapshots : snapshot list ref = ref []

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Sum the series of each family in an exposition page, dropping
   comments and the cumulative histogram bucket lines (the _sum/_count
   series carry the totals). *)
let parse_exposition text =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some i -> (
            let key = String.sub line 0 i in
            let name =
              match String.index_opt key '{' with
              | Some j -> String.sub key 0 j
              | None -> key
            in
            if not (ends_with ~suffix:"_bucket" name) then
              match
                float_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))
              with
              | Some v ->
                  let prev =
                    Option.value ~default:0. (Hashtbl.find_opt tbl name)
                  in
                  Hashtbl.replace tbl name (prev +. v)
              | None -> ()))
    (String.split_on_char '\n' text);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let snapshot ~after text =
  snapshots := { after; metrics = parse_exposition text } :: !snapshots

let row_json r =
  Printf.sprintf
    "{\"id\":\"%s\",\"size\":%s,\"reads\":%d,\"writes\":%d,\"wall_ns\":%d,\"max_resident_pages\":%d,\"minor_collections\":%d,\"major_collections\":%d,\"top_heap_words\":%d,\"allocated_bytes\":%d}"
    r.id
    (match r.size with Some n -> string_of_int n | None -> "null")
    r.reads r.writes r.wall_ns r.max_resident_pages r.minor_collections
    r.major_collections r.top_heap_words r.allocated_bytes

let snapshot_json s =
  Printf.sprintf "{\"after\":\"%s\",\"metrics\":{%s}}" s.after
    (String.concat ","
       (List.map
          (fun (name, v) -> Printf.sprintf "\"%s\":%.17g" name v)
          s.metrics))

(* The results document: {"rows": [...], "monitor": [...]}.  The
   monitor array is empty in an unmonitored run; [Baseline.aggregate]
   also still accepts the legacy bare-array shape. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc ("  " ^ row_json r))
    (chronological ());
  output_string oc "\n],\n\"monitor\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc ("  " ^ snapshot_json s))
    (List.rev !snapshots);
  output_string oc "\n]}\n";
  close_out oc;
  Fmt.pr "@.wrote %d result rows (%d monitor snapshots) to %s@."
    (List.length !rows) (List.length !snapshots) path
