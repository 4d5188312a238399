(* Runtime resource telemetry: GC and process health as gauges.

   Everything else in lib/obs measures *queries*; this module measures
   the *process* an operator watches — collection counts, heap size,
   live data, allocation, uptime, the journal sink — published into the
   default Metrics registry so the same /metrics page (and the alerting
   engine) sees them.  There is no clock here: the flight recorder
   refreshes these gauges at the start of every [Tsdb.sample], so its
   sampler thread is the one that keeps them current.

   [Gc.quick_stat] fills every field we publish, live words included,
   without walking the heap. *)

let started_ns = Mclock.now_ns ()
let bytes_per_word = float_of_int (Sys.word_size / 8)

let g name help = Metrics.gauge ~help name

let g_uptime = g "process_uptime_seconds" "seconds since the process started"

let g_allocated =
  g "process_allocated_bytes" "total bytes allocated by the process"

let g_minor = g "gc_minor_collections" "completed minor collections"
let g_major = g "gc_major_collections" "completed major collection cycles"
let g_compactions = g "gc_compactions" "completed heap compactions"
let g_heap_words = g "gc_heap_words" "total size of the major heap, in words"

let g_top_heap_words =
  g "gc_top_heap_words" "largest size the major heap ever reached, in words"

let g_live_words =
  g "gc_live_words" "live data in the major heap, in words"

let g_promoted =
  g "gc_promoted_bytes" "bytes promoted from the minor to the major heap"

let g_sink =
  g "qlog_sink_bytes" "bytes in the live query-journal file (0 when disabled)"

let sample () =
  let s = Gc.quick_stat () in
  Metrics.set g_uptime (float_of_int (Mclock.now_ns () - started_ns) /. 1e9);
  Metrics.set g_allocated
    (float_of_int (Mclock.bytes_of_words (Mclock.allocated_words ())));
  Metrics.set g_minor (float_of_int s.Gc.minor_collections);
  Metrics.set g_major (float_of_int s.Gc.major_collections);
  Metrics.set g_compactions (float_of_int s.Gc.compactions);
  Metrics.set g_heap_words (float_of_int s.Gc.heap_words);
  Metrics.set g_top_heap_words (float_of_int s.Gc.top_heap_words);
  Metrics.set g_live_words (float_of_int s.Gc.live_words);
  Metrics.set g_promoted (s.Gc.promoted_words *. bytes_per_word);
  Metrics.set g_sink (float_of_int (Qlog.sink_bytes ()))
