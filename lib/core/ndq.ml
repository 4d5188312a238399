(* Umbrella module: the public API of the network-directory query system.

   {1 Data model (Section 3)} *)

module Value = Value
(** Attribute values: strings, ints and distinguished names. *)

module Rdn = Rdn
(** Relative distinguished names: sets of (attribute, value) pairs. *)

module Dn = Dn
(** Distinguished names, the hierarchy they induce, and the canonical
    reverse-lexicographic order (Section 4.2). *)

module Schema = Schema
(** Directory schemas: classes, typed attributes (Definition 3.1). *)

module Std_schema = Std_schema
(** Netscape-DS-3.1-style schema presets (Section 3.5). *)

module Entry = Entry
(** Directory entries (Definition 3.2). *)

module Instance = Instance
(** Directory instances — the directory information forest. *)

module Directory = Directory
(** Mutable directory state with LDAP-style update operations. *)

module Ldif = Ldif
(** LDIF-style serialization of schemas and instances. *)

(** {1 Query languages (Sections 4-7)} *)

module Afilter = Afilter
(** Atomic filters: presence, integer comparison, wildcard strings. *)

module Ast = Ast
(** Abstract syntax of L0 .. L3 (Figures 7-10). *)

module Lang = Lang
(** Language-level classification and well-formedness. *)

module Qparser = Qparser
(** Parser for the concrete query syntax. *)

module Qprinter = Qprinter
(** Printer (inverse of {!Qparser}). *)

module Ldap = Ldap
(** The 1999 LDAP query language baseline (Section 8.1). *)

(** {1 Evaluation (Sections 4.2, 5.3, 6.3-6.4, 7.2, 8.2)} *)

module Semantics = Semantics
(** Reference denotational semantics — the executable specification. *)

module Agg = Agg
(** Aggregate values and distributive partial states. *)

module Bool_ops = Bool_ops
(** Sorted-merge boolean operators. *)

module Hs_agg = Hs_agg
(** Algorithms ComputeHSPC, ComputeHSAD, ComputeHSADc (Figs 2, 4, 5)
    and ComputeHSAgg* (Fig 6). *)

module Hs_stack = Hs_stack
(** The shared stack-sweep machinery behind the ComputeHS* family. *)

module Simple_agg = Simple_agg
(** Simple aggregate selection (g ...) in at most two scans. *)

module Er = Er
(** Algorithms ComputeERAggVD / ComputeERAggDV (Fig 3). *)

module Naive = Naive
(** Quadratic nested-loop baselines. *)

module Engine = Engine
(** The bottom-up pipelined query engine (Section 8.2). *)

module Cache = Cache
(** Semantic query-result cache with footprint-precise invalidation. *)

module Footprint = Footprint
(** The dn-subtree footprint of a query (the ranges its result reads). *)

module Vtrie = Vtrie
(** Subtree version counters over the dn hierarchy. *)

module Explain = Explain
(** Query plans: cost estimation and per-operator profiling. *)

module Fuse = Fuse
(** Boolean-subtree fusion rewrite (single-scan LDAP-style evaluation). *)

module Dist = Dist
(** Distributed evaluation across domain-owning servers (Section 8.3). *)

(** {1 Observability} *)

module Metrics = Metrics
(** Process-wide registry of counters, gauges and latency histograms. *)

module Trace = Trace
(** Per-query span trees (wall-clock + I/O deltas) and trace-id
    propagation for distributed stitching; [Tail] keeps the trees. *)

module Qlog = Qlog
(** The query journal: JSON-lines per-query events. *)

module Promexp = Promexp
(** Prometheus text exposition of the metrics registry. *)

module Chrome_trace = Chrome_trace
(** Chrome trace-event (catapult) export of span trees. *)

module Monitor = Monitor
(** Live HTTP introspection server (/metrics, /healthz, /trace, ...). *)

module Alerts = Alerts
(** SLO alerting: threshold/burn-rate rules over the metrics registry. *)

module Srv = Srv
(** The concurrent query-serving front-end: worker pool, bounded
    admission queue, deadlines, streamed results over HTTP and a line
    protocol. *)

module Srv_client = Srv_client
(** Line-protocol client for {!Srv} (the load generator speaks it). *)

module Json = Json
(** Minimal JSON parser/printer shared by the observability formats. *)

module Mclock = Mclock
(** Nanosecond clock and duration formatting. *)

(** {1 External-memory substrate} *)

module Io_stats = Io_stats
(** Page-transfer counters: the cost model of all complexity claims. *)

module Pager = Pager
(** Blocking-factor arithmetic. *)

module Ext_list = Ext_list
(** Simulated disk-resident record lists. *)

module Ext_sort = Ext_sort
(** External merge sort. *)

module Spill_stack = Spill_stack
(** The bounded-memory stack of the ComputeHS* algorithms. *)

module Buffer_pool = Buffer_pool
(** LRU page cache over the simulated disk. *)

(** {1 Secondary indexes (Section 4.1)} *)

module Btree = Btree
(** B+tree over integer attribute values. *)

module Str_trie = Str_trie
(** Tries and suffix-trie substring indexes for string filters. *)

module Dn_index = Dn_index
(** The clustering reverse-dn index. *)

module Attr_index = Attr_index
(** Per-attribute secondary index bundle. *)

(** {1 DEN applications (Section 2)} *)

module Qos = Qos
(** QoS / SLA policy administration (Example 2.1, Figure 12). *)

module Tops = Tops
(** TOPS dial-by-name (Example 2.2, Figure 11). *)

module Lists = Lists
(** Distribution lists with nested (possibly cyclic) membership. *)

(** {1 Workloads} *)

module Prng = Prng
(** Deterministic splitmix64 generator. *)

module Dif_gen = Dif_gen
(** Synthetic directory information forests. *)

module Query_mix = Query_mix
(** Seeded L0–L3 query-text streams for serving workloads. *)
