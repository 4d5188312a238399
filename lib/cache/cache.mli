(** The semantic query-result cache.

    Entries are keyed by the exact query text plus the query tree, as
    two trees can print alike, and carry the query's dn-subtree
    {!Footprint} with its {!Vtrie} version stamps.  A hit is served iff
    every stamp is current: updates outside the footprint never cost a
    cached result, updates inside it always invalidate.

    A page budget bounds the entries under GreedyDual-Size priced in
    page io: an entry's priority is [L + cost_io / pages], reset on
    each hit; an eviction takes the lowest priority (ties to the least
    recently used) and raises [L] to it, so equal cost per page is
    exact LRU.  A result is admitted only if its measured io reaches a
    threshold and no entry it would displace has a higher priority.

    A cache is an explicit handle, like [Io_stats] — no globals.
    {!attach} subscribes it to a {!Directory}'s update hooks; the
    directory's generation counter is the coarse safety net,
    invalidating everything if it advances without a notification. *)

type t

type outcome =
  | Hit of Entry.t array  (** fresh result, its priority reset *)
  | Stale  (** was cached, but its footprint's version advanced *)
  | Miss

val create : ?budget_pages:int -> ?admit_min_io:int -> unit -> t
(** [budget_pages] bounds the resident result pages (default 256);
    [admit_min_io] is the minimum measured evaluation io for a result
    to be admitted (default 2). *)

val attach : t -> Directory.t -> unit
(** Subscribe to the directory's update hooks for footprint-precise
    invalidation, and adopt its generation as the safety net. *)

val note_update : ?subtree:bool -> t -> Dn.t -> unit
(** Record an update at [dn] directly (for sources without hooks, e.g.
    a distributed coordinator told of a remote write). *)

val find : t -> query:string -> Ast.t -> outcome
(** Look up the result stored for this text and tree; a [Stale] entry
    is dropped and counted. *)

val peek : t -> query:string -> Ast.t -> Entry.t array option
(** Read-only probe: the fresh cached result if one exists, moving no
    counters and leaving every priority (and any stale entry) untouched.
    This is what the cost-based planner prices the cache path from —
    planning must not look like serving. *)

val store :
  t -> query:string -> Ast.t -> footprint:Footprint.t -> cost_io:int -> pages:int ->
  Entry.t array -> bool
(** Admit a result, evicting the lowest priorities to fit the budget,
    or refuse it — [false] — when [cost_io] is under the admission
    threshold, it alone exceeds the budget, or it would displace an
    entry of higher priority than its own [L + cost_io / pages]. *)

val clear : t -> unit
(** Drop every entry (counters survive). *)

val budget_pages : t -> int
val set_budget_pages : t -> int -> unit
(** Shrinking evicts immediately. *)

val admit_min_io : t -> int
val set_admit_min_io : t -> int -> unit

val check : t -> unit
(** For tests: raise [Failure] unless the heap is ordered, table and
    heap agree, and the page and byte totals are sums within budget. *)

type stats = {
  hits : int;
  misses : int;
  stale : int;  (** lookups that found an invalidated entry *)
  evictions : int;
  rejects : int;  (** admissions refused *)
  entries : int;
  used_pages : int;
  used_bytes : int;
  budget_pages : int;
  admit_min_io : int;
}

val stats : t -> stats
val hit_rate : stats -> float

(** The stats snapshot (plus derived hit rate) as a JSON object — the
    payload behind the introspection server's [/cache] route. *)
val stats_json : t -> Json.t
val pp : Format.formatter -> t -> unit
