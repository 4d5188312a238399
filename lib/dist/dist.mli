(** Distributed query evaluation (Sections 3.3 and 8.3).

    The namespace is split DNS-style into domains, each owning the
    subtree at its dn minus delegated subdomains, each served by one
    in-process server.  A coordinator routes each atomic sub-query to
    the servers owning parts of its base's subtree, ships the sorted
    partial results back (accounted in messages/bytes), merges them,
    and runs the ordinary operator algorithms locally. *)

type server = {
  name : string;
  domain : Dn.t;
  instance : Instance.t;  (** only the entries this server owns *)
  engine : Engine.t;
}

type network = { servers : server list; block : int }

val owner_domain : Dn.t list -> Dn.t -> Dn.t option
(** The most specific registered domain covering a dn. *)

val deploy : ?block:int -> Instance.t -> Dn.t list -> network
(** Partition an instance over the given domains (most specific domain
    owns each entry; uncovered entries go to the root-most domain).
    @raise Invalid_argument on an empty domain list. *)

val find_server : network -> Dn.t -> server

type coordinator = {
  network : network;
  home : server;  (** the server the query was posed to *)
  stats : Io_stats.t;  (** coordinator-side cost including shipping *)
  pager : Pager.t;
  result_cache : Cache.t option;
      (** shipped sub-query results, keyed per answering server *)
}

val coordinator : ?result_cache:Cache.t -> network -> Dn.t -> coordinator
(** A coordinator at the server owning the given dn.  With a
    [result_cache], remote atomic sub-query results are cached per
    answering server: a fresh entry skips the round trip (the saved
    messages and bytes are counted under
    [dist_cache_saved_messages_total] / [dist_cache_saved_bytes_total]),
    and {!note_update} invalidates by footprint. *)

val note_update : ?subtree:bool -> coordinator -> Dn.t -> unit
(** Tell the coordinator's result cache an entry at [dn] changed on
    some server (no-op without a cache). *)

val involved_servers : coordinator -> Ast.atomic -> server list
(** The owner of the base plus every server whose domain lies inside the
    base's subtree. *)

val eval : ?mode:Engine.mode -> coordinator -> Ast.t -> Entry.t Ext_list.t
(** Evaluate a query tree at this coordinator through {!Engine.walk},
    its leaf merging each atomic's shipped shards (default
    [Engine.Streaming]: operator boundaries above the shipped shards
    pipeline, and only the root result is written at the coordinator).
    When the query journal
    ({!Qlog}) is enabled, the coordinator records one event per query —
    attributed to the home server, with per-server shipped
    messages/bytes — and each involved server's engine records its own
    event for the atomic sub-query it answered, attributed to that
    server.  When tracing is on, the coordinator mints one {!Trace} id
    per query and binds it for the query's whole extent: its own merge
    spans ([actor = "coordinator"]), every server's engine spans
    ([actor] = the server name) and all their journal events share the
    id, so the distributed evaluation stitches into one trace
    (exportable with {!Chrome_trace}). *)

val eval_entries : ?mode:Engine.mode -> coordinator -> Ast.t -> Entry.t list

val server_stats : network -> (string * Io_stats.t) list
val reset_all : coordinator -> unit
