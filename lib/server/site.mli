(** The per-site protocol of the paper's Section 3.2, written once for
    both engines.

    Every HyperFile site runs the identical algorithm.  This module
    holds what one site knows — its per-query contexts and its view of
    its peers (learned Bloom summaries, their Bloofi tree, summary
    epochs, the remote-answer cache) — and makes the decisions that
    need no clock or socket: it evaluates work items, routes them
    through the cache layer, counts every verdict into the context's
    {!Metrics.t}, and moves termination credit ({!Termination}, over
    any detector).  The simulator ({!Hf_server.Cluster}) and the socket
    engine ([Hf_net.Tcp_site]) drive it and ship the same
    {!Hf_proto.Message.msg}; each keeps its own batcher, scheduler,
    costs, spans and wire form, and receives what must leave the site
    through a {!sink}. *)

module Oid = Hf_data.Oid

type exec_mode =
  | Exec_ship  (** the paper's protocol: work items follow the pointer chain. *)
  | Exec_scatter
      (** single-round scatter-gather whenever the program is eligible
          (no finite iterators); ineligible queries ship. *)
  | Exec_auto
      (** per-query cost-based choice ({!Hf_query.Plan.decide}); see
          doc/execution_modes.md. *)

(** {1 The originator's answer} *)

type final = {
  mutable results : Oid.t list;  (** newest first *)
  mutable set : Oid.Set.t;
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;
  mutable unreachable : int list;
      (** sites given up on while the query ran: the answer is partial
          with respect to them *)
}
(** A query's final result, built at its originator. *)

val final : unit -> final

val join : final -> ('w, 'b) Hf_proto.Message.msg -> unit
(** An answer's share of [final]: a [Result]'s items and bindings, or a
    [Site_unreachable]'s dead site; other messages change nothing.  It
    needs no context, so an answer that lands after the detector
    converged still counts. *)

(** {1 Sites and contexts} *)

type t
(** One site's protocol state: its store and its view of its peers. *)

val create :
  id:int ->
  store:Hf_data.Store.t ->
  clock:(unit -> float) ->
  cache:Hf_index.Remote_cache.config option ->
  serve_hits:bool ->
  bloofi:bool ->
  bloofi_depth:Hf_obs.Histogram.t ->
  t
(** Every oid lives at its birth site.  [clock] stamps cache entries
    for their TTL (virtual or wall time).  [cache] turns
    on the remote-answer cache and the Bloom summary channel
    (DESIGN.md §4g).  [serve_hits] says whether a cache hit may answer
    an item locally; [false] ships it anyway.  [bloofi] keeps a Bloofi
    tree over the learned summaries, and every planner descent records
    its depth in [bloofi_depth]. *)

val cache : t -> Hf_index.Remote_cache.t option
val bloofi : t -> Hf_index.Bloofi.t option

type 'w ctx = {
  query : Hf_proto.Message.query_id;
  plan : Hf_engine.Plan.t;
  origin : int;
  n_sites : int;  (** the cluster is sites [0 .. n_sites - 1] *)
  span : int;  (** this site's evaluation span for the query *)
  metrics : Metrics.t;
      (** where this site counts the query's verdicts: the query's own
          record in the simulator, the site's in the socket engine *)
  marks : Hf_engine.Mark_table.t;
  work : 'w Hf_util.Deque.t;
      (** the working set; each driver chooses what an entry carries *)
  stats : Hf_engine.Stats.t;
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;
      (** emitted here and not yet shipped or published *)
  final : final;  (** the query's answer; written only at the originator *)
  mutable result_buffer : Oid.t list;  (** pending shipment, newest first *)
  mutable local_result_set : Oid.Set.t;  (** every result found here *)
  mutable active : int;
      (** evaluation under way outside [work]: items popped but not
          settled, or drains still running *)
  mutable buffered : int;  (** items handed to a batcher, not yet shipped *)
  validated : (int, int) Hashtbl.t;
      (** destination -> store version vouched for this query *)
  validating : (int, unit) Hashtbl.t;
      (** destinations with a [Cache_validate] in flight *)
  parked : (int, Hf_engine.Work_item.t list) Hashtbl.t;
      (** destination -> items waiting on its validation, newest first *)
  mutable parked_count : int;
  mutable answers : Hf_proto.Message.cache_answer list;
      (** cacheable verdicts computed here for the originator, newest
          first *)
  mutable answers_version : int;  (** store version of [answers] *)
  mutable scatter : Hf_engine.Scatter.Stitch.t option;
      (** the stitch, at the originator of a scattered query *)
}
(** A site's state for one query.  Drivers read it freely; the
    decisions that change it belong to the functions below. *)

val context :
  ?marks:Hf_engine.Mark_table.t ->
  ?final:final ->
  metrics:Metrics.t ->
  n_sites:int ->
  query:Hf_proto.Message.query_id ->
  span:int ->
  Hf_query.Program.t ->
  'w ctx
(** A fresh context.  [marks] defaults to a fresh table (the simulator
    shares the originator's under its global-marks ablation); [final]
    defaults to a fresh answer (the originator passes the query's). *)

val eval_domain : t -> 'w ctx -> roots:Oid.t list -> Hf_engine.Scatter.node list
(** A scattered query's speculation domain here: [roots] plus every
    local object at every landing index ({!Hf_engine.Scatter.eval_site}). *)

val ready : 'w ctx -> bool
(** The drain condition: no queued or active work, nothing buffered or
    parked, and no gather outstanding. *)

(** {1 The work path} *)

type route =
  | Ship  (** the cache has nothing to say: the item ships *)
  | Pruned  (** the destination's summary proves the item dies there *)
  | Hit of bool
      (** served from the cache; a passing verdict is already recorded *)
  | Miss of { invalidated : bool }
      (** it ships; [invalidated] when a stale entry was evicted *)
  | Parked  (** waiting behind a validation already in flight *)
  | Validate  (** parked; the driver sends the [Cache_validate] *)
  | Dangling
      (** the destination is outside the cluster: the pointer dangles,
          and the item is dropped as {!Hf_engine.Eval} drops a pointer
          to an object its store lacks *)
(** Where the cache layer sends one item bound for another site.  With
    the cache off every item ships.  At a vouched version it is pruned,
    hit or missed — pruned and hit items never reach a batcher, so
    their credit is never split.  Otherwise it parks until the
    destination's version is known. *)

type sink = {
  local : Hf_engine.Work_item.t -> unit;  (** an item for this site's store *)
  ship : int -> Hf_engine.Work_item.t -> unit;
      (** an item for the batcher, bound for the site given; already
          counted in [buffered] *)
  verdict : int -> route -> unit;
      (** every routing verdict, with its destination, before the item
          moves on: the driver sends the [Cache_validate] a [Validate]
          asks for, and may trace the rest *)
}
(** Where a driver takes what the work path hands it. *)

val step : t -> 'w ctx -> sink -> record:bool -> Hf_engine.Work_item.t -> Hf_engine.Eval.step_result
(** One item of the per-object loop: {!Hf_engine.Eval.run_object}
    against this site's store, emitting into [ctx.bindings].  Spawns
    for this store go to [local]; the rest are routed as {!dispatch}
    routes them, except those the context's mark table already holds
    (only a table shared across sites marks another site's objects).
    With [record], the item's verdict is kept for the originator's
    cache when the cache is on, the item ran for real away from the
    originator and its reachable suffix is store-state-only (an older
    store version's verdicts are dropped first).  A passing object
    joins the local result set, then the answer at the originator or
    the result buffer elsewhere; repeats are ignored. *)

val dispatch : t -> 'w ctx -> sink -> Hf_engine.Work_item.t list -> unit
(** Route items the driver holds — seeds, scatter strays — in order:
    one for this store goes to [local], any other through the cache
    layer ({!route}), counted into [ctx.metrics] once. *)

val drop_parked : 'w ctx -> unit
(** Forget every parked item: the query was cancelled or evicted. *)

val unpark : t -> 'w ctx -> sink -> dst:int -> version:int option -> int
(** Stop waiting on [dst] and route its parked items in arrival order;
    how many there were.  [Some version]: vouch for it, and resolve
    each item against it.  [None] (the validation round trip died):
    every item ships. *)

(** {1 The cache control plane} *)

val validate_reply : t -> peer:int -> int * string option
(** Answer a [Cache_validate] from [peer]: this store's version, and
    its Bloom summary in {!Hf_index.Bloom.to_string}'s wire form unless
    [peer] was already told this version's.  A rebuilt summary
    advances {!epoch}. *)

val epoch : t -> int
(** How many times this site rebuilt its summary for a validation. *)

val learn : t -> peer:int -> version:int -> epoch:int -> string option -> unit
(** Learn from a [Cache_version] reply and the summary aboard, in
    {!validate_reply}'s wire form.  An epoch lower than the last one
    seen from [peer] means its lineage restarted: its summary, Bloofi
    leaf and cached verdicts are dropped.  A summary that decodes is
    installed (with its leaf), and one that does not teaches nothing.
    No summary means the asker already holds this version's: at
    another version the one held is stale and is dropped. *)

val learned : t -> peer:int -> (int * Hf_index.Bloom.t) option
(** The (version, summary) learned from [peer], if any. *)

val summary : t -> Hf_index.Bloom.t option
(** This site's own summary at its current store version, memoized;
    [None] with the cache off.  Does not advance {!epoch}. *)

val fill : t -> 'w ctx -> src:int -> version:int -> Hf_proto.Message.cache_answer list -> unit
(** Install the verdicts [src] computed at [version], counting them as
    fills (none with the cache off). *)

(** {1 Planning (doc/execution_modes.md)} *)

val sync_bloofi : t -> n_sites:int -> summary:(int -> Hf_index.Bloom.t option) -> unit
(** Bring the Bloofi leaves in line with [summary]: insert peers whose
    filter changed (physically), remove peers it no longer vouches for.
    No-op with the tree off. *)

type descent
(** One Bloofi descent's verdicts. *)

val descend : t -> string list list -> descent option
(** Descend the tree with a disjunction of probe groups.  [None] with
    the tree off or empty. *)

val may_match : descent -> site:int -> bool option
(** The descent's verdict for an indexed site; [None] if unindexed. *)

val decide :
  t ->
  n_sites:int ->
  summary:(int -> Hf_index.Bloom.t option) ->
  objects:(int -> Hf_index.Bloom.t option -> int option) ->
  costs:(item_bytes:int -> p_local:float -> Hf_query.Plan.costs) ->
  Hf_query.Program.t ->
  Oid.t list ->
  Hf_query.Plan.decision
(** Price shipping against scatter for a query issued here over the
    initial oids.  Seed sites are the oids' birth sites inside the
    cluster (a seed born outside it dangles); each peer's hint
    from [summary peer] (its filter, if any) and [objects peer summary]
    (its object count, if known), with one Bloofi descent replacing the
    flat landing probes for indexed peers; [costs] turns the item size
    and the locality signal — the fraction of this store's pointer
    tuples that stay on this site, memoized per store version — into
    unit costs. *)

val select :
  'w ctx ->
  exec_mode ->
  scatter_ok:bool ->
  (unit -> Hf_query.Plan.decision) ->
  Hf_query.Plan.decision option * int list option
(** The planner's decision ([None] under [Exec_ship], where it never
    runs) and the sites to scatter to, if the query scatters; a choice
    is counted into [ctx.metrics].  [scatter_ok] is whether the engine
    configuration allows scatter at all. *)

val scatter_seed :
  t -> 'w ctx -> sites:int list -> Oid.t list -> (int -> Oid.t list) * Oid.t list
(** Partition the seeds over the originator and [sites] and install
    the stitch in [ctx.scatter].  Returns each site's roots, and the
    stray seeds (born outside that set, in seed order) that must
    ship classically. *)

val stitch : t -> 'w ctx -> sink -> site:int -> Hf_engine.Scatter.node list -> int
(** At the originator: stitch in [site]'s gather (the originator's own
    domain counts as one).  Newly activated passing nodes join the
    results and their bindings the answer; the chains that escaped the
    scattered sites are counted as fallbacks and routed as {!dispatch}
    routes them.  Returns how many escaped. *)

val gather_lost : 'w ctx -> site:int -> unit
(** [site] died before gathering: its slot closes empty, losing the
    chains parked for it as classic shipping would. *)

(** {1 Termination credit (the paper's Section 4)} *)

(** How a detector's payloads ride the messages: work carries [work]
    out, answers carry [back] home.  The simulator's map is the
    identity; the wire's turns credit into atom exponents. *)
module type PAYLOAD = sig
  type tag
  type control
  type work
  type back

  val work : tag -> work
  val tag : work -> tag
  val back : control list -> back
  val controls : back -> control list
end

(** The map of an engine whose messages carry the detector's payloads
    as they are (the simulator's). *)
module Identity (D : Hf_termination.Detector.S) :
  PAYLOAD
    with type tag := D.tag
     and type control := D.control
     and type work = D.tag
     and type back = D.control list

(** Every path that splits, deposits, returns or unwinds credit, over a
    detector.  Each hands back [out]: the messages to send, in order,
    with their destinations, and whether the originator now knows the
    query terminated. *)
module Termination
    (D : Hf_termination.Detector.S)
    (P : PAYLOAD with type tag := D.tag and type control := D.control) : sig
  type msg = (P.work, P.back) Hf_proto.Message.msg
  type out = (int * msg) list * bool

  val split : D.t -> dst:int -> P.work
  (** The share one work message for [dst] carries (a scatter, a
      seed). *)

  val group : 'w ctx -> D.t -> dst:int -> Hf_engine.Work_item.t list -> P.work Hf_proto.Message.batch_group
  (** A batcher flushed [items] for [dst]: they leave [buffered], and
      one share covers them all. *)

  val deposit : 'w ctx -> D.t -> src:int -> P.work -> out
  (** Work from [src] arrived with [work]. *)

  val poll : 'w ctx -> D.t -> out
  (** A wave-based detector's poll at the originator. *)

  val drain :
    ?payload:(Oid.t list -> Hf_proto.Message.result_payload) -> t -> 'w ctx -> D.t -> out
  (** The drain tail, once {!ready}: away from the originator the
      cached verdicts recorded here ({!step}) go home in
      capture order, then the buffered results (oldest first, as
      [payload] makes them, default [Items]) and emitted bindings, the
      controls for the originator aboard — or the controls alone.  At
      the originator the bindings emitted here join the answer. *)

  val answer :
    'w ctx -> D.t -> src:int -> stitch:(src:int -> Hf_engine.Scatter.node list -> unit) ->
    msg -> out
  (** A [Result], [Credit_return] or [Gather_result] from [src]
      deposits its credit ({!join} takes what joins the answer); a
      gather goes to [stitch] first, so escaped chains split their
      shares before its credit lands.  Other messages change nothing. *)

  val scatter_reply : t -> 'w ctx -> D.t -> src:int -> roots:Oid.t list -> P.work -> out
  (** A [Scatter]: deposit its share, evaluate the domain over [roots]
      and answer with one [Gather_result].  A {!ready} context drains
      now, its controls for the originator aboard the gather; otherwise
      the share goes home with the pending work's drain. *)

  val unwind : t -> 'w ctx -> D.t -> dst:int -> P.work -> out
  (** Work carrying [work] to [dst] was given up unprocessed: take its
      pledge back, and tell the originator [dst] is unreachable — here
      in its answer, or by a [Site_unreachable] ahead of any credit. *)
end
