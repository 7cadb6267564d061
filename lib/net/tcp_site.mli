(** A real HyperFile site over TCP — the Section 3.2 protocol on actual
    sockets, using the same wire messages and codec the simulator
    accounts for.

    Lifecycle: {!create} each site (binds an ephemeral loopback port and
    starts its event loop), collect the {!address}es, {!set_peers} on
    every site, then load stores and issue queries from any site with
    {!run_query} — or {!submit_query}/{!await} to keep several in
    flight.  {!shutdown} closes sockets and stops the loop.

    A site runs one thread, its event loop, which owns every socket and
    all protocol state.  Calls from other threads hand their work to the
    loop and wait for its answer; a call made on the loop runs inline.
    The one exception is {!store}: writes through it are not
    synchronized with the loop's reads, so load stores before querying.

    Queries run concurrently (DESIGN.md §4h): each locally-issued query
    passes an admission gate ({!Hf_server.Sched}) and the loop drains
    every runnable query in bounded slices, round-robin, so N in-flight
    queries — and incoming work from other origins — interleave instead
    of queueing behind one long drain.

    Objects live at their birth site ([Oid.birth_site] routes
    dereferences), as in the simulated cluster. *)

type t

type exec_mode = Hf_server.Site.exec_mode =
  | Exec_ship  (** classic query shipping only; no planner runs. *)
  | Exec_scatter
      (** scatter-gather whenever the program is eligible (no [.\[n\]]
          finite iterators) and some site is predicted. *)
  | Exec_auto
      (** per-query cost-based choice ({!Hf_query.Plan}); see
          doc/execution_modes.md. *)

val create :
  site:int ->
  ?batch:Hf_proto.Batch.flush_policy ->
  ?reliability:Hf_proto.Reliable.config ->
  ?cache:Hf_index.Remote_cache.config ->
  ?admission:Hf_server.Sched.config ->
  ?exec:exec_mode ->
  ?tracer:Hf_obs.Tracer.t ->
  ?monitor_port:int ->
  unit ->
  t
(** Bind 127.0.0.1 on an ephemeral port and start the site's event
    loop.  The process then ignores SIGPIPE: a write to a peer that
    closed its end fails, and the site drops that connection.

    [batch] (default [Flush_at 1], i.e. unbatched) coalesces work items
    bound for the same destination into one [Work_batch] message with a
    single credit split; leftovers always flush before the site drains,
    so termination is never delayed.  Single-item flushes go out as
    plain [Deref_request]s — with the default policy the wire traffic is
    byte-identical to the unbatched protocol.

    [tracer] (default {!Hf_obs.Tracer.noop}) records spans; when every
    site of an in-process cluster shares one tracer, wire messages
    carry the sender's span id and the receiver closes the span on
    arrival, so shipping spans cover real transit and remote evaluation
    spans parent on the originating site's.  With tracing off the wire
    bytes are unchanged, and the site builds no span name, detail or
    query name: a frame's instrumentation costs a branch.  With tracing
    on, each query's name is rendered once per context.

    [reliability] (default off) layers ack/retransmit delivery under
    the protocol ({!Hf_proto.Reliable}): every frame carries a
    per-peer sequence number and a piggybacked cumulative ack, the
    loop retransmits unacknowledged frames with exponential
    backoff, receivers drop redelivered duplicates before they reach a
    handler, and a peer that exhausts the retry cap is declared
    unreachable — its messages' credit reclaimed so the query still
    terminates, with a {!Partial} status.  All sites of a cluster must
    agree on whether reliability is on (the envelope changes the frame
    layout).  See doc/fault_tolerance.md.

    [cache] (default off) enables the cross-site acceleration layer
    (DESIGN.md §4g): before the first ship to a destination the query
    validates the destination's store version (items wait parked, their
    credit unsplit); at a validated version, verdicts cached from
    earlier queries answer items locally without splitting credit, and
    the destination's Bloom tuple summary prunes ships that provably
    die on arrival.  Enable it on every site of a cluster — a
    non-caching site still answers validations (version-only) but
    never parks, caches or prunes.

    [exec] (default {!Exec_ship}, the byte-identical legacy behavior)
    selects the execution mode for locally-issued queries.  Under
    {!Exec_auto} a cost-based planner ({!Hf_query.Plan}) prices classic
    query shipping against single-round scatter-gather — using seed
    placement, the Bloom summaries learned from [Cache_version] replies
    and a locality scan of the local store — and picks per query; the
    decision is returned in the outcome.  Results are byte-identical
    across modes: a chain that escapes the predicted site set falls
    back to classic shipping.  See doc/execution_modes.md.

    The site maintains a {!Hf_index.Bloofi} tree over the peer
    summaries learned from [Cache_version] replies, and the planner
    predicts the touched-site set from one tree descent, in
    O(d·log_d N) node touches; the descents feed the [hf.index.bloofi_*]
    metrics.  An epoch regression on a [Cache_version] reply (the peer
    restarted) drops that peer's learned summary and leaf wholesale — a
    stale tree may over-ship but never wrongly prunes.

    [admission] (default {!Hf_server.Sched.unlimited}) caps locally
    issued queries: at most [in_flight_cap] run at once, up to
    [max_queued] more wait in the fair admission queue
    ({!submit_query} raises [Failure] beyond that), and with
    reliability on, the loop stops evaluating while some link holds
    [link_window] or more unacked frames (backpressure).

    [monitor_port] (default off) binds an always-on monitoring surface:
    a plain-TCP loopback listener (port 0 = ephemeral, see
    {!monitor_address}) that answers every connection with a Prometheus
    text dump of this site's registry — each metric labeled
    [site="<id>"] — and closes.  No HTTP framing: [nc localhost port]
    or [hfql stats] reads it directly. *)

val address : t -> Unix.sockaddr

val set_peers : t -> Unix.sockaddr array -> unit
(** [peers.(i)] must be site [i]'s address (own entry included). *)

val store : t -> Hf_data.Store.t

val id : t -> int

val registry : t -> Hf_obs.Registry.t
(** Per-site transport metrics: [hf.net.messages_sent], [hf.net.bytes_sent],
    [hf.net.messages_received], the [hf.net.sent_frame_bytes] histogram
    (per-message encoded size) and [hf.net.query_rtt_s] (the wall-clock
    response time of each query issued here that ends [Complete] or
    [Partial]: one sample per query, however often it is awaited).  With reliability on, also
    [hf.net.retransmits], [hf.net.dup_drops], [hf.net.acks_sent],
    [hf.net.give_ups] and the [hf.net.ack_latency_s] histogram.  With
    the cache on, [hf.net.cache_hits], [hf.net.cache_misses],
    [hf.net.cache_prunes], [hf.net.cache_validations],
    [hf.net.cache_fills] and [hf.net.cache_invalidations].  Scatter-gather
    traffic and planner decisions show as [hf.net.scatter_messages],
    [hf.net.gather_messages], [hf.net.gather_nodes],
    [hf.net.scatter_fallbacks], [hf.net.planner_scatter] and
    [hf.net.planner_ship]. *)

type status =
  | Complete  (** all credit recovered, no site given up on. *)
  | Partial of int list
      (** terminated, but retransmission exhausted its retries on these
          sites (ascending): their contribution is missing and every
          other site's is fully accounted for.  Requires reliability;
          "the peer is dead" — a positive statement, unlike a
          timeout. *)
  | Timed_out
      (** the timeout expired before credit converged: "the peer may
          merely be slow" — [results] holds whatever arrived. *)
  | Cancelled  (** the caller {!cancel}led the query before it
          terminated. *)

type outcome = {
  results : Hf_data.Oid.t list;  (** arrival order at the originator. *)
  result_set : Hf_data.Oid.Set.t;
  bindings : (string * Hf_data.Value.t list) list;
  terminated : bool;
      (** [false] exactly when [status] is [Timed_out] or [Cancelled]. *)
  status : status;
  response_time : float;
      (** wall-clock seconds from submission until the query terminated
          or was cancelled; until the call, when [Timed_out]. *)
  queue_wait_s : float;
      (** time spent in the admission queue before the query started
          (0 when admission was immediate). *)
  messages_sent : int;
      (** wire messages this site sent for THIS query (work, results,
          credit, cache traffic and their retransmissions) — attributed
          per query, so concurrent neighbors never bleed into each
          other's outcome.  Standalone link acks and post-termination
          [Query_done] frames are link housekeeping and appear only in
          the site-global [hf.net.*] counters. *)
  bytes_sent : int;
  mode : Hf_query.Plan.mode;
      (** which execution mode actually ran this query ([Ship] under
          [Exec_ship], or when the planner declined scatter). *)
  plan_decision : Hf_query.Plan.decision option;
      (** the planner's full verdict; [None] under [Exec_ship]. *)
}

type handle
(** A locally-issued, not-yet-awaited query. *)

val submit_query : t -> Hf_query.Program.t -> Hf_data.Oid.t list -> handle
(** Issue a query from this site over the initial set and return
    without waiting; any number may be in flight at once.  The
    admission gate either starts it now or queues it (fairly) until a
    running one finishes.  Raises [Failure] when the admission queue is
    full ([max_queued]), or when the site is shut down. *)

val await : ?timeout:float -> t -> handle -> outcome
(** Wait until the query terminates (all credit recovered), is
    cancelled, or the timeout (default 10 s) expires.  With reliability
    on, a permanently dead peer does not hang the query until the
    timeout: once its retry budget is spent the credit aboard its
    messages is reclaimed, termination converges, and the outcome is
    [Partial].  A timeout leaves the query running (slot held); [await]
    again to keep waiting. *)

val cancel : t -> handle -> unit
(** Abort a local query: a queued one just leaves the admission queue,
    a running one has its state discarded here and at every peer
    ([Query_done] broadcast), and its admission slot is freed — the
    outstanding credit is deliberately not recovered, which is sound
    because a cancelled query no longer needs termination to converge.
    Idempotent; terminated queries, and every query of a shut-down
    site, are left alone. *)

val run_query :
  ?timeout:float -> t -> Hf_query.Program.t -> Hf_data.Oid.t list -> outcome
(** [submit_query] + [await]. *)

val explain : t -> Hf_query.Program.t -> Hf_data.Oid.t list -> Hf_query.Plan.decision
(** The planner's verdict for this query, without running it — what
    [hfql :plan] renders.  Uses whatever summaries this site has
    learned so far; independent of [exec] (an [Exec_ship] site can
    still explain).  Raises [Failure] when the site is shut down. *)

val context_count : t -> int
(** Live per-query contexts at this site (any origin).  Terminated and
    cancelled queries are evicted, so an idle site returns 0. *)

val admission_running : t -> int
(** Locally-issued queries currently admitted. *)

val admission_queued : t -> int
(** Locally-issued queries waiting in the admission queue. *)

(** {1 Cluster-wide stats and profiles (DESIGN.md §4i)} *)

val pull_stats : ?timeout:float -> t -> (int * Hf_obs.Registry.snapshot) list
(** Snapshot every site's registry: broadcast a [Stats_pull] under a
    fresh token and wait (default 5 s) until each peer's report lands.
    A peer that misses the deadline contributes its last-known snapshot
    if any, so a dead site degrades the scrape instead of hanging it.
    Returns (site, snapshot) pairs including this site, ascending.
    Stats messages are credit-free and loss-tolerant — they never touch
    termination detection. *)

val known_peer_stats : t -> (int * Hf_obs.Registry.snapshot) list
(** Last-known peer snapshots without going to the wire: the latest
    [Stats_report] each peer sent.  Empty until some report landed. *)

val monitor_address : t -> Unix.sockaddr option
(** The monitoring listener's bound address ([None] when [monitor_port]
    was not given). *)

val profile : t -> handle -> outcome -> Hf_obs.Profile.t
(** EXPLAIN ANALYZE: fold the tracer's spans for this query into a
    per-site phase/rounds breakdown, with the outcome's per-query
    counters ([messages_sent], [bytes_sent], [queue_wait_s],
    [response_time_s], [results]) pinned alongside as scalars.  Call
    after {!await}.  Sites sharing one tracer get the full cross-site
    picture; separate processes each see their own half. *)

val shutdown : t -> unit
(** Close the listeners and inbound connections, retire every outbound
    connection and wait for the loop to exit; idempotent.  Queued frames
    are written, but a peer that takes nothing for 50 ms loses the rest,
    so shutdown does not hang on a stalled socket.  A shut-down site
    opens no connection, and every other call returns at once over the
    state the loop left. *)
