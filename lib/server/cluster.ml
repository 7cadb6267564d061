(* The distributed HyperFile server (paper, Section 3.2), running on the
   discrete-event simulator.

   Every site runs the identical algorithm, whose decisions live in
   [Site] (shared with the socket engine): it keeps a context per query
   and processes work items with the local engine.  When a dereference
   reaches an object stored at another site, the query — not the object —
   is shipped there: a work message carrying (Q.id, Q.originator, Q.body,
   Q.size, O.id, O.start, O.iter#).  Results flow directly to the
   originating site; a site ships its buffered results whenever its
   working set drains, and the query context stays in place so later
   dereferences reuse it.  The messages are the wire's
   ([Hf_proto.Message]), with this engine's termination payload:
   detection is pluggable (functorized) — work messages carry a
   detector tag and detectors may exchange control messages, which
   piggyback on result messages when they travel to the originator
   anyway.

   Work messages batch: remote dereferences pass through a per-site,
   per-destination buffer (shared across concurrent queries) and one
   wire message ships every buffered item for a destination, grouped by
   query with one header and one credit split per group.  The flush
   policy is [config.batch]: at K buffered items for a destination the
   flushing task ships them inline; whatever remains ships when the
   site's task queue runs dry (end of the local pump cycle).  A context
   never drains while it still owns buffered items, so termination is
   detected only after every buffered item is on the wire.  [Flush_at 1]
   reproduces the unbatched per-item protocol exactly — bytes, timing
   and message counts.

   Timing model: each site is a serial CPU.  Site work is queued as
   tasks; a task computes its outcome and duration when it starts, and
   its effects (message deliveries, new work) apply when it completes.
   Costs come from [Hf_sim.Costs] (default: the paper's measured basic
   times). *)

module Oid = Hf_data.Oid
module Message = Hf_proto.Message

type result_mode =
  | Ship_items
  | Ship_counts (* the distributed-set optimisation of Section 5 *)
  | Ship_threshold of int
      (* the paper's refinement: ship members for small batches, counts
         once a site's batch reaches the threshold *)

type mark_scope =
  | Local_marks (* the paper's choice: per-site tables, duplicate messages possible *)
  | Global_marks (* ablation: an oracle global table suppresses duplicate sends *)

(* Execution-mode selection, shared with the socket engine (see [Site]). *)
type exec_mode = Site.exec_mode = Exec_ship | Exec_scatter | Exec_auto

type config = {
  costs : Hf_sim.Costs.t;
  result_mode : result_mode;
  mark_scope : mark_scope;
  jitter : float;
      (* extra transit, uniform in [0, jitter], drawn per message from a
         seeded PRNG — makes message reordering reachable in tests while
         keeping runs reproducible *)
  loss : float;
      (* per-message drop probability (work, result and control messages
         alike) — failure injection; queries then typically time out
         with partial results *)
  jitter_seed : int;
  batch : Hf_proto.Batch.flush_policy;
      (* per-destination work-message batching: [Flush_at 1] ships one
         message per item (the paper's protocol); larger K coalesces
         same-destination items — across concurrent queries — into one
         message, amortizing the ~50 ms per-message overhead *)
  reliability : Hf_proto.Reliable.config option;
      (* [Some _] sequences every protocol message per destination,
         piggybacks cumulative acks, retransmits on ack timeout (timers
         ride the event queue, in virtual time) and dedups redelivery
         at the receiver, so lossy runs return the lossless answer;
         when the retry cap declares a peer unreachable its credit is
         reclaimed and the query finishes with the peer listed in
         [outcome.unreachable_sites].  [None] (the default) is the
         bare paper protocol: a drop loses the message, and its credit,
         for good. *)
  cache : Hf_index.Remote_cache.config option;
      (* [Some _] enables the cross-site acceleration layer (DESIGN.md
         §4g): before the first ship to a destination, a query
         validates the destination's store version (items wait parked,
         their credit unsplit); at a validated version, verdicts cached
         from earlier traffic answer items locally without splitting
         credit, and the destination's Bloom tuple summary prunes
         ships that provably die on arrival.  Entries age in virtual
         time per [ttl].  [None] (the default) ships every item. *)
  admission : Sched.config;
      (* per-origin admission gate (DESIGN.md §4h): at most
         [in_flight_cap] queries from one origin run at once, excess
         submissions wait in a fair queue bounded by [max_queued].
         [Sched.unlimited] (the default) admits everything immediately —
         the pre-concurrency behavior. *)
  exec : exec_mode;
      (* execution-mode selection; [Exec_ship] (the default) is the
         paper's protocol, byte-identical to the pre-planner code *)
  bloofi : bool;
      (* [true] (the default): each origin maintains a Bloofi tree
         (Hf_index.Bloofi) over the per-peer Bloom summaries and the
         planner predicts the touched-site set from one root-to-leaf
         descent instead of probing N flat filters; distributed
         re-seeding ([run_query_on_distributed]) consults the same tree
         before broadcasting.  [false] is the flat per-peer scan — the
         two must answer identically (the differential cube checks
         byte-identical results), the tree just answers in
         O(d·log_d N) touches on selective programs. *)
}

let default_config =
  { costs = Hf_sim.Costs.paper; result_mode = Ship_items; mark_scope = Local_marks;
    jitter = 0.0; loss = 0.0; jitter_seed = 1;
    batch = Hf_proto.Batch.unbatched; reliability = None; cache = None;
    admission = Sched.unlimited; exec = Exec_ship; bloofi = true }

type outcome = {
  results : Oid.t list; (* in arrival order at the originator *)
  result_set : Oid.Set.t;
  bindings : (string * Hf_data.Value.t list) list;
  counts : (int * int) list; (* (site, local result count), Ship_counts mode *)
  terminated : bool;
  unreachable_sites : int list;
      (* peers the reliability layer gave up on; non-empty + terminated
         means the answer is explicitly partial rather than hung *)
  response_time : float; (* virtual seconds from issue to detected termination *)
  queue_wait_s : float;
      (* virtual seconds the submission waited at the admission gate
         before seeding; 0 when admission was immediate *)
  metrics : Metrics.t;
  engine_stats : Hf_engine.Stats.t; (* merged over sites *)
  mode : Hf_query.Plan.mode; (* execution mode that actually ran *)
  plan_decision : Hf_query.Plan.decision option;
      (* the planner's full cost comparison; [None] under [Exec_ship],
         where the planner never runs *)
}

module Make (D : Hf_termination.Detector.S) = struct
  (* The credit paths, shared with the socket engine; this engine's
     messages carry the detector's payloads as they are. *)
  module C = Site.Termination (D) (Site.Identity (D))

  type work_source = Seeded | From_network

  (* The shared per-query site state, plus this engine's detector.
     [core.active] counts items popped from W whose task has not
     completed; [core.buffered] counts items in the site's outgoing
     batcher.  Its evaluation span parents on the work message that
     first reached the site (or the query root at the originator); its
     mark table is shared across sites under Global_marks. *)
  type context = {
    core : (Hf_engine.Work_item.t * work_source) Site.ctx;
    detector : D.t;
  }

  type open_query = {
    id : Message.query_id;
    program : Hf_query.Program.t;
    start_time : float;
    span : int; (* root span: submit to detected termination *)
    metrics : Metrics.t;
    final : Site.final; (* shared with the originator's context *)
    mutable counts : (int * int) list;
    mutable terminated : bool;
    mutable finish_time : float;
    mutable admitted : bool;
        (* past the admission gate; false while queued behind the
           in-flight cap (and forever for rejected/cancelled-queued) *)
    mutable queue_wait_s : float;
        (* time spent queued at the admission gate before seeding *)
    mutable cancelled : bool;
        (* cancelled by the caller: contexts evicted, late messages
           dropped, detector state discarded *)
    mutable captured : (Hf_engine.Stats.t * int) option;
        (* (merged engine stats, originator's local result count),
           snapshotted at termination — the per-site contexts are
           evicted then, so the outcome can no longer read them live *)
    mutable mode : Hf_query.Plan.mode; (* execution mode that ran *)
    mutable decision : Hf_query.Plan.decision option; (* planner output, if it ran *)
  }

  type task = unit -> float * (unit -> unit)

  (* What a site ships: a protocol message, with this engine's detector
     tag riding out with work (one tag per batch group, one per scatter)
     and its control messages riding home with answers ([Result] and
     [Gather_result] carry every control bound for the originator, a
     [Credit_return] one); or the §5 re-query's [Seed_from], which the
     wire does not have.  The sender and the span covering the trip
     travel with the delivery, not inside the message. *)
  type message =
    | Wire of (D.tag, D.control list) Message.msg
    | Seed_from of { query : Message.query_id; from : Message.query_id; tag : D.tag }

  (* What the reliability layer retains for retransmission: the message
     plus enough context to repeat the physical send.  [span] is the
     first send's span, which every copy hands the receiver as its
     cause (0 when untraced). *)
  type shipment = { label : string; transit : float; span : int; msg : message }

  type link = {
    rel : shipment Hf_proto.Reliable.t;
    mutable armed : float option;
        (* virtual time of the earliest scheduled poll event, so timer
           events are not scheduled twice for the same deadline *)
  }

  type site = {
    id : int;
    store : Hf_data.Store.t;
    proto : Site.t; (* the protocol state shared with the socket engine *)
    contexts : (Message.query_id, context) Hashtbl.t;
    retained : (Message.query_id, Oid.Set.t) Hashtbl.t;
        (* local result portions of terminated queries, kept (until
           [forget_query]) so [run_query_on_distributed] can still seed
           from them after the contexts are evicted *)
    tasks : task Sched.Rr.t;
        (* the serial site CPU's run queue: round-robin across tenants
           (tenant = query origin), exact FIFO with a single tenant *)
    mutable busy : bool;
    mutable alive : bool;
    outgoing : (Message.query_id * Hf_engine.Work_item.t) Hf_proto.Batch.t;
        (* per-destination buffer of remote work awaiting shipment;
           shared by every query on the site so concurrent traffic to
           the same destination coalesces.  A context must not drain
           while it still owns buffered items ([core.buffered]), or the
           detector would see its work as finished before the items'
           credit was split. *)
    links : link array;
        (* per-peer reliable-delivery state (index = peer site id);
           dormant unless [config.reliability] is set *)
  }

  type t = {
    sim : Hf_sim.Sim.t;
    sites : site array;
    config : config;
    tracer : Hf_obs.Tracer.t;
    registry : Hf_obs.Registry.t; (* cluster-wide metrics *)
    work_batch_items : Hf_obs.Histogram.t; (* items per shipped work message *)
    ack_latency : Hf_obs.Histogram.t; (* seconds from first send to cumulative ack *)
    queue_wait : Hf_obs.Histogram.t;
        (* virtual seconds a task spends in a site's run queue before
           the serial CPU starts it — the queueing half of response
           time, previously dark (DESIGN.md §4i) *)
    admission_wait : Hf_obs.Histogram.t; (* submit-to-seed gate wait, virtual s *)
    mutable standalone_acks : int; (* acks that found no reverse traffic to ride *)
    mutable total_retransmits : int;
    mutable total_dup_drops : int;
    open_queries : (Message.query_id, open_query) Hashtbl.t;
    mutable next_serial : int;
    jitter_prng : Hf_util.Prng.t;
    gates : (Message.query_id * (unit -> unit)) Sched.t array;
        (* per-origin admission gates; a queued entry is the query id
           plus the thunk that seeds it once a slot frees *)
  }

  let create ?(config = default_config) ?(tracer = Hf_obs.Tracer.noop) ~n_sites () =
    if n_sites <= 0 then invalid_arg "Cluster.create: n_sites must be positive";
    (match config.reliability with
     | Some rel -> Hf_proto.Reliable.validate rel
     | None -> ());
    (match config.cache with
     | Some cache -> Hf_index.Remote_cache.validate cache
     | None -> ());
    Sched.validate config.admission;
    let rel_config =
      Option.value config.reliability ~default:Hf_proto.Reliable.default
    in
    let sim = Hf_sim.Sim.create () in
    (* Spans are stamped in virtual time so trace durations line up
       with the simulated response times. *)
    Hf_obs.Tracer.set_clock tracer (fun () -> Hf_sim.Sim.now sim);
    let registry = Hf_obs.Registry.create () in
    let work_batch_items = Hf_obs.Registry.histogram registry "hf.server.work_batch_items" in
    let ack_latency = Hf_obs.Registry.histogram registry "hf.server.ack_latency_s" in
    let queue_wait = Hf_obs.Registry.histogram registry "hf.server.queue_wait_s" in
    let admission_wait = Hf_obs.Registry.histogram registry "hf.server.admission_wait_s" in
    let bloofi_depth = Hf_obs.Registry.histogram registry "hf.index.bloofi_descent_depth" in
    let sites =
      Array.init n_sites (fun id ->
          let store = Hf_data.Store.create ~site:id in
          {
            id;
            store;
            (* Counting modes attribute results to the site that found
               them, so a cache hit there is never served locally. *)
            proto =
              Site.create ~id ~store
                ~clock:(fun () -> Hf_sim.Sim.now sim)
                ~cache:config.cache
                ~serve_hits:(config.result_mode = Ship_items)
                ~bloofi:config.bloofi ~bloofi_depth;
            contexts = Hashtbl.create 8;
            retained = Hashtbl.create 8;
            tasks = Sched.Rr.create ();
            busy = false;
            alive = true;
            outgoing = Hf_proto.Batch.create config.batch;
            links =
              Array.init n_sites (fun _ ->
                  { rel = Hf_proto.Reliable.create rel_config; armed = None });
          })
    in
    let t =
      {
        sim;
        sites;
        config;
        tracer;
        registry;
        work_batch_items;
        ack_latency;
        queue_wait;
        admission_wait;
        standalone_acks = 0;
        total_retransmits = 0;
        total_dup_drops = 0;
        open_queries = Hashtbl.create 8;
        next_serial = 0;
        jitter_prng = Hf_util.Prng.create config.jitter_seed;
        gates = Array.init n_sites (fun _ -> Sched.create config.admission);
      }
    in
    Hf_obs.Registry.register_counter registry "hf.server.standalone_acks" (fun () ->
        t.standalone_acks);
    Hf_obs.Registry.register_counter registry "hf.server.retransmits" (fun () ->
        t.total_retransmits);
    Hf_obs.Registry.register_counter registry "hf.server.dup_drops" (fun () ->
        t.total_dup_drops);
    (* Bloofi planner-index counters, summed across origins (each site
       maintains its own tree over what it learned about its peers). *)
    let bloofi_sum f =
      Array.fold_left
        (fun acc site ->
          match Site.bloofi site.proto with None -> acc | Some tree -> acc + f tree)
        0 t.sites
    in
    Hf_obs.Registry.register_counter registry "hf.index.bloofi_probes" (fun () ->
        bloofi_sum Hf_index.Bloofi.probes_run);
    Hf_obs.Registry.register_counter registry "hf.index.bloofi_pruned_sites" (fun () ->
        bloofi_sum Hf_index.Bloofi.pruned_total);
    Hf_obs.Registry.register_counter registry "hf.index.bloofi_rebuilds" (fun () ->
        bloofi_sum Hf_index.Bloofi.rebuilds);
    (* Live gauges over the scheduler's previously-dark state
       (DESIGN.md §4i): run-queue depth and tenancy, admission gate
       occupancy, context and cache population.  The sim is
       single-threaded, so plain reads are consistent. *)
    Hf_obs.Registry.register_gauge registry "hf.server.tasks_queued" (fun () ->
        float_of_int
          (Array.fold_left (fun acc site -> acc + Sched.Rr.length site.tasks) 0 t.sites));
    Hf_obs.Registry.register_gauge registry "hf.server.task_tenants" (fun () ->
        float_of_int
          (Array.fold_left (fun acc site -> acc + Sched.Rr.tenants site.tasks) 0 t.sites));
    Hf_obs.Registry.register_gauge registry "hf.server.queries_running" (fun () ->
        float_of_int
          (Array.fold_left (fun acc gate -> acc + Sched.running gate) 0 t.gates));
    Hf_obs.Registry.register_gauge registry "hf.server.queries_queued" (fun () ->
        float_of_int (Array.fold_left (fun acc gate -> acc + Sched.queued gate) 0 t.gates));
    Hf_obs.Registry.register_gauge registry "hf.server.sched_tenants" (fun () ->
        float_of_int
          (Array.fold_left (fun acc gate -> acc + Sched.waiting_tenants gate) 0 t.gates));
    Hf_obs.Registry.register_gauge registry "hf.server.contexts_live" (fun () ->
        float_of_int
          (Array.fold_left (fun acc site -> acc + Hashtbl.length site.contexts) 0 t.sites));
    Hf_obs.Registry.register_gauge registry "hf.server.cache_entries" (fun () ->
        float_of_int
          (Array.fold_left
             (fun acc site ->
               match Site.cache site.proto with
               | None -> acc
               | Some cache -> acc + Hf_index.Remote_cache.length cache)
             0 t.sites));
    Hf_obs.Tracer.register tracer registry ~prefix:"hf.server";
    t

  let n_sites t = Array.length t.sites

  let store t site = t.sites.(site).store

  let sim t = t.sim

  let tracer t = t.tracer

  let registry t = t.registry

  let qname query = Fmt.str "%a" Message.pp_query_id query

  let kill_site t site = t.sites.(site).alive <- false

  let revive_site t site = t.sites.(site).alive <- true

  (* A point event on [site]'s timeline for [query]. *)
  let instant t ~parent query site ?detail phase name =
    let query = qname query in
    ignore (Hf_obs.Tracer.instant t.tracer ~parent ~query ~site:site.id ?detail ~phase name)

  (* --- byte-size estimates (the real codec is exercised separately in
     tests; the simulator only needs consistent accounting) --- *)

  (* One batch group ships the program + query header + credit once,
     then per-item (oid, start, iters).  A single-item group costs
     exactly what the unbatched per-item work message did. *)
  let batch_header_bytes program =
    Hf_query.Program.byte_size program + 8 (* query id *) + 4 (* credit/tag *)

  let batch_item_bytes item =
    13 (* oid *) + 4 (* start *) + (4 * Array.length (Hf_engine.Work_item.iters item))

  let batch_group_bytes program items =
    batch_header_bytes program
    + List.fold_left (fun acc item -> acc + batch_item_bytes item) 0 items

  let bindings_bytes bindings =
    List.fold_left
      (fun acc (target, values) ->
        acc + String.length target
        + List.fold_left (fun acc v -> acc + Hf_data.Value.byte_size v) 4 values)
      0 bindings

  (* Scatter ships the program header plus the receiver's seed roots;
     a gather ships its productive nodes — oid, start, passed flag,
     visited indices, spawn edges and emitted bindings. *)
  let scatter_message_bytes program roots =
    batch_header_bytes program + (13 * List.length roots)

  let gather_node_bytes (node : Hf_engine.Scatter.node) =
    13 + 4 + 1
    + (4 * List.length node.visited)
    + (17 * List.length node.spawns)
    + bindings_bytes node.bindings

  let gather_message_bytes nodes =
    8 + 4 + List.fold_left (fun acc node -> acc + gather_node_bytes node) 0 nodes

  let result_message_bytes payload bindings =
    let payload_bytes =
      match (payload : Message.result_payload) with
      | Items items -> 13 * List.length items
      | Count _ -> 4
    in
    8 + 4 + payload_bytes + bindings_bytes bindings

  (* --- contexts --- *)

  (* A cancelled query is invisible to the message paths: its handle
     still answers [outcome], but stray traffic must not revive it. *)
  let find_open t query =
    match Hashtbl.find_opt t.open_queries query with
    | Some oq when not oq.cancelled -> Some oq
    | Some _ | None -> None

  (* Update [query]'s metrics, while it is open. *)
  let with_metrics t query f = match find_open t query with Some oq -> f oq.metrics | None -> ()

  (* Charge [cost] seconds of [site]'s CPU to [query]. *)
  let charge t query site cost = with_metrics t query (fun m -> Metrics.add_busy m site cost)

  (* [cause] is the span id of the work message (or other event) that
     first brought the query to this site; the fresh context's
     evaluation span parents on it, falling back to the query root. *)
  let context_of t ?(cause = 0) site query =
    match Hashtbl.find_opt site.contexts query with
    | Some ctx -> Some ctx
    | None -> (
        (* First contact: set up the local context from the open query's
           program.  Work carries the body, as on the wire, but a message
           that does not (a control, a cache reply) may be first here, so
           the program comes from the open query. *)
        match find_open t query with
        | None -> None
        | Some oq when oq.terminated ->
          (* Terminal status evicts the per-site contexts; a message
             that straggles in afterwards (duplicate delivery, late
             control) must not resurrect one.  The detector has already
             converged, so dropping the straggler is sound. *)
          None
        | Some oq ->
          let marks =
            match t.config.mark_scope with
            | Local_marks -> Hf_engine.Mark_table.create ()
            | Global_marks -> (
                (* share the originator's table *)
                match Hashtbl.find_opt t.sites.(query.originator).contexts query with
                | Some origin_ctx -> origin_ctx.core.marks
                | None -> Hf_engine.Mark_table.create ())
          in
          let parent = if cause <> 0 then cause else oq.span in
          let span =
            Hf_obs.Tracer.start t.tracer ~parent ~query:(qname query) ~site:site.id
              ~phase:Hf_obs.Span.Eval "site-eval"
          in
          let final = if site.id = query.originator then Some oq.final else None in
          let ctx =
            {
              core =
                Site.context ~marks ?final ~metrics:oq.metrics ~n_sites:(n_sites t) ~query ~span
                  oq.program;
              detector =
                D.create ~n_sites:(n_sites t) ~origin:query.originator ~self:site.id;
            }
          in
          Hashtbl.replace site.contexts query ctx;
          Some ctx)

  let merged_stats t query =
    Array.fold_left
      (fun acc site ->
        match Hashtbl.find_opt site.contexts query with
        | None -> acc
        | Some ctx -> Hf_engine.Stats.merge acc ctx.core.stats)
      (Hf_engine.Stats.create ()) t.sites

  (* [site]'s portion of query [from]'s results.  [from] normally
     terminated long ago, so its context was evicted and the portion
     lives in [retained]. *)
  let portion site from =
    match Hashtbl.find_opt site.contexts from with
    | Some prev -> Oid.Set.elements prev.core.local_result_set
    | None -> (
        match Hashtbl.find_opt site.retained from with
        | Some set -> Oid.Set.elements set
        | None -> [])

  (* Nodes in a scattered site's speculation domain: its roots plus
     every local object at every landing index. *)
  let domain_size site ctx roots =
    let landing = Hf_query.Plan.landing_pcs (Hf_engine.Plan.program ctx.core.plan) in
    List.length roots + (List.length (Hf_data.Store.oids site.store) * List.length landing)

  (* --- result handling at the originator --- *)

  (* Free an admission slot; if a submission was queued behind the cap
     it takes over the slot and its seeding thunk runs now. *)
  let release_gate t origin =
    match Sched.release t.gates.(origin) with
    | Some (query, seed) ->
      (match Hashtbl.find_opt t.open_queries query with
       | Some oq -> oq.admitted <- true
       | None -> ());
      seed ()
    | None -> ()

  (* Evict the query's per-site state.  Contexts used to stay resident
     forever after terminal status — the leak this PR fixes; every
     outcome-visible bit is snapshotted into the open query first, and
     each site's local result portion moves to [retained] so
     [run_query_on_distributed] can still seed from it. *)
  let evict_query t (oq : open_query) =
    let stats = merged_stats t oq.id in
    let origin_local =
      match Hashtbl.find_opt t.sites.(oq.id.originator).contexts oq.id with
      | Some ctx -> Oid.Set.cardinal ctx.core.local_result_set
      | None -> 0
    in
    oq.captured <- Some (stats, origin_local);
    Array.iter
      (fun site ->
        match Hashtbl.find_opt site.contexts oq.id with
        | Some ctx ->
          Hf_obs.Tracer.finish t.tracer ctx.core.span;
          Hashtbl.replace site.retained oq.id ctx.core.local_result_set;
          Hashtbl.remove site.contexts oq.id
        | None -> ())
      t.sites;
    Hf_obs.Tracer.finish t.tracer oq.span;
    if oq.admitted then release_gate t oq.id.originator

  let finish_query t oq =
    if not oq.terminated then begin
      oq.terminated <- true;
      oq.finish_time <- Hf_sim.Sim.now t.sim;
      evict_query t oq
    end

  let result_payload t items =
    match t.config.result_mode with
    | Ship_items -> Message.Items items
    | Ship_counts -> Message.Count (List.length items)
    | Ship_threshold threshold ->
      if List.length items >= threshold then Message.Count (List.length items)
      else Message.Items items

  (* --- reliability bookkeeping --- *)

  (* The query a message is charged to, for metric attribution; acks
     belong to a link, not a query. *)
  let message_query = function
    | Seed_from { query; _ } -> Some query
    | Wire m -> Message.query_of m

  (* Scheduling tenant for a delivered message's handler task: the
     originating query's origin.  Acks never reach the task queue, so
     the [-1] fallback is only defensive. *)
  let tenant_of_message m =
    match message_query m with
    | Some q -> q.Message.originator
    | None -> -1

  (* --- outgoing-batch bookkeeping --- *)

  (* Group a flushed (query, item) run by query, preserving
     first-appearance order, so each query's header ships once. *)
  let group_entries entries =
    let rec add q wi = function
      | [] -> [ (q, [ wi ]) ]
      | (q', items) :: rest when Message.equal_query_id q q' ->
        (q', wi :: items) :: rest
      | g :: rest -> g :: add q wi rest
    in
    List.fold_left (fun groups (q, wi) -> add q wi groups) [] entries
    |> List.map (fun (q, items) -> (q, List.rev items))

  let batch_total groups =
    List.fold_left (fun acc (_, (g : _ Message.batch_group)) -> acc + List.length g.items) 0 groups

  (* --- serial site CPU, message delivery and sending --- *)

  (* Task starts are deferred to a fresh simulator event so that a task
     completion finishes all of its effects (pushing spawned work,
     checking the drain condition) before the next task pops the working
     set — same-timestamp events run FIFO. *)
  let rec pump t site =
    if site.alive && not site.busy then begin
      match Sched.Rr.pop site.tasks with
      | None ->
        (* End of the local pump cycle: the site ran out of tasks, so
           ship whatever the batcher still buffers.  (With K = 1 the
           buffer is always empty — every push flushes immediately.) *)
        flush_idle t site
      | Some task ->
        site.busy <- true;
        Hf_sim.Sim.schedule t.sim ~delay:0.0 (fun () ->
            if site.alive then begin
              let duration, complete = task () in
              Hf_sim.Sim.schedule t.sim ~delay:duration (fun () ->
                  site.busy <- false;
                  if site.alive then complete ();
                  pump t site)
            end
            else site.busy <- false)
    end

  (* [tenant] is the origin of the query the task serves (the issue's
     multi-tenant notion); the site CPU round-robins across tenants so
     one origin's burst cannot starve another's queries. *)
  and enqueue t site ~tenant task =
    let queued_at = Hf_sim.Sim.now t.sim in
    let task () =
      (* run-queue wait: how long the serial CPU left this task parked *)
      Hf_obs.Histogram.observe t.queue_wait (Hf_sim.Sim.now t.sim -. queued_at);
      task ()
    in
    Sched.Rr.push site.tasks ~tenant task;
    pump t site

  (* Turn a flushed per-destination run into sendable groups.  Called
     synchronously at flush-decision time: the sender's credit splits
     here — once per group, not per item — so a context can never look
     drained while its buffered items still carry unsplit credit. *)
  and prepare_batch t site ~dst entries =
    let groups =
      group_entries entries
      |> List.filter_map (fun (query, items) ->
             Option.map
               (fun ctx -> (ctx, C.group ctx.core ctx.detector ~dst items))
               (context_of t site query))
    in
    (dst, groups)

  (* Metrics, trace and delivery of a prepared batch; the sender-CPU
     cost is charged by the caller (inside the task that flushed). *)
  and send_prepared t site (dst, groups) =
    match groups with
    | [] -> ()
    | (ctx0, _) :: _ ->
      let total = batch_total groups in
      let oq0 = find_open t ctx0.core.query in
      with_metrics t ctx0.core.query (fun m ->
          m.Metrics.work_messages <- m.Metrics.work_messages + 1;
          if total >= 2 then m.Metrics.work_batches <- m.Metrics.work_batches + 1);
      List.iter
        (fun (_, ({ query; body; items; _ } : _ Message.batch_group)) ->
          with_metrics t query (fun m ->
              m.Metrics.work_items <- m.Metrics.work_items + List.length items;
              m.Metrics.work_bytes <- m.Metrics.work_bytes + batch_group_bytes body items;
              m.Metrics.batch_bytes_saved <-
                m.Metrics.batch_bytes_saved + ((List.length items - 1) * batch_header_bytes body)))
        groups;
      Hf_obs.Histogram.observe t.work_batch_items (float_of_int total);
      let span =
        Hf_obs.Tracer.start t.tracer ~parent:ctx0.core.span ~query:(qname ctx0.core.query)
          ~site:site.id ~phase:Hf_obs.Span.Ship
          (Fmt.str "work->%d" dst)
      in
      Hf_obs.Tracer.set_detail t.tracer span (Fmt.str "%d item(s)" total);
      deliver t ~src:site.id ~oq:oq0 ~label:"work" ~span
        ~transit:(Hf_sim.Costs.batch_transit t.config.costs ~items:total)
        ~dst
        (Wire (Work_batch (List.map snd groups)))

  (* Ship every buffered batch; runs when the site's task queue empties
     and is a no-op with nothing buffered.  Each flush is charged as a
     send task; its completion re-checks the drain condition of every
     query that had items aboard. *)
  and flush_idle t site =
    if Hf_proto.Batch.pending site.outgoing > 0 then
      List.iter
        (fun (dst, entries) -> ship_resolved ~flush:true t site (prepare_batch t site ~dst entries))
        (Hf_proto.Batch.flush_all site.outgoing)

  (* [span] (when non-zero) is the shipping span opened by the sender;
     it closes when the message lands — or immediately, tagged
     "dropped", when the lossy network eats it — so transit time shows
     up as the span's extent.

     With [config.reliability] unset this is the whole story: a drop
     loses the message (and any credit aboard) for good.  With it set,
     the message first passes through the per-peer reliable link —
     sequence assignment, retransmit timers on the event queue,
     receiver-side dedup — so a drop only costs a retransmission, and a
     peer that never acks is eventually declared unreachable and its
     messages' credit reclaimed ([abandon]). *)
  and deliver t ~src ~oq ~label ?(span = 0) ~transit ~dst message =
    let sh = { label; transit; span; msg = message } in
    match t.config.reliability with
    | None -> carry t ~oq ~span ~transit ~dst (fun site -> receive t site ~src sh)
    | Some _ ->
      let link = t.sites.(src).links.(dst) in
      if Hf_proto.Reliable.unreachable link.rel then begin
        (* Fail fast: the retry cap already fired for this peer, so
           reclaim this message's credit immediately instead of queueing
           another doomed retransmission cycle. *)
        Hf_obs.Tracer.finish ~detail:"unreachable" t.tracer span;
        abandon t ~src ~dst sh
      end
      else begin
        let seq = Hf_proto.Reliable.send link.rel ~now:(Hf_sim.Sim.now t.sim) sh in
        transmit t ~src ~dst ~span ~seq ~oq sh;
        arm_link t ~site:src ~peer:dst
      end

  (* A delivered message becomes a task on the receiver's CPU, which
     hears who sent it and the first send's span. *)
  and receive t site ~src sh =
    enqueue t site ~tenant:(tenant_of_message sh.msg) (fun () ->
        handle_message t site ~src ~span:sh.span sh.msg)

  (* One physical transmission attempt (first send and retransmissions
     alike) under [span], which closes on arrival: draw the loss/jitter
     dice, piggyback the cumulative ack for the reverse direction, and
     on arrival run the transport half — ack processing and dedup —
     before the message is allowed to become site work.  Duplicates die
     here, which is what makes redelivery idempotent: [C.deposit]
     (credit deposit) and evaluation run at most once per sequence
     number. *)
  and transmit t ~src ~dst ?(span = 0) ~seq ~oq sh =
    let ack = Hf_proto.Reliable.take_ack t.sites.(src).links.(dst).rel in
    carry t ~oq ~span ~transit:sh.transit ~dst (fun dsite ->
        let dlink = dsite.links.(src) in
        let now = Hf_sim.Sim.now t.sim in
        List.iter
          (fun latency -> Hf_obs.Histogram.observe t.ack_latency latency)
          (Hf_proto.Reliable.on_ack dlink.rel ~now ack);
        let fresh =
          if seq = 0 then true
          else
            match Hf_proto.Reliable.receive dlink.rel ~now ~seq with
            | `Fresh -> true
            | `Duplicate ->
              t.total_dup_drops <- t.total_dup_drops + 1;
              (match Option.bind (message_query sh.msg) (find_open t) with
               | Some oq -> oq.metrics.Metrics.dup_drops <- oq.metrics.Metrics.dup_drops + 1
               | None -> ());
              false
        in
        if seq > 0 then arm_link t ~site:dst ~peer:src;
        match sh.msg with
        | Wire Link_ack -> () (* transport-level: consumed by on_ack above *)
        | Wire _ | Seed_from _ -> if fresh then receive t dsite ~src sh)

  (* The network between two sites: draw the loss dice, then the jitter,
     and hand the message to [arrive] at its live destination once the
     transit has passed.  The sender's span closes on arrival, or at
     once, tagged "dropped". *)
  and carry t ~oq ~span ~transit ~dst arrive =
    if t.config.loss > 0.0 && Hf_util.Prng.next_float t.jitter_prng < t.config.loss then begin
      (match (oq : open_query option) with
       | Some oq -> oq.metrics.Metrics.dropped_messages <- oq.metrics.Metrics.dropped_messages + 1
       | None -> ());
      Hf_obs.Tracer.finish ~detail:"dropped" t.tracer span
    end
    else begin
      let transit =
        if t.config.jitter <= 0.0 then transit
        else transit +. (Hf_util.Prng.next_float t.jitter_prng *. t.config.jitter)
      in
      Hf_sim.Sim.schedule t.sim ~delay:transit (fun () ->
          Hf_obs.Tracer.finish t.tracer span;
          let site = t.sites.(dst) in
          if site.alive then arrive site)
    end

  (* Schedule a poll event for the link's next deadline, unless one is
     already scheduled at or before it.  Spurious polls are harmless
     ([Reliable.poll] only fires what is actually due), so a stale
     event left behind by an earlier arm just re-checks and re-arms. *)
  and arm_link t ~site ~peer =
    let link = t.sites.(site).links.(peer) in
    match Hf_proto.Reliable.next_deadline link.rel with
    | None -> ()
    | Some deadline ->
      let covered = match link.armed with Some a -> a <= deadline | None -> false in
      if not covered then begin
        link.armed <- Some deadline;
        let time = Float.max deadline (Hf_sim.Sim.now t.sim) in
        Hf_sim.Sim.schedule_at t.sim ~time (fun () ->
            (match link.armed with
             | Some a when a <= time -> link.armed <- None
             | Some _ | None -> ());
            fire_link t ~site ~peer)
      end

  and fire_link t ~site ~peer =
    let s = t.sites.(site) in
    if s.alive then begin
      let link = s.links.(peer) in
      List.iter
        (function
          | Hf_proto.Reliable.Send_ack -> send_ack t ~src:site ~dst:peer
          | Hf_proto.Reliable.Retransmit entries ->
            List.iter
              (fun (seq, (sh : shipment)) ->
                let oq = Option.bind (message_query sh.msg) (find_open t) in
                t.total_retransmits <- t.total_retransmits + 1;
                Option.iter
                  (fun oq -> oq.metrics.Metrics.retransmits <- oq.metrics.Metrics.retransmits + 1)
                  oq;
                let span =
                  match oq with
                  | Some oq ->
                    Hf_obs.Tracer.start t.tracer ~parent:oq.span ~query:(qname oq.id)
                      ~site ~phase:Hf_obs.Span.Retransmit
                      (Fmt.str "retransmit->%d" peer)
                  | None -> 0
                in
                Hf_obs.Tracer.set_detail t.tracer span (Fmt.str "%s seq=%d" sh.label seq);
                transmit t ~src:site ~dst:peer ~span ~seq ~oq sh)
              entries
          | Hf_proto.Reliable.Give_up entries ->
            List.iter (fun (_, sh) -> abandon t ~src:site ~dst:peer sh) entries)
        (Hf_proto.Reliable.poll link.rel ~now:(Hf_sim.Sim.now t.sim));
      arm_link t ~site ~peer
    end

  (* Standalone cumulative ack: transport-level, so it bypasses the site
     CPU — the serial-CPU model charges for protocol work, not for the
     delivery substrate. *)
  and send_ack t ~src ~dst =
    t.standalone_acks <- t.standalone_acks + 1;
    transmit t ~src ~dst ~seq:0 ~oq:None
      { label = "ack"; transit = t.config.costs.control_transit; span = 0; msg = Wire Link_ack }

  (* The retry cap fired for [sh] (or the link was already dead at send
     time): the credit of each work group, seed or scatter aboard is
     unwound ([C.unwind]).  An answer is dropped, on purpose: it pledges
     nothing here, and losing its credit can only keep the query from
     terminating (it times out), never end it early. *)
  and abandon t ~src ~dst (sh : shipment) =
    Option.iter
      (fun query -> with_metrics t query (fun m -> m.Metrics.give_ups <- m.Metrics.give_ups + 1))
      (message_query sh.msg);
    let site = t.sites.(src) in
    let with_context query f = Option.iter f (context_of t site query) in
    let unwind ctx tag = post t site ctx (C.unwind site.proto ctx.core ctx.detector ~dst tag) in
    match sh.msg with
    | Wire (Work_batch groups) ->
      List.iter
        (fun (g : _ Message.batch_group) -> with_context g.query (fun ctx -> unwind ctx g.credit))
        groups
    | Seed_from { query; tag; _ } -> with_context query (fun ctx -> unwind ctx tag)
    | Wire (Scatter { query; credit; _ }) ->
      (* Its slot in the stitch closes too — the chains parked for it
         are lost as classic shipping loses items sent to a dead site —
         and the drain, no longer held open, is re-checked. *)
      with_context query (fun ctx ->
          unwind ctx credit;
          Site.gather_lost ctx.core ~site:dst;
          maybe_drain t site ctx)
    | Wire (Cache_validate { query; _ }) ->
      (* The validation round trip died: un-park the waiting items and
         ship them the plain way — those sends fail fast against the
         dead link and their credit is unwound by the work arm. *)
      with_context query (fun ctx -> release_parked t site ctx ~dst ~version:None)
    | Wire
        ( Deref_request _ | Result _ | Credit_return _ | Link_ack | Site_unreachable _
        | Cache_version _ | Cache_answers _ | Query_done _ | Stats_pull _ | Stats_report _
        | Gather_result _ ) ->
      ()

  (* What the shared credit code returned: termination first, then each
     message, sent as this engine sends its kind. *)
  and post t site ctx ((sends, terminated) : C.out) =
    let oq = find_open t ctx.core.query in
    (match oq with Some oq when terminated -> finish_query t oq | Some _ | None -> ());
    List.iter (fun (dst, m) -> send t site ctx oq ~dst m) sends

  (* A control or a cache fill is a control-plane task, a result or a
     gather a [result_msg_send] task with its metrics and span, and an
     unreachable notice goes straight onto the network. *)
  and send t site ctx oq ~dst (m : C.msg) =
    let costs = t.config.costs in
    let control ~detail phase label =
      send_control_plane t site ~tenant:ctx.core.origin ~oq ~parent:ctx.core.span
        ~query:ctx.core.query ~phase ~label ~detail ~dst (Wire m)
    in
    let answer phase label detail count =
      enqueue t site ~tenant:ctx.core.origin (fun () ->
          Option.iter
            (fun oq ->
              Metrics.add_busy oq.metrics site.id costs.result_msg_send;
              count oq.metrics)
            oq;
          ( costs.result_msg_send,
            fun () ->
              let span =
                Hf_obs.Tracer.start t.tracer ~parent:ctx.core.span ~query:(qname ctx.core.query)
                  ~site:site.id ~phase
                  (Fmt.str "%s->%d" label dst)
              in
              Hf_obs.Tracer.set_detail t.tracer span detail;
              deliver t ~src:site.id ~oq ~label ~span ~transit:costs.result_msg_transit ~dst
                (Wire m) ))
    in
    match m with
    | Credit_return { credit; _ } ->
      control ~detail:(Fmt.str "%a" Fmt.(list D.pp_control) credit) Hf_obs.Span.Credit "control"
    | Cache_answers { version; answers; _ } ->
      let detail = Fmt.str "%d verdict(s) v=%d" (List.length answers) version in
      control ~detail Hf_obs.Span.Cache "cache-answers"
    | Site_unreachable _ ->
      deliver t ~src:site.id ~oq ~label:"unreachable" ~transit:costs.control_transit ~dst (Wire m)
    | Result { payload; bindings; credit; _ } ->
      let n = match payload with Message.Items items -> List.length items | Message.Count n -> n in
      answer Hf_obs.Span.Ship "result" (Fmt.str "%d item(s)" n) (fun m ->
          m.Metrics.result_messages <- m.Metrics.result_messages + 1;
          m.Metrics.result_bytes <- m.Metrics.result_bytes + result_message_bytes payload bindings;
          m.Metrics.piggybacked_controls <- m.Metrics.piggybacked_controls + List.length credit;
          match payload with
          | Message.Items _ -> m.Metrics.results_shipped <- m.Metrics.results_shipped + n
          | Message.Count _ -> ())
    | Gather_result { nodes; _ } ->
      answer Hf_obs.Span.Scatter "gather" (Fmt.str "%d node(s)" (List.length nodes)) (fun m ->
          m.Metrics.gather_messages <- m.Metrics.gather_messages + 1;
          m.Metrics.gather_nodes <- m.Metrics.gather_nodes + List.length nodes;
          m.Metrics.gather_bytes <- m.Metrics.gather_bytes + gather_message_bytes nodes)
    | _ -> invalid_arg "Cluster.send: the credit paths send answers and notices only"

  (* A control-plane message: one [control_send] task on [site]'s CPU,
     then a [control_transit] hop to [dst] under a span named after
     [label]. *)
  and send_control_plane t site ~tenant ~oq ~parent ~query ~phase ~label ?detail ~dst message =
    enqueue t site ~tenant (fun () ->
        (match oq with
         | Some oq ->
           oq.metrics.Metrics.control_messages <- oq.metrics.Metrics.control_messages + 1;
           Metrics.add_busy oq.metrics site.id t.config.costs.control_send
         | None -> ());
        ( t.config.costs.control_send,
          fun () ->
            let span =
              Hf_obs.Tracer.start t.tracer ~parent ~query:(qname query) ~site:site.id ~phase
                (Fmt.str "%s->%d" label dst)
            in
            Option.iter (Hf_obs.Tracer.set_detail t.tracer span) detail;
            deliver t ~src:site.id ~oq ~label ~span ~transit:t.config.costs.control_transit ~dst
              message ))

  (* --- the work path ([Site.step], [Site.dispatch]) --- *)

  (* Where the work path hands this engine items, within one task:
     items for this store wait for the task's completion; items to ship
     go into the site's batcher, and a push that reaches the K
     threshold hands back the buffer, prepared as a batch; prunes and
     hits show as instants, and a validation goes out as a
     control-plane task.  Returns the sink and what it collected. *)
  and collect t site ctx =
    let local = ref [] and flushed = ref [] in
    let verdict dst (route : Site.route) =
      let note name =
        let version = Option.value (Hashtbl.find_opt ctx.core.validated dst) ~default:0 in
        instant t ~parent:ctx.core.span ctx.core.query site
          ~detail:(Fmt.str "dst=%d v=%d" dst version)
          Hf_obs.Span.Cache name
      in
      match route with
      | Site.Pruned -> note "cache-prune"
      | Site.Hit _ -> note "cache-hit"
      | Site.Validate ->
        send_control_plane t site ~tenant:ctx.core.origin ~oq:(find_open t ctx.core.query)
          ~parent:ctx.core.span ~query:ctx.core.query ~phase:Hf_obs.Span.Cache
          ~label:"cache-validate" ~dst
          (Wire (Cache_validate { query = ctx.core.query; src = site.id }))
      | Site.Ship | Site.Miss _ | Site.Parked | Site.Dangling -> ()
    in
    let ship dst wi =
      match Hf_proto.Batch.push site.outgoing ~dst (ctx.core.query, wi) with
      | None -> ()
      | Some entries -> flushed := prepare_batch t site ~dst entries :: !flushed
    in
    ({ Site.local = (fun wi -> local := wi :: !local); ship; verdict }, local, flushed)

  (* Route outside an evaluation task with [f]; what its pushes flushed
     ships as tasks of its own. *)
  and aside : 'a. t -> site -> context -> (Site.sink -> 'a) -> 'a =
   fun t site ctx f ->
    let sink, _, flushed = collect t site ctx in
    let result = f sink in
    List.iter (ship_resolved t site) (List.rev !flushed);
    result

  (* A no-op task forces a pump cycle, so pushes that stayed under the
     flush threshold still ship via [flush_idle]. *)
  and pump_soon t site ctx = enqueue t site ~tenant:ctx.core.origin (fun () -> (0.0, fun () -> ()))

  (* Queue items for evaluation here, one task each. *)
  and bank t site ctx source items =
    List.iter
      (fun item ->
        Hf_util.Deque.push_back ctx.core.work (item, source);
        enqueue t site ~tenant:ctx.core.origin (process_one t site ctx))
      items

  (* Charge and ship a batch prepared outside [process_one]'s task: an
     idle-time flush ([flush], traced as such) or a parked-item
     resolution. *)
  and ship_resolved ?(flush = false) t site prepared =
    match prepared with
    | _, [] -> ()
    | dst, ((ctx0, _) :: _ as groups) ->
      enqueue t site ~tenant:ctx0.core.origin (fun () ->
          let cost = Hf_sim.Costs.batch_send t.config.costs ~items:(batch_total groups) in
          charge t ctx0.core.query site.id cost;
          if flush then
            instant t ~parent:ctx0.core.span ctx0.core.query site
              ~detail:(Fmt.str "%d item(s)" (batch_total groups))
              Hf_obs.Span.Flush (Fmt.str "flush->%d" dst);
          ( cost,
            fun () ->
              send_prepared t site prepared;
              List.iter (fun ((gctx : context), _) -> maybe_drain t site gctx) groups ))

  (* Route every item parked behind [dst]'s validation; the batches it
     flushed ship newest first. *)
  and release_parked t site ctx ~dst ~version =
    let sink, _, flushed = collect t site ctx in
    if Site.unpark site.proto ctx.core sink ~dst ~version > 0 then begin
      List.iter (ship_resolved t site) !flushed;
      pump_soon t site ctx
    end;
    maybe_drain t site ctx

  (* Stitch in [src]'s gather at the originator.  Chains that escaped
     the scattered site set re-enter the classic pipeline — cache layer,
     batcher, credit split — as ordinary remote work. *)
  and stitch_gather t site ctx ~src nodes =
    if aside t site ctx (fun sink -> Site.stitch site.proto ctx.core sink ~site:src nodes) > 0 then
      pump_soon t site ctx

  (* --- processing one work item --- *)

  and maybe_drain t site ctx =
    if Site.ready ctx.core then begin
      instant t ~parent:ctx.core.span ctx.core.query site Hf_obs.Span.Drain "drain";
      post t site ctx (C.drain ~payload:(result_payload t) site.proto ctx.core ctx.detector)
    end

  (* The shared step runs when the task starts, so its duration covers
     shipping the batches its pushes filled; spawns for this store and
     those batches move on when it completes.  Only items that arrived
     over the network are recorded for the originator's cache: the
     originator keyed a ship to this site for them. *)
  and process_one t site ctx () =
    match Hf_util.Deque.pop_front ctx.core.work with
    | None -> (0.0, fun () -> ())
    | Some (item, source) ->
      ctx.core.active <- ctx.core.active + 1;
      let known = Oid.Set.mem (Hf_engine.Work_item.oid item) ctx.core.local_result_set in
      let sink, local, flushed = collect t site ctx in
      let { Hf_engine.Eval.passed; skipped; _ } =
        Site.step site.proto ctx.core sink ~record:(source = From_network) item
      in
      if skipped && source = From_network then
        with_metrics t ctx.core.query (fun m ->
            m.Metrics.duplicate_work_messages <- m.Metrics.duplicate_work_messages + 1);
      let flushed = List.rev !flushed in
      let costs = t.config.costs in
      let duration =
        (if skipped then costs.skip else costs.process)
        +. send_cost t flushed
        +. if passed && (not known) && site.id = ctx.core.origin then costs.result_add else 0.0
      in
      charge t ctx.core.query site.id duration;
      ( duration,
        fun () ->
          ctx.core.active <- ctx.core.active - 1;
          bank t site ctx Seeded (List.rev !local);
          List.iter (send_prepared t site) flushed;
          drain_after t site ctx flushed )

  (* What shipping prepared batches costs the task that flushed them. *)
  and send_cost t flushed =
    List.fold_left
      (fun acc (_, groups) -> acc +. Hf_sim.Costs.batch_send t.config.costs ~items:(batch_total groups))
      0.0 flushed

  (* After shipping [flushed] for [ctx], its drain condition may hold —
     and so may that of every other query whose buffered items a flush
     carried. *)
  and drain_after t site ctx flushed =
    maybe_drain t site ctx;
    List.iter
      (fun (_, groups) ->
        List.iter (fun ((gctx : context), _) -> if gctx != ctx then maybe_drain t site gctx) groups)
      flushed

  (* --- incoming messages --- *)

  (* An answer from [src]; a gather is stitched before its credit lands. *)
  and answer t site ctx ~src m =
    post t site ctx (C.answer ctx.core ctx.detector ~src ~stitch:(stitch_gather t site ctx) m)

  (* [src] sent [message]; [span] is the sender's span for the trip
     (0 untraced), on which a fresh context's evaluation parents. *)
  and handle_message t site ~src ~span message =
    let costs = t.config.costs in
    match message with
    | Wire (Work_batch groups) -> (
        (* Resolve each group's context up front; groups whose query is
           no longer open are skipped (their credit is lost, exactly as
           a per-item message for a closed query was).  A fresh context
           parents its evaluation span on the work message's span; a
           site that already held a context records the arrival as an
           instant so the causal edge still shows in the trace. *)
        let resolved =
          List.filter_map
            (fun (g : _ Message.batch_group) ->
              let existed = Hashtbl.mem site.contexts g.query in
              match context_of t ~cause:span site g.query with
              | Some ctx ->
                if existed then
                  instant t ~parent:span g.query site Hf_obs.Span.Recv
                    (Fmt.str "work-recv x%d" (List.length g.items));
                Some (ctx, g)
              | None -> None)
            groups
        in
        match resolved with
        | [] -> (0.0, fun () -> ())
        | (ctx0, _) :: _ ->
          let total = batch_total resolved in
          let duration = Hf_sim.Costs.batch_recv costs ~items:total in
          charge t ctx0.core.query site.id duration;
          ( duration,
            fun () ->
              List.iter
                (fun (ctx, (g : _ Message.batch_group)) ->
                  post t site ctx (C.deposit ctx.core ctx.detector ~src g.credit);
                  bank t site ctx From_network g.items)
                resolved ))
    | Wire (Result { query; payload; _ } as m) -> (
        match find_open t query with
        | None -> (0.0, fun () -> ())
        | Some oq ->
          let items = match payload with Message.Items items -> items | Message.Count _ -> [] in
          let new_items = List.filter (fun oid -> not (Oid.Set.mem oid oq.final.set)) items in
          let duration =
            costs.result_msg_recv
            +. (float_of_int (List.length new_items) *. costs.result_add)
            +. (float_of_int (List.length items) *. costs.result_item)
          in
          Metrics.add_busy oq.metrics site.id duration;
          instant t ~parent:span query site Hf_obs.Span.Recv
            (Fmt.str "result-recv x%d" (List.length new_items));
          ( duration,
            fun () ->
              (match payload with
               | Message.Count n ->
                 let prev = List.assoc_opt src oq.counts in
                 let rest = List.remove_assoc src oq.counts in
                 oq.counts <- (src, n + Option.value prev ~default:0) :: rest
               | Message.Items _ -> ());
              (* an answer landing after termination still joins it;
                 only its credit needs the evicted context *)
              Site.join oq.final m;
              Option.iter (fun ctx -> answer t site ctx ~src m) (context_of t site query) ))
    | Wire (Credit_return { query; _ } as m) -> (
        match context_of t ~cause:span site query with
        | None -> (0.0, fun () -> ())
        | Some ctx ->
          charge t query site.id costs.control_recv;
          (costs.control_recv, fun () -> answer t site ctx ~src m))
    | Seed_from { query; from; tag } -> (
        match context_of t ~cause:span site query with
        | None -> (0.0, fun () -> ())
        | Some ctx ->
          ( costs.msg_recv,
            fun () ->
              post t site ctx (C.deposit ctx.core ctx.detector ~src tag);
              bank t site ctx From_network
                (List.map (Hf_engine.Work_item.initial ctx.core.plan) (portion site from));
              maybe_drain t site ctx ))
    | Wire (Site_unreachable { query; _ } as m) -> (
        match find_open t query with
        | None -> (0.0, fun () -> ())
        | Some oq ->
          Metrics.add_busy oq.metrics site.id costs.control_recv;
          (costs.control_recv, fun () -> Site.join oq.final m))
    | Wire (Cache_validate { query; _ }) ->
      charge t query site.id costs.control_recv;
      ( costs.control_recv,
        fun () ->
          let version, summary = Site.validate_reply site.proto ~peer:src in
          send_control_plane t site ~tenant:query.originator ~oq:(find_open t query)
            ~parent:span ~query ~phase:Hf_obs.Span.Cache ~label:"cache-version"
            ~dst:src
            (Wire
               (Cache_version
                  { query; site = site.id; version; epoch = Site.epoch site.proto; summary })) )
    | Wire (Cache_version { query; site = peer; version; epoch; summary }) ->
      charge t query site.id costs.control_recv;
      ( costs.control_recv,
        fun () ->
          Site.learn site.proto ~peer ~version ~epoch summary;
          match context_of t ~cause:span site query with
          | None -> ()
          | Some ctx -> release_parked t site ctx ~dst:peer ~version:(Some version) )
    | Wire (Cache_answers { query; version; answers; _ }) ->
      charge t query site.id costs.control_recv;
      ( costs.control_recv,
        fun () ->
          match context_of t ~cause:span site query with
          | None -> ()
          | Some ctx -> Site.fill site.proto ctx.core ~src ~version answers )
    | Wire (Scatter { query; roots; credit; _ }) -> (
        (* A scattered site evaluates its whole speculation domain in
           one go: every local object at every landing pc, plus the
           seeds the originator assigned here, and answers with one
           gather ([C.scatter_reply]). *)
        match context_of t ~cause:span site query with
        | None -> (0.0, fun () -> ()) (* closed query: credit dies, like work *)
        | Some ctx ->
          let duration =
            costs.msg_recv +. (float_of_int (domain_size site ctx roots) *. costs.process)
          in
          charge t query site.id duration;
          ( duration,
            fun () ->
              post t site ctx (C.scatter_reply site.proto ctx.core ctx.detector ~src ~roots credit)
          ))
    | Wire (Gather_result { query; nodes; _ } as m) -> (
        match find_open t query with
        | None -> (0.0, fun () -> ())
        | Some oq ->
          let duration =
            costs.result_msg_recv
            +. (float_of_int (List.length nodes) *. costs.result_item)
          in
          Metrics.add_busy oq.metrics site.id duration;
          instant t ~parent:span query site Hf_obs.Span.Scatter
            (Fmt.str "gather-recv x%d" (List.length nodes));
          ( duration,
            fun () ->
              Option.iter
                (fun ctx ->
                  answer t site ctx ~src m;
                  maybe_drain t site ctx)
                (context_of t ~cause:span site query) ))
    | Wire (Link_ack | Deref_request _ | Query_done _ | Stats_pull _ | Stats_report _) ->
      (* an ack is consumed in [transmit] before dedup; the rest this
         engine never sends *)
      (0.0, fun () -> ())

  (* --- detector polling (wave-based detectors) --- *)

  (* Polling stops this many virtual seconds after the query started, so
     a query that never terminates (its credit lost to injected loss)
     does not keep the event queue alive forever. *)
  let poll_window = 3600.0

  let start_polling t oq ctx origin_site =
    match D.poll_interval with
    | None -> ()
    | Some interval ->
      let deadline = oq.start_time +. poll_window in
      let rec tick () =
        if (not oq.terminated) && Hf_sim.Sim.now t.sim <= deadline then begin
          post t origin_site ctx (C.poll ctx.core ctx.detector);
          Hf_sim.Sim.schedule t.sim ~delay:interval tick
        end
      in
      Hf_sim.Sim.schedule t.sim ~delay:interval tick

  (* --- the execution-mode planner (doc/execution_modes.md) --- *)

  (* The peer summary the planner consults: preferably what the origin
     learned from [Cache_version] replies — but only while the peer's
     store is still at the version the summary was built for, because
     the [Seed_from] broadcast prune skips sites on the strength of this
     filter and a stale one could miss content the peer has since
     gained.  Otherwise (cache layer on but the learned entry is stale
     or absent) the peer's own memoized summary — the simulator's
     stand-in for the stats a real deployment piggybacks on the
     validation round trip.  With the cache layer off there is no
     summary channel at all and the planner stays conservative.  The
     Bloofi tree is brought in line with this view before each use. *)
  let summary_for t origin_site peer =
    let peer = t.sites.(peer) in
    match Site.learned origin_site.proto ~peer:peer.id with
    | Some (v, bloom) when v = Hf_data.Store.version peer.store -> Some bloom
    | Some _ | None -> Site.summary peer.proto

  let sync_bloofi t origin_site =
    Site.sync_bloofi origin_site.proto ~n_sites:(n_sites t) ~summary:(summary_for t origin_site)

  (* Price both modes for [program] over [initial] and pick one: store
     cardinality stands in for the store stats the validation reply
     reports, and the unit costs come straight from the simulator's
     cost table so the estimates share dimensions with what the run
     will actually charge. *)
  let plan_decision t ~origin program initial =
    let origin_site = t.sites.(origin) in
    sync_bloofi t origin_site;
    let costs = t.config.costs in
    Site.decide origin_site.proto ~n_sites:(n_sites t) ~summary:(summary_for t origin_site)
      ~objects:(fun peer _ -> Some (Hf_data.Store.cardinal t.sites.(peer).store))
      ~costs:(fun ~item_bytes ~p_local ->
        {
          Hf_query.Plan.transit = costs.msg_transit;
          header_bytes = batch_header_bytes program;
          item_bytes;
          node_bytes = 32;
          eval_s = costs.process;
          byte_s = costs.msg_item_transit /. float_of_int item_bytes;
          p_local;
        })
      program initial

  (* The planner's verdict without running the query — [hfql :plan] and
     [hfql demo --explain-plan] render this. *)
  let explain t ~origin program initial =
    if origin < 0 || origin >= n_sites t then
      invalid_arg "Cluster.explain: bad origin";
    plan_decision t ~origin program initial

  (* --- issuing queries --- *)

  let open_query t ~origin program =
    let query = { Message.originator = origin; serial = t.next_serial } in
    t.next_serial <- t.next_serial + 1;
    let span =
      Hf_obs.Tracer.start t.tracer ~query:(qname query) ~site:origin
        ~phase:Hf_obs.Span.Query "query"
    in
    let oq =
      {
        id = query;
        program;
        start_time = Hf_sim.Sim.now t.sim;
        span;
        metrics = Metrics.create ~n_sites:(n_sites t);
        final = Site.final ();
        counts = [];
        terminated = false;
        finish_time = Hf_sim.Sim.now t.sim;
        admitted = false;
        queue_wait_s = 0.0;
        cancelled = false;
        captured = None;
        mode = Hf_query.Plan.Ship;
        decision = None;
      }
    in
    Hashtbl.replace t.open_queries query oq;
    oq

  let outcome_of t oq =
    let bindings =
      Hashtbl.fold (fun target values acc -> (target, values) :: acc) oq.final.bindings []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let origin_local =
      (* live while the query runs, snapshotted once termination evicts
         the per-site contexts *)
      match oq.captured with
      | Some (_, origin_local) -> Some origin_local
      | None -> (
          match Hashtbl.find_opt t.sites.(oq.id.originator).contexts oq.id with
          | Some ctx -> Some (Oid.Set.cardinal ctx.core.local_result_set)
          | None -> None)
    in
    let counts =
      (* include the originator's own local results in counting modes *)
      match t.config.result_mode with
      | Ship_items -> oq.counts
      | Ship_counts | Ship_threshold _ -> (
          match origin_local with
          | None -> oq.counts
          | Some n ->
            (oq.id.originator, n)
            :: List.filter (fun (s, _) -> s <> oq.id.originator) oq.counts)
    in
    {
      results = List.rev oq.final.results;
      result_set = oq.final.set;
      bindings;
      counts = List.sort compare counts;
      terminated = oq.terminated;
      unreachable_sites = List.sort compare oq.final.unreachable;
      response_time =
        (if oq.terminated then oq.finish_time -. oq.start_time
         else Hf_sim.Sim.now t.sim -. oq.start_time);
      queue_wait_s = oq.queue_wait_s;
      metrics = oq.metrics;
      mode = oq.mode;
      plan_decision = oq.decision;
      engine_stats =
        (match oq.captured with
         | Some (stats, _) -> stats
         | None -> merged_stats t oq.id);
    }

  type handle = open_query

  (* Schedule a query from [origin] over [initial] without running the
     simulation — several submitted queries then execute concurrently,
     contending for the same site CPUs, when the simulation runs.
     Submissions pass the origin's admission gate: over the in-flight
     cap they wait (fairly, by tenant) for a slot; over [max_queued]
     the submission is rejected with [Failure]. *)
  let rec submit t ~origin program initial =
    if origin < 0 || origin >= n_sites t then invalid_arg "Cluster.submit: bad origin";
    let oq = open_query t ~origin program in
    let origin_site = t.sites.(origin) in
    let seed () =
      (* virtual time spent held at the admission gate; recorded as a
         retroactive Wait span so profiles separate queueing from work *)
      let now = Hf_sim.Sim.now t.sim in
      let wait = Float.max 0.0 (now -. oq.start_time) in
      oq.queue_wait_s <- wait;
      Hf_obs.Histogram.observe t.admission_wait wait;
      if wait > 0.0 then
        ignore
          (Hf_obs.Tracer.complete t.tracer ~parent:oq.span ~query:(qname oq.id)
             ~site:origin ~phase:Hf_obs.Span.Wait ~start:oq.start_time ~finish:now
             "admission-wait");
      seed_query t oq origin_site initial
    in
    (match Sched.admit t.gates.(origin) ~tenant:origin (oq.id, seed) with
     | Sched.Run ->
       oq.admitted <- true;
       seed ()
     | Sched.Queued -> ()
     | Sched.Rejected ->
       Hashtbl.remove t.open_queries oq.id;
       Hf_obs.Tracer.finish ~detail:"rejected" t.tracer oq.span;
       failwith
         (Fmt.str "Cluster.submit: admission queue full at site %d (%a)" origin
            Sched.pp_config t.config.admission));
    oq

  and seed_query t oq origin_site initial =
    let origin = origin_site.id in
    match context_of t origin_site oq.id with
    | None -> assert false
    | Some ctx ->
      D.on_seed ctx.detector;
      start_polling t oq ctx origin_site;
      (* Mode selection: [Exec_ship] is the byte-identical legacy path
         (no planner at all); [Exec_scatter] forces scatter whenever the
         engine can do it; [Exec_auto] lets the cost model choose.
         Scatter additionally needs [Local_marks] (the stitch reproduces
         per-site entry suppression, not a global table's) and
         [Ship_items] (gathers carry nodes, not counts). *)
      let scatter_ok =
        (match t.config.mark_scope with
         | Local_marks -> true
         | Global_marks -> false)
        && match t.config.result_mode with
           | Ship_items -> true
           | Ship_counts | Ship_threshold _ -> false
      in
      let decision, scatter_sites =
        Site.select ctx.core t.config.exec ~scatter_ok (fun () ->
            plan_decision t ~origin oq.program initial)
      in
      oq.decision <- decision;
      (match scatter_sites with
       | Some sites ->
         oq.mode <- Hf_query.Plan.Scatter;
         seed_scatter t oq origin_site ctx ~sites initial
       | None -> seed_shipping t oq origin_site ctx initial)

  and seed_scatter t oq origin_site ctx ~sites initial =
    let origin = origin_site.id in
    (* The stitch is installed before any task runs, so [maybe_drain]
       holds the origin open until every gather (or a death verdict)
       lands. *)
    let roots_of, stray = Site.scatter_seed origin_site.proto ctx.core ~sites initial in
    enqueue t origin_site ~tenant:origin (fun () ->
        let own_roots = roots_of origin in
        let domain = domain_size origin_site ctx own_roots in
        let duration =
          (float_of_int domain *. t.config.costs.process)
          +. (float_of_int (List.length sites) *. t.config.costs.msg_send)
        in
        Metrics.add_busy oq.metrics origin duration;
        ( duration,
          fun () ->
            (* Local half: the originator evaluates its own domain and
               feeds the stitch as if it had gathered from itself. *)
            let nodes = Site.eval_domain origin_site.proto ctx.core ~roots:own_roots in
            stitch_gather t origin_site ctx ~src:origin nodes;
            aside t origin_site ctx (fun sink ->
                Site.dispatch origin_site.proto ctx.core sink
                  (List.map (Hf_engine.Work_item.initial ctx.core.plan) stray));
            List.iter
              (fun dst ->
                let credit = C.split ctx.detector ~dst in
                let dst_roots = roots_of dst in
                let body = Hf_engine.Plan.program ctx.core.plan in
                oq.metrics.Metrics.scatter_messages <-
                  oq.metrics.Metrics.scatter_messages + 1;
                oq.metrics.Metrics.scatter_bytes <-
                  oq.metrics.Metrics.scatter_bytes
                  + scatter_message_bytes body dst_roots;
                let span =
                  Hf_obs.Tracer.start t.tracer ~parent:ctx.core.span
                    ~query:(qname oq.id) ~site:origin
                    ~phase:Hf_obs.Span.Scatter
                    (Fmt.str "scatter->%d" dst)
                in
                Hf_obs.Tracer.set_detail t.tracer span
                  (Fmt.str "%d root(s)" (List.length dst_roots));
                deliver t ~src:origin ~oq:(Some oq) ~label:"scatter" ~span
                  ~transit:
                    (Hf_sim.Costs.batch_transit t.config.costs
                       ~items:(max 1 (List.length dst_roots)))
                  ~dst
                  (Wire (Scatter { query = oq.id; body; roots = dst_roots; credit })))
              sites;
            (* stray pushes below the batch threshold still flush *)
            pump_soon t origin_site ctx;
            maybe_drain t origin_site ctx ))

  (* Remote seeds ride the same cache layer and per-site batcher as
     spawned work, so concurrent submissions coalesce too. *)
  and seed_shipping t oq origin_site ctx initial =
    enqueue t origin_site ~tenant:origin_site.id (fun () ->
        let sink, local, flushed = collect t origin_site ctx in
        Site.dispatch origin_site.proto ctx.core sink
          (List.map (Hf_engine.Work_item.initial ctx.core.plan) initial);
        let flushed = List.rev !flushed in
        let duration = send_cost t flushed in
        Metrics.add_busy oq.metrics origin_site.id duration;
        ( duration,
          fun () ->
            bank t origin_site ctx Seeded (List.rev !local);
            List.iter (send_prepared t origin_site) flushed;
            drain_after t origin_site ctx flushed ))

  (* Run every scheduled event; submitted queries execute (and contend)
     together. *)
  let await_quiescence t = Hf_sim.Sim.run t.sim

  let outcome t handle = outcome_of t handle

  (* EXPLAIN ANALYZE (DESIGN.md §4i): fold the tracer's spans for this
     query into a per-site phase/rounds breakdown, with the engine's own
     per-query counters pinned alongside as scalars.  The scalars come
     from [Metrics], not from the spans — the differential tests check
     the two accounts agree. *)
  let profile ?spans t (handle : handle) =
    let o = outcome_of t handle in
    (* [?spans] lets a monitoring loop profiling many handles bucket the
       tracer's spans once ([Hf_obs.Profile.by_query]) instead of
       fetching and filtering all of them per handle *)
    let spans =
      match spans with
      | Some by_query -> by_query (qname handle.id)
      | None -> Hf_obs.Tracer.spans t.tracer
    in
    let m = o.metrics in
    Hf_obs.Profile.of_spans ~query:(qname handle.id)
      ~scalars:
        [
          ("messages", Hf_obs.Profile.Int (Metrics.total_messages m));
          ("bytes", Hf_obs.Profile.Int (Metrics.total_bytes m));
          ("work_messages", Hf_obs.Profile.Int m.Metrics.work_messages);
          ("work_items", Hf_obs.Profile.Int m.Metrics.work_items);
          ("results", Hf_obs.Profile.Int (List.length o.results));
          ("busy_total_s", Hf_obs.Profile.Float (Metrics.total_busy m));
          ("queue_wait_s", Hf_obs.Profile.Float o.queue_wait_s);
          ("response_time_s", Hf_obs.Profile.Float o.response_time);
          ("cache_hits", Hf_obs.Profile.Int m.Metrics.cache_hits);
          ("cache_prunes", Hf_obs.Profile.Int m.Metrics.cache_prunes);
          ("retransmits", Hf_obs.Profile.Int m.Metrics.retransmits);
          (* 1 when the query ran scatter-gather, 0 for classic shipping
             (scalars are numeric; the mode name itself is in the
             outcome and the slow-query log) *)
          ( "mode_scatter",
            Hf_obs.Profile.Int
              (match handle.mode with
               | Hf_query.Plan.Scatter -> 1
               | Hf_query.Plan.Ship -> 0) );
          ("scatter_messages", Hf_obs.Profile.Int m.Metrics.scatter_messages);
          ("gather_nodes", Hf_obs.Profile.Int m.Metrics.gather_nodes);
          ("scatter_fallbacks", Hf_obs.Profile.Int m.Metrics.scatter_fallbacks);
          ("planner_scatter", Hf_obs.Profile.Int m.Metrics.planner_scatter);
          ("planner_ship", Hf_obs.Profile.Int m.Metrics.planner_ship);
        ]
      ~dropped:(Hf_obs.Tracer.dropped t.tracer)
      spans

  let query_id (handle : handle) = handle.id

  (* Cancel a submitted query.  A submission still queued at the
     admission gate simply leaves the queue; a running one has its
     per-site state evicted and becomes invisible to the message paths
     (late messages drop at [find_open]/[context_of]).  The per-site
     detector instances are discarded with the contexts — the origin no
     longer needs their credit to converge, which is the same soundness
     argument [abandon] makes for an unreachable peer's messages. *)
  let cancel t (handle : handle) =
    let oq = handle in
    if not (oq.terminated || oq.cancelled) then
      if not oq.admitted then begin
        ignore
          (Sched.cancel_queued t.gates.(oq.id.originator) (fun (q, _) ->
               Message.equal_query_id q oq.id));
        oq.cancelled <- true;
        Hf_obs.Tracer.finish ~detail:"cancelled" t.tracer oq.span
      end
      else begin
        (* Empty every working set first so tasks already queued for
           this query's contexts complete as no-ops. *)
        Array.iter
          (fun site ->
            match Hashtbl.find_opt site.contexts oq.id with
            | Some ctx ->
              Hf_util.Deque.clear ctx.core.work;
              Site.drop_parked ctx.core;
              ctx.core.result_buffer <- []
            | None -> ())
          t.sites;
        evict_query t oq;
        oq.cancelled <- true;
        oq.finish_time <- Hf_sim.Sim.now t.sim
      end

  let cancelled (handle : handle) = handle.cancelled

  (* Issue a query and run the simulation until the cluster goes quiet —
     the sequential-client model of the paper's experiments. *)
  let run_query t ~origin program initial =
    let oq = submit t ~origin program initial in
    Hf_sim.Sim.run t.sim;
    outcome_of t oq

  (* Re-query over the distributed result set of a previous query
     (Section 5's proposed optimisation): each site seeds its working
     set from its retained portion of [from]'s results; only one message
     per site crosses the network. *)
  let run_query_on_distributed t ~origin ~from program =
    let oq = open_query t ~origin program in
    let origin_site = t.sites.(origin) in
    (match context_of t origin_site oq.id with
     | None -> assert false
     | Some ctx ->
       D.on_seed ctx.detector;
       start_polling t oq ctx origin_site;
       enqueue t origin_site ~tenant:origin (fun () ->
           let remote_sites =
             List.filter (fun s -> s <> origin) (List.init (n_sites t) Fun.id)
           in
           (* Bloofi pre-broadcast prune: a site whose summary misses
              the probes every object needs to survive the program's
              first filter can only contribute dead seeds — skip its
              Seed_from entirely.  Unindexed sites (no summary learned
              or channel off) are always contacted, so a stale or empty
              tree over-ships but never loses a result. *)
           let remote_sites =
             sync_bloofi t origin_site;
             let zeros = Array.make (Hf_engine.Plan.iter_count ctx.core.plan) 0 in
             let probes =
               Hf_index.Remote_cache.prune_probes ctx.core.plan ~start:0 ~iters:zeros
             in
             match if probes = [] then None else Site.descend origin_site.proto [ probes ] with
             | None -> remote_sites
             | Some descent ->
               List.filter
                 (fun s ->
                   match Site.may_match descent ~site:s with Some false -> false | _ -> true)
                 remote_sites
           in
           let duration =
             float_of_int (List.length remote_sites) *. t.config.costs.msg_send
           in
           Metrics.add_busy oq.metrics origin duration;
           ( duration,
             fun () ->
               bank t origin_site ctx Seeded
                 (List.map (Hf_engine.Work_item.initial ctx.core.plan) (portion origin_site from));
               List.iter
                 (fun dst ->
                   let tag = C.split ctx.detector ~dst in
                   oq.metrics.Metrics.work_messages <- oq.metrics.Metrics.work_messages + 1;
                   let span =
                     Hf_obs.Tracer.start t.tracer ~parent:ctx.core.span ~query:(qname oq.id)
                       ~site:origin ~phase:Hf_obs.Span.Ship
                       (Fmt.str "seed->%d" dst)
                   in
                   deliver t ~src:origin ~oq:(Some oq) ~label:"seed" ~span
                     ~transit:t.config.costs.msg_transit ~dst
                     (Seed_from { query = oq.id; from; tag }))
                 remote_sites;
               maybe_drain t origin_site ctx )));
    Hf_sim.Sim.run t.sim;
    outcome_of t oq

  let forget_query t query =
    Hashtbl.remove t.open_queries query;
    Array.iter
      (fun site ->
        Hashtbl.remove site.contexts query;
        Hashtbl.remove site.retained query)
      t.sites

  (* --- introspection for the leak-regression and admission tests --- *)

  (* Live per-site contexts across the cluster; zero once every
     submitted query reached terminal status (satellite 1's invariant). *)
  let context_count t =
    Array.fold_left (fun acc site -> acc + Hashtbl.length site.contexts) 0 t.sites

  (* Buffered-item ledger entries across the cluster; like [contexts]
     these must return to empty at quiescence. *)
  let buffered_count t =
    Array.fold_left
      (fun acc site ->
        Hashtbl.fold (fun _ ctx n -> if ctx.core.buffered > 0 then n + 1 else n) site.contexts acc)
      0 t.sites

  let retained_count t =
    Array.fold_left (fun acc site -> acc + Hashtbl.length site.retained) 0 t.sites

  let admission_running t ~origin = Sched.running t.gates.(origin)

  let admission_queued t ~origin = Sched.queued t.gates.(origin)

  let last_query_id t =
    if t.next_serial = 0 then None
    else
      Hashtbl.fold
        (fun id _ acc ->
          match acc with
          | Some best when Message.compare_query_id best id >= 0 -> acc
          | Some _ | None -> Some id)
        t.open_queries None
end
