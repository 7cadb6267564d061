(* A real HyperFile site over TCP.

   This is the paper's Section 3.2 protocol on actual sockets — the
   messages the simulator ships ([Hf_proto.Message]), here carrying
   credit atoms, in the binary codec behind length framing.  Every
   site runs the identical algorithm ([Hf_server.Site], shared with the
   simulator): per-query contexts, query shipping on remote
   dereferences, results flowing straight to the originator,
   weighted-message termination with credit piggybacked on results.

   Threading model: a site is a message-driven server with one thread,
   its event loop ([serve]).  Each round the loop
   - sleeps in [Unix.select] on the listeners, the wake-up pipe, every
     inbound socket and every outbound socket holding bytes the kernel
     has not taken;
   - accepts connections and answers the monitor port;
   - reads every readable socket, decodes its frames and handles the
     messages;
   - runs the commands client threads posted;
   - runs one bounded drain slice per runnable query context,
     round-robin; while any context stays runnable the next [select]
     does not sleep, the way [Cluster.pump] interleaves tasks;
   - writes every outbound buffer without blocking;
   - gives up a retired connection after 50 ms without progress;
   - polls the reliable links.
   The loop owns every piece of protocol state, so none of it takes a
   lock.  A client call ([submit_query], [cancel], [explain], a registry
   read, ...) posts a command through the wake-up pipe and waits for
   the loop to run it ([call]).  The one mutex ([handoff]) guards only
   the command queue and the completions clients wait on; it is never
   held while a command runs or across a socket call.  [await] waits
   until the origin's detector recovers all credit, the query is
   cancelled, or a timeout expires (crashed peers then yield partial
   results, per the paper's "partial results are better than none").
   [run_query] is submit + await.

   Concurrency (DESIGN.md §4h): any number of queries may be live at
   once.  Shared per-link state needs no per-query keying — reliable
   seq/ack and dedup are link-scoped by design (they protect frames,
   not queries), the remote-answer cache is keyed by (destination,
   plan, item) which is already query-independent, and each drain has
   its own work batcher, so batches never mix queries on this engine.
   The admission gate ([Hf_server.Sched]) caps in-flight queries per
   origin and queues the rest fairly. *)

module Message = Hf_proto.Message
module Credit = Hf_termination.Credit
module Weighted = Hf_termination.Weighted
module Sched = Hf_server.Sched
module Site = Hf_server.Site

(* The credit paths, shared with the simulator, over weighted
   termination.  The wire carries credit as atom exponents, converted
   where a frame is built and where one is read. *)
module C =
  Site.Termination (Weighted)
    (struct
      type work = int list
      type back = int list

      let work = Credit.atoms
      let tag = Credit.of_atoms
      let back = List.concat_map (fun (Weighted.Return credit) -> Credit.atoms credit)

      let controls = function [] -> [] | atoms -> [ Weighted.Return (Credit.of_atoms atoms) ]
    end)

let src = Logs.Src.create "hf.net" ~doc:"HyperFile TCP transport"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- connections --- *)

(* A frame for a peer is appended to its connection's buffer, and the
   loop writes each buffer once a round, without blocking, after it has
   handled what woke it.  A write the socket refuses (EAGAIN: the peer
   stopped reading) stays queued until [select] reports the socket
   writable, so frames reach the wire in the order they were queued. *)
type out_conn = {
  fd : Unix.file_descr; (* non-blocking *)
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
      (* bytes [off, len) of [buf]: framed messages queued in send order
         and not yet taken by the socket *)
  mutable progress_at : float; (* once retired: when the socket last took bytes *)
}

type in_conn = { in_fd : Unix.file_descr; (* non-blocking *) decoder : Hf_proto.Frame.Decoder.t }

let buffer_size = 4096

(* A buffer a burst or a large frame grew past this is dropped once
   empty rather than kept at its high-water mark. *)
let buffer_keep = 65536

let queued conn = conn.len - conn.off

(* Append one message framed: the length header, then the payload
   [payload] holds, copied straight into the send buffer.  A full
   buffer first moves its unsent bytes to the front, or doubles when
   they leave too little room.  A payload past [Frame.max_frame_size]
   raises [Frame_error] with nothing queued. *)
let enqueue conn payload =
  let size = Buffer.length payload in
  let n = Hf_proto.Frame.header_size + size in
  if conn.len + n > Bytes.length conn.buf then begin
    let live = queued conn in
    let buf =
      if live + n <= Bytes.length conn.buf then conn.buf
      else Bytes.create (Int.max (live + n) (2 * Bytes.length conn.buf))
    in
    Bytes.blit conn.buf conn.off buf 0 live;
    conn.buf <- buf;
    conn.off <- 0;
    conn.len <- live
  end;
  Hf_proto.Frame.write_header conn.buf conn.len size;
  Buffer.blit payload 0 conn.buf (conn.len + Hf_proto.Frame.header_size) size;
  conn.len <- conn.len + n

(* Non-blocking write of [buf] from [off] up to [len]: the offset
   reached when the socket takes no more. *)
let write_some fd buf off len =
  match Unix.write fd buf off (len - off) with
  | n -> off + n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> off

(* Write what [conn] holds, as far as the socket takes it; [false] when
   the write failed and the queued frames are lost (with reliability
   on, retransmission re-delivers them over a fresh connection). *)
let flush ~now conn =
  conn.off = conn.len
  ||
  match write_some conn.fd conn.buf conn.off conn.len with
  | exception Unix.Unix_error _ -> false
  | off ->
    if off > conn.off then conn.progress_at <- now;
    if off < conn.len then conn.off <- off
    else begin
      conn.off <- 0;
      conn.len <- 0;
      if Bytes.length conn.buf > buffer_keep then conn.buf <- Bytes.create buffer_size
    end;
    true

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let open_out_conn addr =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (match Unix.connect fd addr with
   | () -> ()
   | exception e ->
     close_fd fd;
     raise e);
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create buffer_size; off = 0; len = 0; progress_at = 0.0 }

(* --- execution mode (doc/execution_modes.md) --- *)

type exec_mode = Site.exec_mode = Exec_ship | Exec_scatter | Exec_auto

(* --- per-query state --- *)

(* A context belongs to the loop, except [settled], which clients read. *)
type context = {
  core : Hf_engine.Work_item.t Site.ctx;
      (* the shared per-query state.  [core.active] counts drains under
         way: a give-up that fires mid-drain must not run the
         credit-return tail under the drain's feet.  [core.buffered]
         counts items in a drain's batcher.  The credit-return tail
         waits for both, and for parked items and open gathers, so it
         runs only once every remote-bound item is on the wire (or
         served locally). *)
  name : string; (* the query's name in spans; "" with tracing off *)
  detector : Weighted.t; (* this site's termination credit for the query *)
  sink : Site.sink; (* where the work path hands this site's items *)
  mutable draining : Hf_engine.Work_item.t Hf_proto.Batch.t option;
      (* while the context waits in the loop's run queue: its drain's
         batcher, which every item this site ships passes through *)
  (* origin-side only *)
  mutable terminated : bool;
  mutable ran_mode : Hf_query.Plan.mode; (* which execution mode actually ran (origin-side) *)
  mutable decision : Hf_query.Plan.decision option;
      (* the planner's verdict, when a planner ran (origin-side) *)
  (* Per-query transport attribution: site-global counters bleed across
     overlapping queries, so each frame is also charged to its query's
     context and outcomes read these instead of global deltas. *)
  mutable msgs_sent : int;
  mutable bytes_out : int;
  mutable queue_wait_s : float;
      (* origin-side: seconds spent in the admission queue before the
         seed ran; 0 for remotely-introduced contexts *)
  (* origin-side admission / cancellation state *)
  mutable admitted : bool;
  mutable slot_released : bool;
  mutable cancelled : bool;
  mutable started : float; (* when it was submitted *)
  mutable finished_at : float; (* when it terminated or was cancelled *)
  mutable settled : bool; [@hf.guarded_by "handoff"]
      (* terminated or cancelled: what [await] waits for *)
}

type pending = {
  p_query : Message.query_id;
  p_seed : unit -> unit; (* runs on the loop when the queued query takes a slot *)
}

type t = {
  id : int;
  store : Hf_data.Store.t;
  batch_policy : Hf_proto.Batch.flush_policy;
      (* per-destination work batching; [Flush_at 1] ships one
         Deref_request per item, byte-identical to the original
         protocol *)
  reliability : Hf_proto.Reliable.config option;
      (* ack/retransmit layer; [None] = fire-and-forget (a lost frame or
         crashed peer silently loses messages and their credit) *)
  links : (int, Message.t Hf_proto.Reliable.t) Hashtbl.t;
      (* per-peer reliable-link state, created on first contact *)
  listener : Unix.file_descr; (* non-blocking *)
  monitor : Unix.file_descr option;
      (* always-on monitoring surface: a non-blocking loopback listener
         whose every connection the loop answers with a Prometheus text
         dump of [registry] *)
  address : Unix.sockaddr;
  monitor_address : Unix.sockaddr option;
  mutable peers : Unix.sockaddr array; (* index = site id *)
  conns : (int, out_conn) Hashtbl.t; (* the outbound connection to each peer *)
  mutable retired : out_conn list;
      (* connections replaced or shut down, writing what they still hold *)
  mutable inbound : in_conn list;
  chunk : Bytes.t; (* the loop's read buffer *)
  scratch : Buffer.t; (* the loop's encode buffer: one frame's payload at a time *)
  contexts : (Message.query_id, context) Hashtbl.t;
  runnable : context Queue.t;
      (* contexts with a drain under way, in round-robin order *)
  mutable next_serial : int;
  admission : Sched.config;
  gate : pending Sched.t; (* admission gate for locally-issued queries (DESIGN.md §4h) *)
  closed : (Message.query_id, unit) Hashtbl.t;
      (* tombstones for evicted queries: late or retransmitted work for
         a query the originator already closed must not resurrect a
         context (its credit is dead — same as a loss).  Bounded FIFO. *)
  closed_order : Message.query_id Queue.t;
  mutable running : bool; (* cleared by [shutdown] *)
  (* the client hand-off *)
  mutex : Mutex.t; (* a leaf lock, for client threads *)
  commands : (unit -> unit) Queue.t; [@hf.guarded_by "handoff"]
  todo : (unit -> unit) Queue.t; (* the commands the loop took this round *)
  mutable exited : bool; [@hf.guarded_by "handoff"]
      (* the loop is gone: calls read its final state on the caller *)
  mutable pulled : int; [@hf.guarded_by "handoff"]
      (* the newest [Stats_pull] token every peer has answered *)
  replied : Condition.t; (* the loop ran a command, or exited *)
  done_cond : Condition.t; (* a query settled, a pull completed, a ticker fired *)
  mutable loop : Thread.t option;
  mutable loop_id : int; (* the loop thread's id, once it runs *)
  wake : Unix.file_descr * Unix.file_descr; (* the loop's pipe: read, write *)
  wakers : int Atomic.t; (* pokes writing [wake]; negative once the loop closes it *)
  join_errors : int Atomic.t; (* threads that could not be joined *)
  (* observability.  Sites sharing one tracer (same process, as in
     tests and the demo) get cross-site spans: the wire carries the
     sender's span id and the receiver closes it on arrival, so a work
     message's span extends over its real transit.  Separate processes
     each see their own half. *)
  tracer : Hf_obs.Tracer.t;
  registry : Hf_obs.Registry.t;
  sent_frame_bytes : Hf_obs.Histogram.t; (* per-message encoded size *)
  query_rtt : Hf_obs.Histogram.t; (* terminated local queries' response times, seconds *)
  ack_latency : Hf_obs.Histogram.t; (* first-send to cumulative-ack, seconds *)
  (* transport metrics *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_received : int;
  mutable acks_sent : int;
  metrics : Hf_server.Metrics.t;
      (* the rest, every query at this site together: cache verdicts,
         fills, scatter traffic, planner choices, retransmits, dup
         drops and give-ups *)
  proto : Site.t;
      (* the protocol state shared with the simulator: the answer cache
         and Bloom summary channel (off = ships every item, the seed
         protocol), the Bloofi tree over learned summaries (off = the
         planner's flat per-peer scan), and the locality memo *)
  exec : exec_mode; (* scatter-gather execution mode (doc/execution_modes.md) *)
  (* cluster-wide stats scraping and monitoring (DESIGN.md §4i) *)
  mutable stats_token : int;
      (* last Stats_pull token issued by this site; replies carrying an
         older token never satisfy a waiting [pull_stats] *)
  peer_stats : (int, Hf_obs.Registry.snapshot) Hashtbl.t;
      (* peer -> last registry snapshot received from it *)
  peer_stats_token : (int, int) Hashtbl.t;
      (* peer -> highest pull token that snapshotting has answered *)
  admission_wait : Hf_obs.Histogram.t; (* submit-to-seed queue wait, seconds *)
}

(* The text of [Message.pp_query_id]. *)
let query_name { Message.originator; serial } =
  "q" ^ string_of_int serial ^ "@" ^ string_of_int originator

(* Span names and details are built only when tracing is on: the noop
   tracer ignores its strings, so building them would be all the cost
   of a disabled tracer.  [trace_name] renders a query's name once per
   context. *)
let trace_name t query = if Hf_obs.Tracer.enabled t.tracer then query_name query else ""

(* A span ["verb->dst"] for [ctx]'s query at this site, under its
   evaluation span; 0 with tracing off. *)
let ctx_span t ctx phase verb dst =
  if Hf_obs.Tracer.enabled t.tracer then
    Hf_obs.Tracer.start t.tracer ~parent:ctx.core.span ~query:ctx.name ~site:t.id ~phase
      (verb ^ "->" ^ string_of_int dst)
  else 0

(* [ctx_span], with detail ["<count> <noun>"] for the list [xs]. *)
let counted_span t ctx phase verb dst xs noun =
  let span = ctx_span t ctx phase verb dst in
  if span <> 0 then
    Hf_obs.Tracer.set_detail t.tracer span (string_of_int (List.length xs) ^ " " ^ noun);
  span

(* --- the client hand-off --- *)

let handoff t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Wake the loop: one byte down its pipe, unless a full pipe already
   holds a wake or the loop has closed it. *)
let wake t =
  if Atomic.fetch_and_add t.wakers 1 >= 0 then
    (try ignore (Unix.single_write_substring (snd t.wake) "!" 0 1) with Unix.Unix_error _ -> ());
  Atomic.decr t.wakers

(* Run [f] on the loop and return its result, or raise its exception.
   On the loop thread itself [f] runs inline: a gauge read during a
   monitor dump or a [Stats_pull] answer.  Once the loop has exited,
   [f] runs on the caller over the loop's final state: the calls that
   would change it do nothing, or raise, on a shut-down site. *)
let call t f =
  if Thread.id (Thread.self ()) = t.loop_id then f ()
  else begin
    let reply = ref None in
    let command () =
      let result = match f () with v -> Ok v | exception e -> Error e in
      handoff t (fun () ->
          reply := Some result;
          Condition.broadcast t.replied)
    in
    if handoff t (fun () -> (not t.exited) && (Queue.push command t.commands; true)) then wake t;
    match
      handoff t (fun () ->
          while Option.is_none !reply && not t.exited do
            Condition.wait t.replied t.mutex
          done;
          !reply)
    with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> f ()
  end

(* Tell the clients waiting on [ctx] that it terminated or was
   cancelled. *)
let settle t ctx =
  ctx.finished_at <- Unix.gettimeofday ();
  handoff t (fun () ->
      ctx.settled <- true;
      Condition.broadcast t.done_cond)

(* Run [f] while a ticker thread broadcasts [done_cond] every [tick]
   seconds: the stdlib's Condition.wait has no timeout, so the ticks
   let a waiter see its deadline pass.  The ticker is joined before
   this returns. *)
let with_ticker t tick f =
  let stop = Atomic.make false in
  let ticker =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay tick;
          handoff t (fun () -> Condition.broadcast t.done_cond)
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      try Thread.join ticker with _ -> Atomic.incr t.join_errors)
    f

(* --- stats snapshots on the wire (DESIGN.md §4i) --- *)

(* Registry snapshots and wire stats live in different layers — hf_obs
   knows nothing of the protocol and hf_proto nothing of registries —
   so the transport converts between them.  Histograms cross as exact
   shape (count/sum/min/max/buckets); the percentile reservoir stays
   site-local by design. *)
let stats_of_snapshot snapshot =
  List.map
    (fun (name, sampled) ->
      let value =
        match (sampled : Hf_obs.Registry.sampled) with
        | Hf_obs.Registry.Counter_value n -> Message.Stat_counter n
        | Hf_obs.Registry.Gauge_value v -> Message.Stat_gauge v
        | Hf_obs.Registry.Histogram_value h ->
          Message.Stat_histogram
            {
              count = Hf_obs.Histogram.count h;
              sum = Hf_obs.Histogram.sum h;
              vmin = Hf_obs.Histogram.vmin h;
              vmax = Hf_obs.Histogram.vmax h;
              buckets = Hf_obs.Histogram.buckets h;
            }
      in
      { Message.name; value })
    snapshot

(* A histogram the codec accepted but [of_shape] rejects (negative
   count, bucket index out of range — a version-skewed peer) drops that
   one metric, not the whole report. *)
let snapshot_of_stats stats =
  List.filter_map
    (fun { Message.name; value } ->
      match value with
      | Message.Stat_counter n -> Some (name, Hf_obs.Registry.Counter_value n)
      | Message.Stat_gauge v -> Some (name, Hf_obs.Registry.Gauge_value v)
      | Message.Stat_histogram { count; sum; vmin; vmax; buckets } -> (
          match Hf_obs.Histogram.of_shape ~count ~sum ~vmin ~vmax ~buckets () with
          | h -> Some (name, Hf_obs.Registry.Histogram_value h)
          | exception Invalid_argument _ -> None))
    stats
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- sending --- *)

(* The reliable-link state for peer [dst], created on first contact.
   One [Reliable.t] per peer holds both halves of the link: sequencing
   and retransmission for frames we send it, dedup and cumulative acks
   for frames it sends us. *)
let link_for t dst =
  match Hashtbl.find_opt t.links dst with
  | Some link -> link
  | None ->
    let link =
      Hf_proto.Reliable.create (Option.value t.reliability ~default:Hf_proto.Reliable.default)
    in
    Hashtbl.replace t.links dst link;
    link

(* Empty the encode buffer.  One that a large frame grew past
   [buffer_keep] is dropped, as a connection's buffer is. *)
let clear_scratch t =
  if Buffer.length t.scratch > buffer_keep then Buffer.reset t.scratch else Buffer.clear t.scratch

(* One physical transmission attempt: connection management plus frame
   encoding, into the site's one encode buffer and from there straight
   into the connection's send buffer.  [seq] is the reliability
   sequence number (0 when unsequenced — reliability off, or a
   standalone [Link_ack]); the cumulative ack for the reverse direction
   is peeked immediately before the frame is queued, so every outgoing
   envelope carries the freshest ack.  A connection whose write failed
   is gone from [conns], and the next frame opens a fresh one — with
   reliability on, whatever the old one lost is retransmitted.  A
   shut-down site opens no connection, so what it sends is dropped. *)
let transmit_raw t ?(span = 0) ~seq ~dst message =
  let conn =
    match Hashtbl.find_opt t.conns dst with
    | Some _ as conn -> conn
    | None when not t.running -> None
    | None -> (
        match open_out_conn t.peers.(dst) with
        | conn ->
          Hashtbl.replace t.conns dst conn;
          Some conn
        | exception Unix.Unix_error _ -> None (* peer down *))
  in
  match conn with
  | None -> Hf_obs.Tracer.finish ~detail:"peer down" t.tracer span
  | Some conn ->
    let rel =
      match t.reliability with
      | None -> None
      | Some _ ->
        Some
          { Hf_proto.Codec.src = t.id; seq; ack = Hf_proto.Reliable.take_ack (link_for t dst) }
    in
    (* emptied before as well as after, in case the last encode raised *)
    clear_scratch t;
    Hf_proto.Codec.encode_to t.scratch ~span ?rel message;
    let size = Buffer.length t.scratch in
    t.messages_sent <- t.messages_sent + 1;
    t.bytes_sent <- t.bytes_sent + size;
    (* Per-query attribution: site-global counters cover every query at
       once, so an outcome reading global deltas would charge one query
       with its neighbors' traffic.  Each frame — retransmissions
       included — is charged to its query's live context instead; link
       housekeeping ([Link_ack]) and post-eviction control frames have
       no query context and stay site-global only. *)
    (match Option.bind (Message.query_of message) (Hashtbl.find_opt t.contexts) with
     | Some ctx ->
       ctx.msgs_sent <- ctx.msgs_sent + 1;
       ctx.bytes_out <- ctx.bytes_out + size
     | None -> ());
    Hf_obs.Histogram.observe t.sent_frame_bytes (float_of_int size);
    enqueue conn t.scratch;
    clear_scratch t

(* --- query contexts --- *)

(* Put [ctx] in the run queue, unless a drain is already under way;
   the drain's batcher either way. *)
let schedule t ctx =
  match ctx.draining with
  | Some out -> out
  | None ->
    let out = Hf_proto.Batch.create t.batch_policy in
    ctx.draining <- Some out;
    ctx.core.active <- ctx.core.active + 1;
    Queue.push ctx t.runnable;
    out

(* --- context eviction --- *)

(* A terminated (or cancelled) query must leave no per-site state
   behind: under concurrency the contexts table is long-lived working
   state, not a per-query scratchpad, and leaking one entry per query
   is an unbounded heap on a server that never restarts. *)

let tombstone_cap = 1024

let mark_closed t query =
  if not (Hashtbl.mem t.closed query) then begin
    Hashtbl.replace t.closed query ();
    Queue.push query t.closed_order;
    if Queue.length t.closed_order > tombstone_cap then
      Hashtbl.remove t.closed (Queue.pop t.closed_order)
  end

(* Drop the query's context and tombstone its id.  The record itself
   stays reachable from any live handle (origin side), so [await] can
   still read the final results; what this reclaims is the table entry,
   the working set, a drain's batcher and the parked items — the run
   queue lets go of the context at its next turn — and the tombstone
   makes a late Work_batch for the query die at the door instead of
   resurrecting an empty context. *)
let evict_context t query (ctx : context) =
  (* The context's detector, and any credit it still holds, goes with
     it, on purpose.  Eviction happens on the cancel / Query_done /
     termination paths, where the origin has stopped counting, so that
     credit is dead by design (on normal termination there is none);
     and after a drain that raised, where the slice lost work and
     returning the credit could let the origin report a complete answer
     that misses results. *)
  ctx.draining <- None;
  Hf_obs.Tracer.finish t.tracer ctx.core.span;
  Hf_util.Deque.clear ctx.core.work;
  Site.drop_parked ctx.core;
  Hashtbl.reset ctx.core.validating;
  Hashtbl.remove t.contexts query;
  mark_closed t query

(* Free the admission slot a finished/cancelled local query held; a
   queued submission, if any, takes over the slot and is seeded
   here. *)
let release_slot t (ctx : context) =
  if ctx.admitted && not ctx.slot_released then begin
    ctx.slot_released <- true;
    match Sched.release t.gate with Some job -> job.p_seed () | None -> ()
  end

(* Front door for outgoing messages.  With reliability off this is a
   single fire-and-forget transmission — seed behavior, byte-identical
   frames.  With it on, the message first registers with the peer's
   reliable link, so a lost frame costs a retransmission instead of the
   message; a peer already past its retry budget fails fast into
   [give_up_message]. *)
let rec send t ?(span = 0) ~dst message =
  match t.reliability with
  | None -> transmit_raw t ~span ~seq:0 ~dst message
  | Some _ ->
    let link = link_for t dst in
    if Hf_proto.Reliable.unreachable link then begin
      Hf_obs.Tracer.finish ~detail:"unreachable" t.tracer span;
      give_up_message t ~dst message
    end
    else begin
      let seq = Hf_proto.Reliable.send link ~now:(Unix.gettimeofday ()) message in
      transmit_raw t ~span ~seq ~dst message
    end

(* [dst]'s retry budget is exhausted and [message] will never be
   delivered: the credit of work aboard is unwound ([C.unwind]), so the
   client learns its answer is partial.  An answer is dropped, on
   purpose: it pledges nothing here, and with the originator
   unreachable no site is left to pay or tell; losing its credit can
   only keep the query from terminating, never end it early.  That also
   bounds the recursion through [send]: an unwind sends only answers. *)
and give_up_message t ~dst message =
  t.metrics.give_ups <- t.metrics.give_ups + 1;
  Log.warn (fun m ->
      m "site %d: giving up on %a to unreachable peer %d" t.id Message.pp message dst);
  let with_context query f = Option.iter f (Hashtbl.find_opt t.contexts query) in
  let unwind ctx credit = post t ctx (C.unwind t.proto ctx.core ctx.detector ~dst credit) in
  match (message : Message.t) with
  | Message.Deref_request { query; credit; _ } -> with_context query (fun ctx -> unwind ctx credit)
  | Message.Work_batch groups ->
    List.iter
      (fun { Message.query; credit; _ } -> with_context query (fun ctx -> unwind ctx credit))
      groups
  | Message.Cache_validate { query; _ } ->
    (* The validation round trip died: un-park the waiting items and
       ship them the plain way — those sends fail fast against the
       dead link and their credit is unwound by the work arms above. *)
    with_context query (fun ctx -> release_parked t ctx ~dst None)
  | Message.Scatter { query; credit; _ } ->
    (* Its slot in the stitch closes too — the chains parked for it are
       lost as a classic loss at that site loses them — and the drain,
       no longer held open, is re-checked. *)
    with_context query (fun ctx ->
        unwind ctx credit;
        Site.gather_lost ctx.core ~site:dst;
        finish_drain t ctx)
  | Message.Result _ | Message.Credit_return _ | Message.Gather_result _
  | Message.Site_unreachable _ | Message.Link_ack | Message.Cache_version _
  | Message.Cache_answers _ | Message.Query_done _ | Message.Stats_pull _
  | Message.Stats_report _ -> ()
  (* Query_done carries no credit: an unreachable peer just keeps its
     tombstone-less context until its own give-ups unwind it.  Stats
     messages are credit-free by design — losing one costs a stale
     scrape, nothing more. *)

(* --- the work path ([Site.step], [Site.dispatch]) --- *)

(* Route every item parked behind [dst]'s validation, then the drain
   tail, which waits for a drain those items started. *)
and release_parked t ctx ~dst version =
  ignore (Site.unpark t.proto ctx.core ctx.sink ~dst ~version);
  finish_drain t ctx

(* Ship items a batcher flushed for [dst] under one credit share.  A
   single item goes as a plain [Deref_request] — byte-identical to the
   unbatched protocol — so a [Flush_at 1] site is indistinguishable on
   the wire. *)
and send_work t ctx ~dst items =
  let group = C.group ctx.core ctx.detector ~dst items in
  let span = counted_span t ctx Hf_obs.Span.Ship "work" dst items "item(s)" in
  send t ~span ~dst
    (match group with
     | { items = [ wi ]; query; body; credit } ->
       Message.Deref_request
         {
           query;
           body;
           oid = Hf_engine.Work_item.oid wi;
           start = Hf_engine.Work_item.start wi;
           iters = Hf_engine.Work_item.iters wi;
           credit;
         }
     | group -> Message.Work_batch [ group ])

(* The credit-return tail ([C.drain]).  Gated on [Site.ready] — it must
   not run while a drain is still under way, while items sit in a
   batcher or wait on a validation round trip: credit would go home
   before those items' share was split off, and the originator would
   see termination with work outstanding. *)
and finish_drain t ctx =
  if Site.ready ctx.core then post t ctx (C.drain t.proto ctx.core ctx.detector)

(* Send what the credit paths returned, each result, gather or credit
   return under its span, then act on termination (at the origin).  In
   the chain because termination broadcasts [Query_done] through
   [send], and a give-up may in turn recover credit. *)
and post t ctx ((sends, terminated) : C.out) =
  (* most deposits send nothing; skip the closure then *)
  if sends <> [] then
    List.iter
      (fun (dst, (m : Message.t)) ->
        let span =
          match m with
          | Message.Result { payload = Message.Items items; _ } ->
            counted_span t ctx Hf_obs.Span.Ship "result" dst items "item(s)"
          | Message.Gather_result { nodes; _ } ->
            counted_span t ctx Hf_obs.Span.Scatter "gather" dst nodes "node(s)"
          | Message.Credit_return _ -> ctx_span t ctx Hf_obs.Span.Credit "credit" dst
          | _ -> 0
        in
        send t ~span ~dst m)
      sends;
  if terminated && not ctx.terminated then begin
    let query = ctx.core.query in
    ctx.terminated <- true;
    Log.debug (fun m -> m "site %d: query %a terminated" t.id Message.pp_query_id query);
    (* Termination is the eviction point: drop our own
       context first — so the broadcast frames are not charged to the
       query's outcome — then tell every peer to drop theirs and free
       the admission slot.  The handle still references the context
       record, so [await] reads the final results unharmed. *)
    evict_context t query ctx;
    broadcast_query_done t query;
    release_slot t ctx;
    settle t ctx;
    Hf_obs.Histogram.observe t.query_rtt (ctx.finished_at -. ctx.started)
  end

(* [Query_done] goes to every peer, not just the ones this site talked
   to: third-party shipping (B spawns work for C) opens contexts at
   sites the originator never contacted directly. *)
and broadcast_query_done t query =
  Array.iteri
    (fun peer _ ->
      if peer <> t.id then send t ~dst:peer (Message.Query_done { query; src = t.id }))
    t.peers

(* A context for [query] at this site.  [cause] parents its evaluation
   span on the span of the work message that introduced the query here
   (0: no known cause).  Its sink banks the work path's items for this
   store and pushes the rest into the drain's batcher, starting a drain
   if none is under way: the drain flushes them before its credit-return
   tail. *)
let new_context t ~cause ~name ~query program =
  let span =
    Hf_obs.Tracer.start t.tracer ~parent:cause ~query:name ~site:t.id ~phase:Hf_obs.Span.Eval
      "site-eval"
  in
  let rec ctx =
    {
      core = Site.context ~metrics:t.metrics ~n_sites:(Array.length t.peers) ~query ~span program;
      name;
      detector =
        Weighted.create ~n_sites:(Array.length t.peers) ~origin:query.originator ~self:t.id;
      sink =
        {
          Site.local =
            (fun wi ->
              Hf_util.Deque.push_back ctx.core.work wi;
              ignore (schedule t ctx));
          ship =
            (fun dst wi ->
              match Hf_proto.Batch.push (schedule t ctx) ~dst wi with
              | None -> ()
              | Some items -> send_work t ctx ~dst items);
          verdict =
            (fun dst -> function
              | Site.Validate -> send t ~dst (Message.Cache_validate { query; src = t.id })
              | Site.Ship | Site.Pruned | Site.Hit _ | Site.Miss _ | Site.Parked | Site.Dangling
                -> ());
        };
      draining = None;
      terminated = false;
      ran_mode = Hf_query.Plan.Ship;
      decision = None;
      msgs_sent = 0;
      bytes_out = 0;
      queue_wait_s = 0.0;
      admitted = false;
      slot_released = false;
      cancelled = false;
      started = 0.0;
      finished_at = 0.0;
      settled = false;
    }
  in
  Hashtbl.replace t.contexts query ctx;
  ctx

(* --- draining --- *)

(* Backpressure (DESIGN.md §4h): stop evaluating while any reliable
   link holds at least [link_window] unacked frames — the sender is
   outrunning what the loss-recovery window can protect.  An ack or a
   link poll frees it. *)
let link_congested t =
  match (t.admission.Sched.link_window, t.reliability) with
  | Some window, Some _ ->
    Hashtbl.fold
      (fun _ link acc -> acc || Hf_proto.Reliable.in_flight link >= window)
      t.links false
  | None, _ | _, None -> false

let drain_slice_budget = 64

(* One turn of [ctx] in the run queue: a bounded slice of its working
   set, skipped while [congested], and once that is empty, the flush of
   its batcher and the credit-return tail.  [true] iff the context stays
   runnable.  An evicted context has no batcher left and leaves the
   queue. *)
let rec drain_step t ~congested ctx =
  match ctx.draining with
  | None -> false
  | Some out ->
    (congested && not (Hf_util.Deque.is_empty ctx.core.work))
    || drain_slice t ctx ~budget:drain_slice_budget
    || begin
      ctx.draining <- None;
      (* drained: flush buffered work before any credit goes back *)
      List.iter (fun (dst, items) -> send_work t ctx ~dst items) (Hf_proto.Batch.flush_all out);
      ctx.core.active <- ctx.core.active - 1;
      finish_drain t ctx;
      false
    end

(* Process at most [budget] items of the working set; [true] iff work
   remains.  One bounded slice per context per round is what lets N
   queries share a site: a drain from first item to credit return
   would hold back every other query, and every incoming message,
   behind it.  Every item that ran here is offered to the originator's
   cache, spawned locally or not. *)
and drain_slice t ctx ~budget =
  if budget = 0 then not (Hf_util.Deque.is_empty ctx.core.work)
  else
    match Hf_util.Deque.pop_front ctx.core.work with
    | None -> false
    | Some item ->
      ignore (Site.step t.proto ctx.core ctx.sink ~record:true item);
      drain_slice t ctx ~budget:(budget - 1)

(* Start a drain of [ctx] over the query's initial oids (origin side):
   they ride the same cache layer and batcher as spawned work. *)
let seed_drain t ctx seeds =
  ignore (schedule t ctx);
  Site.dispatch t.proto ctx.core ctx.sink (List.map (Hf_engine.Work_item.initial ctx.core.plan) seeds)

(* --- the execution-mode planner (doc/execution_modes.md) --- *)

(* Price both modes from what this site can see without going to the
   wire: learned Bloom summaries only (the Swamidass–Baldi entry
   estimate standing in for remote store stats), and nominal loopback
   unit costs.  The planner only needs ratios — a network round costs
   orders of magnitude more than evaluating one node — so the crossover
   lands where rounds, not bytes, dominate, matching the simulator's
   calibrated model. *)
let plan_decision t program initial =
  Site.decide t.proto ~n_sites:(Array.length t.peers)
    ~summary:(fun peer -> Option.map snd (Site.learned t.proto ~peer))
    ~objects:(fun _ summary -> Option.map Hf_index.Bloom.estimate_entries summary)
    ~costs:(fun ~item_bytes ~p_local ->
      {
        Hf_query.Plan.transit = 5e-4;
        header_bytes = 32;
        item_bytes;
        node_bytes = 32;
        eval_s = 2e-6;
        byte_s = 1e-8;
        p_local;
      })
    program initial

(* Origin half of a scatter round: split one credit share per scattered
   site, broadcast the program, then evaluate the origin's own domain
   and stitch it in as this site's gather.  The stitch keeps
   [finish_drain] gated until every remote gather (or a give-up
   verdict for its site) lands. *)
let scatter_seed t ctx ~sites initial =
  let roots_of, stray = Site.scatter_seed t.proto ctx.core ~sites initial in
  let query = ctx.core.query and body = Hf_engine.Plan.program ctx.core.plan in
  List.iter
    (fun dst ->
      let credit = C.split ctx.detector ~dst in
      t.metrics.scatter_messages <- t.metrics.scatter_messages + 1;
      let roots = roots_of dst in
      let span = counted_span t ctx Hf_obs.Span.Scatter "scatter" dst roots "root(s)" in
      send t ~span ~dst (Message.Scatter { query; body; roots; credit }))
    sites;
  let nodes = Site.eval_domain t.proto ctx.core ~roots:(roots_of t.id) in
  ignore (Site.stitch t.proto ctx.core ctx.sink ~site:t.id nodes);
  (* Stray seeds — oids born outside origin ∪ predicted, left out by a
     partial scatter — ship classically, same contract as an escaped
     chain. *)
  Site.dispatch t.proto ctx.core ctx.sink (List.map (Hf_engine.Work_item.initial ctx.core.plan) stray);
  finish_drain t ctx

(* --- incoming messages --- *)

(* The context that takes a work message's items, unless the query is
   already closed here. *)
let work_context t ~span query body =
  if Hashtbl.mem t.closed query then None
  else
    match Hashtbl.find_opt t.contexts query with
    | Some _ as found -> found
    | None -> Some (new_context t ~cause:span ~name:(trace_name t query) ~query body)

(* Bank an arriving item if it fits the plan of the context it joins:
   one counter per iterator slot, a start inside the program.  A misfit
   is dropped before [Eval] sees it, and its frame's credit is still
   deposited.  Not checked at decode: a later frame for a query may
   carry another body than the one its context was built from. *)
let bank t ctx wi =
  let plan = ctx.core.plan in
  let start = Hf_engine.Work_item.start wi and iters = Hf_engine.Work_item.iters wi in
  if Array.length iters = Hf_engine.Plan.iter_count plan && start <= Hf_engine.Plan.length plan
  then Hf_util.Deque.push_back ctx.core.work wi
  else
    Log.warn (fun m ->
        m "site %d: work item for %a (start %d, %d counter(s)) does not fit its query; dropped"
          t.id Hf_data.Oid.pp (Hf_engine.Work_item.oid wi) start (Array.length iters))

(* Credit arriving with work from [src]: deposit it, bank the items and
   put the context in the run queue. *)
let take_work t ~span ~src query body credit items =
  match work_context t ~span query body with
  | None -> ()
  | Some ctx ->
    post t ctx (C.deposit ctx.core ctx.detector ~src credit);
    List.iter (bank t ctx) items;
    ignore (schedule t ctx)

(* Once every peer has answered the newest pull, wake [pull_stats]. *)
let note_pulled t =
  let answered peer =
    peer = t.id
    || Option.value ~default:0 (Hashtbl.find_opt t.peer_stats_token peer) >= t.stats_token
  in
  if List.for_all answered (List.init (Array.length t.peers) Fun.id) then
    handoff t (fun () ->
        t.pulled <- t.stats_token;
        Condition.broadcast t.done_cond)

let file_report t ~peer ~token stats =
  Hashtbl.replace t.peer_stats peer (snapshot_of_stats stats);
  (* tokens only ratchet up: a late report to an older pull must not
     make the current one look unanswered again *)
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.peer_stats_token peer) in
  if token > prev then Hashtbl.replace t.peer_stats_token peer token;
  note_pulled t

(* [span] is the sender's shipping span carried on the wire (0 when the
   sender traced nothing): it is closed here — arrival time — and new
   contexts parent their evaluation spans on it.

   [rel] is the reliability envelope, when present: its piggybacked ack
   releases our retained sends to [rel.src], and its sequence number is
   checked against the receive window BEFORE the message reaches any
   handler — a retransmitted duplicate dies here, never re-evaluating
   work or re-depositing credit.

   Work arms do not drain here: they bank the items and put the context
   in the run queue, which drains it once every frame the loop read in
   this round is handled, in bounded slices interleaved with every
   other runnable context — this is what lets queries from several
   origins make progress on one site concurrently.  Work for a
   tombstoned (already closed) query dies here: its credit is dead by
   construction — the originator only closes after the detector
   converged. *)
let handle_message t ~span ?rel message =
  t.messages_received <- t.messages_received + 1;
  Hf_obs.Tracer.finish t.tracer span;
  let fresh =
    match ((rel : Hf_proto.Codec.rel option), t.reliability) with
    | None, _ | _, None -> true
    | Some { src = peer; seq; ack }, Some _ -> (
      let link = link_for t peer in
      let now = Unix.gettimeofday () in
      List.iter
        (fun latency -> Hf_obs.Histogram.observe t.ack_latency latency)
        (Hf_proto.Reliable.on_ack link ~now ack);
      seq = 0
      ||
      match Hf_proto.Reliable.receive link ~now ~seq with
      | `Fresh -> true
      | `Duplicate ->
        t.metrics.dup_drops <- t.metrics.dup_drops + 1;
        Log.debug (fun m -> m "site %d: duplicate seq %d from %d dropped" t.id seq peer);
        false)
  in
  (* The sender, for the detector: only the reliability envelope names
     it, and [Weighted] never asks. *)
  let src = match rel with Some { src; _ } -> src | None -> -1 in
  if fresh then
  match (message : Message.t) with
  | Message.Deref_request { query; body; oid; start; iters; credit } ->
    take_work t ~span ~src query body credit [ Hf_engine.Work_item.make ~oid ~start ~iters ]
  | Message.Work_batch groups ->
    List.iter
      (fun { Message.query; body; items; credit } -> take_work t ~span ~src query body credit items)
      groups
  | Message.Result { query; _ } | Message.Credit_return { query; _ }
  | Message.Site_unreachable { query; _ } | Message.Gather_result { query; _ } -> (
    (* The door let through only answers for this site's own queries;
       one for a query already closed here carries dead credit. *)
    match Hashtbl.find_opt t.contexts query with
    | None -> ()
    | Some ctx -> (
      Site.join ctx.core.final message;
      let stitch ~src nodes = ignore (Site.stitch t.proto ctx.core ctx.sink ~site:src nodes) in
      post t ctx (C.answer ctx.core ctx.detector ~src ~stitch message);
      match message with
      | Message.Gather_result { nodes; _ } ->
        t.metrics.gather_messages <- t.metrics.gather_messages + 1;
        t.metrics.gather_nodes <- t.metrics.gather_nodes + List.length nodes;
        finish_drain t ctx
      | _ -> ()))
  | Message.Link_ack -> () (* transport-level: the ack value rode in the envelope *)
  | Message.Cache_validate { query; src = peer } ->
    (* Report our store version; piggyback the Bloom summary unless
       this peer was already told this version's. *)
    let version, summary = Site.validate_reply t.proto ~peer in
    send t ~dst:peer
      (Message.Cache_version { query; site = t.id; version; epoch = Site.epoch t.proto; summary })
  | Message.Cache_version { query; site = peer; version; epoch; summary } -> (
    Site.learn t.proto ~peer ~version ~epoch summary;
    match Hashtbl.find_opt t.contexts query with
    | None -> ()
    | Some ctx -> release_parked t ctx ~dst:peer (Some version))
  | Message.Cache_answers { query; src = peer; version; answers } -> (
    (* Opportunistic fill at the originator: install the remote's
       verdicts, keyed by the answering site. *)
    match Hashtbl.find_opt t.contexts query with
    | Some ctx -> Site.fill t.proto ctx.core ~src:peer ~version answers
    | None -> ())
  | Message.Query_done { query; _ } -> (
    (* The originator closed the query (terminated or cancelled):
       drop our share of its state.  The door let only another
       origin's query through. *)
    match Hashtbl.find_opt t.contexts query with
    | Some ctx -> evict_context t query ctx
    | None -> mark_closed t query)
  | Message.Stats_pull { src = peer; token } ->
    (* the registry's views run inline on the loop *)
    let stats = stats_of_snapshot (Hf_obs.Registry.snapshot t.registry) in
    send t ~dst:peer (Message.Stats_report { src = t.id; token; stats })
  | Message.Stats_report { src = peer; token; stats } -> file_report t ~peer ~token stats
  | Message.Scatter { query; body; roots; credit } ->
    (* Evaluate the whole speculation domain here and now — pure CPU,
       like a drain slice's evaluation — and answer with one gather
       ([C.scatter_reply]). *)
    Option.iter
      (fun ctx -> post t ctx (C.scatter_reply t.proto ctx.core ctx.detector ~src ~roots credit))
      (work_context t ~span query body)

(* Fire every due link deadline: standalone acks whose piggyback window
   expired, retransmissions, and retry-cap give-ups — the wall-clock
   twin of the simulator's timer events.  The link table is
   snapshotted first because a give-up may open a new link (to the
   originator) mid-walk. *)
let poke_links t =
  let now = Unix.gettimeofday () in
  let links = Hashtbl.fold (fun peer link acc -> (peer, link) :: acc) t.links [] in
  List.iter
    (fun (peer, link) ->
      List.iter
        (function
          | Hf_proto.Reliable.Send_ack ->
            t.acks_sent <- t.acks_sent + 1;
            transmit_raw t ~seq:0 ~dst:peer Message.Link_ack
          | Hf_proto.Reliable.Retransmit entries ->
            List.iter
              (fun (seq, message) ->
                t.metrics.retransmits <- t.metrics.retransmits + 1;
                if Hf_obs.Tracer.enabled t.tracer then
                  ignore
                    (Hf_obs.Tracer.instant t.tracer
                       ~detail:("seq=" ^ string_of_int seq)
                       ~query:"-" ~site:t.id ~phase:Hf_obs.Span.Retransmit
                       ("retransmit->" ^ string_of_int peer));
                transmit_raw t ~seq ~dst:peer message)
              entries
          | Hf_proto.Reliable.Give_up entries ->
            Log.warn (fun m ->
                m "site %d: peer %d declared unreachable after retries" t.id peer);
            List.iter (fun (_, message) -> give_up_message t ~dst:peer message) entries)
        (Hf_proto.Reliable.poll link ~now))
    links

(* --- site ids from the wire --- *)

(* Every site id a peer supplies — the envelope's sender, each query's
   originator, and the [src]/[site]/[dead] fields — indexes [t.peers]
   somewhere downstream (a reply, a credit return, an ack).  A frame
   naming a site outside the cluster is garbage. *)
let known t site = site >= 0 && site < Array.length t.peers

let rec groups_known t = function
  | [] -> true
  | (g : _ Message.batch_group) :: rest -> known t g.query.originator && groups_known t rest

let names_known_sites t (message : Message.t) (rel : Hf_proto.Codec.rel option) =
  (match rel with Some { src; _ } -> known t src | None -> true)
  &&
  match message with
  | Message.Deref_request { query; _ }
  | Message.Result { query; _ }
  | Message.Credit_return { query; _ }
  | Message.Scatter { query; _ } ->
    known t query.originator
  | Message.Work_batch groups -> groups_known t groups
  | Message.Site_unreachable { query; dead } -> known t query.originator && known t dead
  | Message.Cache_validate { query; src }
  | Message.Cache_answers { query; src; _ }
  | Message.Query_done { query; src }
  | Message.Gather_result { query; src; _ } ->
    known t query.originator && known t src
  | Message.Cache_version { query; site; _ } -> known t query.originator && known t site
  | Message.Stats_pull { src; _ } | Message.Stats_report { src; _ } -> known t src
  | Message.Link_ack -> true

(* --- roles from the wire --- *)

(* A frame must cast this site in a role its query gives it.  Answers —
   results, credit, gathers, cache fills, unreachable notices — go only
   to a query's originator, and a [Scatter] or [Query_done] comes only
   from it: one that casts this site otherwise would terminate a query
   that is not ours, or close one that is.  Work for a query this site
   originated joins the context it holds from submit to close (or dies
   on the tombstone after), and never opens a second origin. *)
let ours t (query : Message.query_id) = query.originator = t.id

let joins t query =
  (not (ours t query)) || Hashtbl.mem t.contexts query || Hashtbl.mem t.closed query

let rec groups_join t = function
  | [] -> true
  | (g : _ Message.batch_group) :: rest -> joins t g.query && groups_join t rest

let in_role t (message : Message.t) =
  match message with
  | Message.Result { query; _ }
  | Message.Credit_return { query; _ }
  | Message.Gather_result { query; _ }
  | Message.Site_unreachable { query; _ }
  | Message.Cache_answers { query; _ } ->
    ours t query
  | Message.Scatter { query; _ } | Message.Query_done { query; _ } -> not (ours t query)
  | Message.Deref_request { query; _ } -> joins t query
  | Message.Work_batch groups -> groups_join t groups
  | Message.Cache_validate _ | Message.Cache_version _ | Message.Stats_pull _
  | Message.Stats_report _ | Message.Link_ack ->
    true

let dropped_for_role t message =
  Log.warn (fun m ->
      m "site %d: message casting this site in the wrong role dropped: %a" t.id Message.pp message)

(* --- the event loop --- *)

(* A frame that does not decode, that names a site outside the cluster
   or that casts this site in the wrong role is dropped at the door; of
   a [Work_batch], only the groups out of role are. *)
let decode t payload =
  match Hf_proto.Codec.decode_enveloped payload with
  | Ok ((message, span, rel) as decoded) ->
    if not (names_known_sites t message rel) then begin
      Log.warn (fun m ->
          m "site %d: message naming an unknown site dropped: %a" t.id Message.pp message);
      None
    end
    else if in_role t message then Some decoded
    else begin
      match message with
      | Message.Work_batch groups ->
        let kept, dropped =
          List.partition (fun (g : _ Message.batch_group) -> joins t g.query) groups
        in
        dropped_for_role t (Message.Work_batch dropped);
        if kept = [] then None else Some (Message.Work_batch kept, span, rel)
      | _ ->
        dropped_for_role t message;
        None
    end
  | Error err ->
    Log.warn (fun m -> m "site %d: undecodable message dropped: %s" t.id err);
    None

(* Read what [conn] holds, cut its frames and handle each message;
   [false] once the connection is over: EOF, a failed read, or a bad
   length header, past which the stream cannot resynchronise (the
   frames cut before it are still handled). *)
let read_frames t conn =
  match Unix.read conn.in_fd t.chunk 0 (Bytes.length t.chunk) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false
  | 0 -> false
  | n ->
    Hf_proto.Frame.Decoder.feed_bytes conn.decoder t.chunk 0 n;
    let rec frames () =
      match Hf_proto.Frame.Decoder.next conn.decoder with
      | None -> true
      | Some payload ->
        Option.iter (fun (message, span, rel) -> handle_message t ~span ?rel message) (decode t payload);
        frames ()
      | exception Hf_proto.Frame.Frame_error err ->
        Log.warn (fun m -> m "site %d: %s; closing the connection" t.id err);
        false
    in
    frames ()

(* A handler that raises costs its connection, as a failed read does,
   not the site. *)
let read_conn t conn =
  (match read_frames t conn with
   | open_ -> open_
   | exception e ->
     Log.err (fun m -> m "site %d: handler failed: %s" t.id (Printexc.to_string e));
     false)
  || (close_fd conn.in_fd;
      false)

let rec accept t =
  match Unix.accept t.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.inbound <- { in_fd = fd; decoder = Hf_proto.Frame.Decoder.create () } :: t.inbound;
    accept t
  | exception Unix.Unix_error _ -> ()

(* Answer a monitor connection with a Prometheus text dump of the
   registry.  A dump of a few KiB fits the socket's send buffer, so one
   non-blocking write sends it whole without the client reading. *)
let serve_monitor t mon =
  match Unix.accept mon with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    Unix.set_nonblock fd;
    let dump = Hf_obs.Prometheus.render ~labels:[ ("site", string_of_int t.id) ] t.registry in
    (try ignore (write_some fd (Bytes.of_string dump) 0 (String.length dump))
     with Unix.Unix_error _ -> ());
    close_fd fd

let run_commands t =
  handoff t (fun () -> Queue.transfer t.commands t.todo);
  while not (Queue.is_empty t.todo) do
    (Queue.pop t.todo) ()
  done

(* One turn per runnable context, round-robin.  A context whose drain
   raises costs its query at this site, not the site: the slice lost
   work, so the query is dropped here as a [Query_done] would drop it,
   and sends no credit home (returning it could let the origin report
   a complete answer that misses results; the origin times out).  The
   site goes on. *)
let drain_round t =
  let congested = link_congested t in
  for _ = 1 to Queue.length t.runnable do
    let ctx = Queue.pop t.runnable in
    match drain_step t ~congested ctx with
    | true -> Queue.push ctx t.runnable
    | false -> ()
    | exception e ->
      Log.err (fun m ->
          m "site %d: drain of %a failed, query dropped here: %s" t.id Message.pp_query_id
            ctx.core.query (Printexc.to_string e));
      evict_context t ctx.core.query ctx
  done

let give_up_s = 0.05

(* Write every outbound buffer as far as its socket takes it.  A live
   connection whose write failed is closed and forgotten, so the next
   frame for that peer opens a fresh one.  A retired connection closes
   once it is empty, or once its socket has taken nothing for
   [give_up_s]: its peer stopped reading, and the rest is lost. *)
let write_round t =
  let now = Unix.gettimeofday () in
  Hashtbl.filter_map_inplace
    (fun _ conn ->
      if flush ~now conn then Some conn
      else begin
        close_fd conn.fd;
        None
      end)
    t.conns;
  if t.retired <> [] then
    t.retired <-
      List.filter
        (fun conn ->
          let keep = flush ~now conn && queued conn > 0 && now -. conn.progress_at < give_up_s in
          if not keep then close_fd conn.fd;
          keep)
        t.retired

let retire t conn =
  conn.progress_at <- Unix.gettimeofday ();
  t.retired <- conn :: t.retired

(* Stop serving: close the listeners and the inbound sockets, stop
   draining, and retire every outbound connection.  The loop exits once
   those have written what they hold, or given up. *)
let stop t =
  if t.running then begin
    t.running <- false;
    List.iter close_fd (t.listener :: Option.to_list t.monitor);
    List.iter (fun conn -> close_fd conn.in_fd) t.inbound;
    t.inbound <- [];
    Queue.clear t.runnable;
    Hashtbl.iter (fun _ conn -> retire t conn) t.conns;
    Hashtbl.reset t.conns
  end

(* The loop.  [poll] is the reliable links' poll period, infinite with
   reliability off; [next_poll] is when they are next due. *)
let rec serve t ~poll next_poll =
  if t.running || t.retired <> [] then begin
    let wake_r = fst t.wake in
    let reads =
      if not t.running then [ wake_r ]
      else
        wake_r :: t.listener
        :: List.fold_left (fun fds conn -> conn.in_fd :: fds) (Option.to_list t.monitor) t.inbound
    in
    let writes =
      Hashtbl.fold
        (fun _ conn fds -> if queued conn > 0 then conn.fd :: fds else fds)
        t.conns
        (List.map (fun conn -> conn.fd) t.retired)
    in
    let timeout =
      if t.running && (not (Queue.is_empty t.runnable)) && not (link_congested t) then 0.0
      else
        let deadline =
          List.fold_left (fun due conn -> Float.min due (conn.progress_at +. give_up_s)) next_poll
            t.retired
        in
        if deadline = infinity then -1.0 else Float.max 0.0 (deadline -. Unix.gettimeofday ())
    in
    (* Client threads share the runtime lock with the loop, which
       would take it straight back after a [select] that does not
       sleep: hand it over first to any that wait. *)
    Thread.yield ();
    let readable, _, _ =
      try Unix.select reads writes [] timeout with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if List.mem wake_r readable then
      (try ignore (Unix.read wake_r t.chunk 0 4096) with Unix.Unix_error _ -> ());
    if t.running && readable <> [] then begin
      if List.mem t.listener readable then accept t;
      Option.iter (fun mon -> if List.mem mon readable then serve_monitor t mon) t.monitor;
      t.inbound <-
        List.filter
          (fun conn -> (not (List.mem conn.in_fd readable)) || read_conn t conn)
          t.inbound
    end;
    run_commands t;
    if t.running then drain_round t;
    write_round t;
    let now = Unix.gettimeofday () in
    if now < next_poll then serve t ~poll next_poll
    else begin
      if t.running then poke_links t;
      serve t ~poll (now +. poll)
    end
  end

(* The loop's last act, however it ends: nothing is left open, and no
   client waits on it any more. *)
let exit_loop t =
  stop t;
  List.iter (fun conn -> close_fd conn.fd) t.retired;
  t.retired <- [];
  handoff t (fun () ->
      t.exited <- true;
      Condition.broadcast t.replied;
      Condition.broadcast t.done_cond);
  (* no poke writes the pipe once [wakers] is negative and the pokes
     under way are done *)
  ignore (Atomic.fetch_and_add t.wakers min_int);
  while Atomic.get t.wakers <> min_int do
    Thread.yield ()
  done;
  close_fd (fst t.wake);
  close_fd (snd t.wake)

let run t ~poll () =
  t.loop_id <- Thread.id (Thread.self ());
  Fun.protect ~finally:(fun () -> exit_loop t) (fun () -> serve t ~poll (Unix.gettimeofday () +. poll))

(* --- lifecycle --- *)

let create ~site ?(batch = Hf_proto.Batch.unbatched) ?reliability ?cache
    ?(admission = Sched.unlimited) ?(exec = Exec_ship) ?(tracer = Hf_obs.Tracer.noop)
    ?monitor_port () =
  Hf_proto.Batch.validate_policy batch;
  Option.iter Hf_proto.Reliable.validate reliability;
  Option.iter Hf_index.Remote_cache.validate cache;
  Sched.validate admission;
  (* A write to a peer that closed its end fails with EPIPE, which drops
     that connection, instead of killing the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen port backlog =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd backlog;
    Unix.set_nonblock fd;
    fd
  in
  let listener = listen 0 16 in
  let monitor = Option.map (fun port -> listen port 4) monitor_port in
  let wake = Unix.pipe () in
  Unix.set_nonblock (snd wake);
  let registry = Hf_obs.Registry.create () in
  let bloofi_depth = Hf_obs.Registry.histogram registry "hf.index.bloofi_descent_depth" in
  let store = Hf_data.Store.create ~site in
  let t =
    {
      id = site;
      store;
      batch_policy = batch;
      reliability;
      links = Hashtbl.create 8;
      listener;
      monitor;
      address = Unix.getsockname listener;
      monitor_address = Option.map Unix.getsockname monitor;
      peers = [||];
      conns = Hashtbl.create 8;
      retired = [];
      inbound = [];
      chunk = Bytes.create 65536;
      scratch = Buffer.create buffer_size;
      contexts = Hashtbl.create 8;
      runnable = Queue.create ();
      next_serial = 0;
      admission;
      gate = Sched.create admission;
      closed = Hashtbl.create 32;
      closed_order = Queue.create ();
      running = true;
      mutex = Mutex.create ();
      commands = Queue.create ();
      todo = Queue.create ();
      exited = false;
      pulled = 0;
      replied = Condition.create ();
      done_cond = Condition.create ();
      loop = None;
      loop_id = -1;
      wake;
      wakers = Atomic.make 0;
      join_errors = Atomic.make 0;
      tracer;
      registry;
      sent_frame_bytes = Hf_obs.Registry.histogram registry "hf.net.sent_frame_bytes";
      query_rtt = Hf_obs.Registry.histogram registry "hf.net.query_rtt_s";
      ack_latency = Hf_obs.Registry.histogram registry "hf.net.ack_latency_s";
      messages_sent = 0;
      bytes_sent = 0;
      messages_received = 0;
      acks_sent = 0;
      (* one record for the site, so no per-site busy time *)
      metrics = Hf_server.Metrics.create ~n_sites:0;
      proto =
        Site.create ~id:site ~store ~clock:Unix.gettimeofday ~cache ~serve_hits:true
          ~bloofi:true ~bloofi_depth;
      exec;
      stats_token = 0;
      peer_stats = Hashtbl.create 8;
      peer_stats_token = Hashtbl.create 8;
      admission_wait = Hf_obs.Registry.histogram registry "hf.net.admission_wait_s";
    }
  in
  (* Every view reads the loop's state on the loop. *)
  let counter name read = Hf_obs.Registry.register_counter registry name (fun () -> call t read) in
  let gauge name read =
    Hf_obs.Registry.register_gauge registry name (fun () -> float_of_int (call t read))
  in
  counter "hf.net.messages_sent" (fun () -> t.messages_sent);
  counter "hf.net.bytes_sent" (fun () -> t.bytes_sent);
  counter "hf.net.messages_received" (fun () -> t.messages_received);
  Hf_obs.Registry.register_counter registry "hf.net.join_errors" (fun () ->
      Atomic.get t.join_errors);
  counter "hf.net.retransmits" (fun () -> t.metrics.retransmits);
  counter "hf.net.dup_drops" (fun () -> t.metrics.dup_drops);
  counter "hf.net.acks_sent" (fun () -> t.acks_sent);
  counter "hf.net.give_ups" (fun () -> t.metrics.give_ups);
  counter "hf.net.cache_hits" (fun () -> t.metrics.cache_hits);
  counter "hf.net.cache_misses" (fun () -> t.metrics.cache_misses);
  counter "hf.net.cache_prunes" (fun () -> t.metrics.cache_prunes);
  counter "hf.net.cache_validations" (fun () -> t.metrics.cache_validations);
  counter "hf.net.cache_fills" (fun () -> t.metrics.cache_fills);
  counter "hf.net.cache_invalidations" (fun () -> t.metrics.cache_invalidations);
  counter "hf.net.scatter_messages" (fun () -> t.metrics.scatter_messages);
  counter "hf.net.gather_messages" (fun () -> t.metrics.gather_messages);
  counter "hf.net.gather_nodes" (fun () -> t.metrics.gather_nodes);
  counter "hf.net.scatter_fallbacks" (fun () -> t.metrics.scatter_fallbacks);
  counter "hf.net.planner_scatter" (fun () -> t.metrics.planner_scatter);
  counter "hf.net.planner_ship" (fun () -> t.metrics.planner_ship);
  let bloofi_count f () = match Site.bloofi t.proto with None -> 0 | Some tree -> f tree in
  counter "hf.index.bloofi_probes" (bloofi_count Hf_index.Bloofi.probes_run);
  counter "hf.index.bloofi_pruned_sites" (bloofi_count Hf_index.Bloofi.pruned_total);
  counter "hf.index.bloofi_rebuilds" (bloofi_count Hf_index.Bloofi.rebuilds);
  (* Live gauges over previously-dark state (DESIGN.md §4i): the
     admission gate's load and fairness picture, the live contexts, the
     reliable links' unacked window and owed acks, the bytes queued for
     peers whose sockets have not taken them yet, and the answer cache's
     occupancy. *)
  gauge "hf.net.queries_running" (fun () -> Sched.running t.gate);
  gauge "hf.net.queries_queued" (fun () -> Sched.queued t.gate);
  gauge "hf.net.contexts_live" (fun () -> Hashtbl.length t.contexts);
  gauge "hf.net.link_in_flight" (fun () ->
      Hashtbl.fold (fun _ link acc -> acc + Hf_proto.Reliable.in_flight link) t.links 0);
  gauge "hf.net.link_ack_backlog" (fun () ->
      Hashtbl.fold
        (fun _ link acc -> if Hf_proto.Reliable.ack_owed link then acc + 1 else acc)
        t.links 0);
  gauge "hf.net.out_queued_bytes" (fun () ->
      Hashtbl.fold (fun _ conn acc -> acc + queued conn) t.conns 0);
  gauge "hf.net.sched_tenants" (fun () -> Sched.waiting_tenants t.gate);
  gauge "hf.net.cache_entries" (fun () ->
      match Site.cache t.proto with
      | None -> 0
      | Some cache -> Hf_index.Remote_cache.length cache);
  Hf_obs.Tracer.register tracer registry ~prefix:"hf.net";
  let poll =
    match reliability with
    | None -> infinity
    | Some cfg -> Float.max 0.002 (Float.min 0.01 (cfg.ack_delay /. 2.0))
  in
  t.loop <- Some (Thread.create (run t ~poll) ());
  t

let address t = t.address

let store t = t.store

let id t = t.id

let registry t = t.registry

let monitor_address t = t.monitor_address

let set_peers t peers =
  call t (fun () ->
      if t.running then begin
        let old = t.peers in
        t.peers <- peers;
        (* A changed address is a new lineage at that site: the pooled
           connection still reaches the OLD process (its accepted
           sockets outlive its listener), and the reliability link's
           windows are meaningless to the replacement.  Retire the one
           and drop the other, so the next send reconnects fresh. *)
        Array.iteri
          (fun dst addr ->
            if dst < Array.length old && old.(dst) <> addr then begin
              Option.iter (retire t) (Hashtbl.find_opt t.conns dst);
              Hashtbl.remove t.conns dst;
              Hashtbl.remove t.links dst
            end)
          peers
      end)

(* Stop the loop and wait for it to exit. *)
let shutdown t =
  call t (fun () -> stop t);
  Option.iter (fun loop -> try Thread.join loop with _ -> Atomic.incr t.join_errors) t.loop

(* --- issuing queries from the embedding client --- *)

(* Distinguishes "the peer was slow" from "the peer is gone": a timeout
   says nothing about the missing sites, while [Partial] is a positive
   statement — retransmission gave up on exactly these peers and every
   other site's contribution is fully accounted for (credit converged
   to 1). *)
type status =
  | Complete
  | Partial of int list (* unreachable sites, ascending *)
  | Timed_out
  | Cancelled

type outcome = {
  results : Hf_data.Oid.t list;
  result_set : Hf_data.Oid.Set.t;
  bindings : (string * Hf_data.Value.t list) list;
  terminated : bool;
  status : status;
  response_time : float; (* wall-clock seconds *)
  queue_wait_s : float; (* time spent in the admission queue *)
  messages_sent : int;
  bytes_sent : int;
  mode : Hf_query.Plan.mode; (* which execution mode ran *)
  plan_decision : Hf_query.Plan.decision option; (* when a planner ran *)
}

type handle = {
  h_query : Message.query_id;
  h_ctx : context;
  h_root_span : int;
}

let shut_down t what = failwith (Fmt.str "Tcp_site.%s: site %d is shut down" what t.id)

(* The planner's verdict for a query, without running it — [hfql :plan]
   renders this. *)
let explain t program initial =
  call t (fun () ->
      if not t.running then shut_down t "explain";
      plan_decision t program initial)

(* Issue a query without waiting for it: the admission gate either
   starts it now or parks it (fairly) until a running one finishes.  An
   admitted query joins the loop's run queue, so any number of them
   interleave on the site. *)
let submit_query (t : t) program initial =
  let started = Unix.gettimeofday () in
  call t (fun () ->
      if not t.running then shut_down t "submit_query";
      let query = { Message.originator = t.id; serial = t.next_serial } in
      t.next_serial <- t.next_serial + 1;
      let name = trace_name t query in
      let root_span =
        Hf_obs.Tracer.start t.tracer ~query:name ~site:t.id ~phase:Hf_obs.Span.Query "query"
      in
      let ctx = new_context t ~cause:root_span ~name ~query program in
      ctx.started <- started;
      (* Mode selection (doc/execution_modes.md): [Exec_ship] is the
         byte-identical legacy path — no planner runs at all.  This
         engine is always per-site-marks, ship-items, so eligibility
         plus a non-empty predicted set is all scatter needs. *)
      let decision, scatter_sites =
        Site.select ctx.core t.exec ~scatter_ok:true (fun () -> plan_decision t program initial)
      in
      ctx.decision <- decision;
      let seed () =
        ctx.admitted <- true;
        Weighted.on_seed ctx.detector;
        (* Queue wait, measured at the moment the gate finally seeds us:
           zero when admission was immediate.  Recorded three ways — the
           site histogram (the monitoring surface), the context (the
           outcome's per-query figure), and a retroactive [Wait] span so
           the profile's phase breakdown shows queued time next to
           execution time. *)
        let wait = Float.max 0.0 (Unix.gettimeofday () -. started) in
        ctx.queue_wait_s <- wait;
        Hf_obs.Histogram.observe t.admission_wait wait;
        (* the span lives on the tracer's clock (which may not be wall
           time): end it "now" there and back-date the start by [wait] *)
        if Hf_obs.Tracer.enabled t.tracer then begin
          let trace_now = Hf_obs.Tracer.now t.tracer in
          ignore
            (Hf_obs.Tracer.complete t.tracer ~parent:root_span ~query:name ~site:t.id
               ~phase:Hf_obs.Span.Wait ~start:(trace_now -. wait) ~finish:trace_now
               "admission-wait")
        end;
        match scatter_sites with
        | Some sites ->
          ctx.ran_mode <- Hf_query.Plan.Scatter;
          scatter_seed t ctx ~sites initial
        | None -> seed_drain t ctx initial
      in
      (match Sched.admit t.gate ~tenant:t.id { p_query = query; p_seed = seed } with
       | Sched.Run -> seed ()
       | Sched.Queued -> ()
       | Sched.Rejected ->
         Hashtbl.remove t.contexts query;
         Hf_obs.Tracer.finish ~detail:"rejected" t.tracer ctx.core.span;
         Hf_obs.Tracer.finish ~detail:"rejected" t.tracer root_span;
         failwith
           (Fmt.str "Tcp_site.submit_query: admission queue full at site %d (%a)" t.id
              Sched.pp_config t.admission));
      { h_query = query; h_ctx = ctx; h_root_span = root_span })

(* The outcome as it stands: the answer of a settled query, or whatever
   has arrived. *)
let outcome t handle =
  let ctx = handle.h_ctx in
  let status =
    if ctx.cancelled then Cancelled
    else if not ctx.terminated then Timed_out
    else if ctx.core.final.unreachable = [] then Complete
    else Partial (List.sort_uniq compare ctx.core.final.unreachable)
  in
  let response_time =
    (if status = Timed_out then Unix.gettimeofday () else ctx.finished_at) -. ctx.started
  in
  let finish detail = Hf_obs.Tracer.finish t.tracer handle.h_root_span ~detail in
  (match status with
   | Timed_out -> () (* still live: spans close when it terminates *)
   | Complete -> finish "terminated"
   | Partial dead ->
     if Hf_obs.Tracer.enabled t.tracer then
       finish (Fmt.str "partial: unreachable %a" Fmt.(list ~sep:comma int) dead)
   | Cancelled -> finish "cancelled");
  {
    results = List.rev ctx.core.final.results;
    result_set = ctx.core.final.set;
    bindings =
      Hashtbl.fold (fun target values acc -> (target, values) :: acc) ctx.core.final.bindings []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    terminated = ctx.terminated;
    status;
    response_time;
    queue_wait_s = ctx.queue_wait_s;
    (* per-query attribution: concurrent neighbors' frames never land
       in this outcome *)
    messages_sent = ctx.msgs_sent;
    bytes_sent = ctx.bytes_out;
    mode = ctx.ran_mode;
    plan_decision = ctx.decision;
  }

(* Wait for termination, or time out (e.g. a crashed peer).  Timing out
   leaves the query running (and its admission slot held): a second
   [await] on the same handle picks it back up. *)
let await ?(timeout = 10.0) (t : t) (handle : handle) =
  let ctx = handle.h_ctx in
  let deadline = Unix.gettimeofday () +. timeout in
  with_ticker t 0.02 (fun () ->
      handoff t (fun () ->
          while (not (ctx.settled || t.exited)) && Unix.gettimeofday () < deadline do
            Condition.wait t.done_cond t.mutex
          done));
  call t (fun () -> outcome t handle)

(* Abort a local query.  Queued: it just leaves the admission queue.
   Admitted: this site's context is discarded wholesale and the peers
   are told to discard theirs — the outstanding credit is deliberately
   never recovered, which is sound because a cancelled query no longer
   needs the termination detector to converge; in-flight work for it
   dies against the tombstones.  Idempotent; a terminated query, or
   any query on a shut-down site, is left alone. *)
let cancel (t : t) (handle : handle) =
  call t (fun () ->
      let ctx = handle.h_ctx in
      if t.running && not (ctx.terminated || ctx.cancelled) then begin
        ctx.cancelled <- true;
        if ctx.admitted then begin
          evict_context t handle.h_query ctx;
          broadcast_query_done t handle.h_query;
          release_slot t ctx
        end
        else begin
          ignore
            (Sched.cancel_queued t.gate (fun job ->
                 Message.equal_query_id job.p_query handle.h_query));
          evict_context t handle.h_query ctx
        end;
        Hf_obs.Tracer.finish ~detail:"cancelled" t.tracer handle.h_root_span;
        settle t ctx
      end)

let run_query ?(timeout = 10.0) (t : t) program initial =
  await ~timeout t (submit_query t program initial)

(* --- introspection (tests, demo) --- *)

let context_count t = call t (fun () -> Hashtbl.length t.contexts)

let admission_running t = call t (fun () -> Sched.running t.gate)

let admission_queued t = call t (fun () -> Sched.queued t.gate)

(* --- cluster-wide stats (DESIGN.md §4i) --- *)

(* Last-known peer snapshots without going to the wire. *)
let known_peer_stats t =
  call t (fun () ->
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun peer snap acc -> (peer, snap) :: acc) t.peer_stats []))

(* Snapshot every site's registry: broadcast a [Stats_pull] under a
   fresh token and wait until each peer's report carrying (at least)
   that token lands, or the timeout passes — an unreachable peer then
   contributes its last-known snapshot, if any, rather than blocking
   the scrape forever.  Returns (site, snapshot) pairs, this site
   included, ascending by site id.  A shut-down site pulls nothing. *)
let pull_stats ?(timeout = 5.0) (t : t) =
  let deadline = Unix.gettimeofday () +. timeout in
  let token =
    call t (fun () ->
        if not t.running then None
        else begin
          t.stats_token <- t.stats_token + 1;
          Array.iteri
            (fun peer _ ->
              if peer <> t.id then
                send t ~dst:peer (Message.Stats_pull { src = t.id; token = t.stats_token }))
            t.peers;
          (* a site with no peers has nothing to wait for *)
          note_pulled t;
          Some t.stats_token
        end)
  in
  Option.iter
    (fun token ->
      with_ticker t 0.01 (fun () ->
          handoff t (fun () ->
              while t.pulled < token && (not t.exited) && Unix.gettimeofday () < deadline do
                Condition.wait t.done_cond t.mutex
              done)))
    token;
  let remote = List.filter (fun (peer, _) -> peer <> t.id) (known_peer_stats t) in
  (t.id, Hf_obs.Registry.snapshot t.registry) :: remote

(* --- per-query profiles (EXPLAIN ANALYZE, DESIGN.md §4i) --- *)

(* Fold the tracer's spans for this query into a per-site phase/rounds
   breakdown and pin the engine's per-query counters alongside as
   scalars.  Call after [await]: a still-running query yields a partial
   profile (open spans count from start to "now" on the tracer's
   clock).  Sites sharing one tracer (tests, the demo cluster) get the
   full cross-site picture; separate processes each see their half. *)
let profile (t : t) (handle : handle) (outcome : outcome) =
  let query = query_name handle.h_query in
  Hf_obs.Profile.of_spans ~query
    ~scalars:
      [
        ("messages_sent", Hf_obs.Profile.Int outcome.messages_sent);
        ("bytes_sent", Hf_obs.Profile.Int outcome.bytes_sent);
        ("results", Hf_obs.Profile.Int (List.length outcome.results));
        ( "mode_scatter",
          Hf_obs.Profile.Int
            (match outcome.mode with
             | Hf_query.Plan.Scatter -> 1
             | Hf_query.Plan.Ship -> 0) );
        ("queue_wait_s", Hf_obs.Profile.Float outcome.queue_wait_s);
        ("response_time_s", Hf_obs.Profile.Float outcome.response_time);
      ]
    ~dropped:(Hf_obs.Tracer.dropped t.tracer)
    (Hf_obs.Tracer.spans t.tracer)
