(* The counters of a site's work: message counts by kind, byte
   estimates, per-site busy time, and what Site counts as it routes.
   One record per query in the simulator, where they drive the
   experiment tables (message-cost columns, mark-table ablation) and
   the "queries ship ~40 bytes" accounting; one per site on TCP. *)

type t = {
  n_sites : int;
  mutable work_messages : int;
  mutable work_items : int; (* work items carried by those messages *)
  mutable work_batches : int; (* work messages that carried >= 2 items *)
  mutable batch_bytes_saved : int;
      (* bytes the per-group program/query headers would have cost had
         each item shipped in its own message *)
  mutable result_messages : int;
  mutable control_messages : int; (* standalone control messages *)
  mutable piggybacked_controls : int; (* controls that rode on result messages *)
  mutable work_bytes : int;
  mutable result_bytes : int;
  mutable duplicate_work_messages : int;
      (* deref requests for (object, start) pairs the receiving site had
         already processed — the cost of local (vs global) mark tables *)
  mutable dropped_messages : int; (* messages the lossy network swallowed *)
  mutable retransmits : int;
      (* transmissions repeated by the reliability layer after an ack
         timeout *)
  mutable dup_drops : int;
      (* deliveries discarded by receiver-side dedup (a retransmitted
         copy of a message that already arrived) *)
  mutable give_ups : int;
      (* messages abandoned after the retry cap — the peer was declared
         unreachable and the message's credit reclaimed *)
  busy : float array; (* per-site CPU busy time *)
  mutable results_shipped : int; (* result items that crossed the network *)
  mutable cache_hits : int;
      (* work items answered from the remote-answer cache instead of
         shipping *)
  mutable cache_misses : int; (* cacheable items that had to ship anyway *)
  mutable cache_prunes : int;
      (* ships skipped because the destination's Bloom summary proved
         the item dead on arrival *)
  mutable cache_validations : int; (* Cache_validate round trips issued *)
  mutable cache_fills : int; (* verdicts installed from Cache_answers *)
  mutable cache_invalidations : int;
      (* entries evicted because the destination reported a different
         store version (or the entry aged out) *)
  mutable scatter_messages : int; (* Scatter broadcasts sent by the originator *)
  mutable gather_messages : int; (* Gather replies merged at the originator *)
  mutable gather_nodes : int; (* speculation nodes those gathers carried *)
  mutable scatter_fallbacks : int;
      (* stitched chains that escaped the scattered site set and were
         re-shipped classically *)
  mutable scatter_bytes : int; (* bytes of Scatter broadcasts *)
  mutable gather_bytes : int; (* bytes of Gather replies *)
  mutable planner_scatter : int; (* planner decisions that chose scatter *)
  mutable planner_ship : int; (* planner decisions that chose shipping *)
}

let create ~n_sites =
  {
    n_sites;
    work_messages = 0;
    work_items = 0;
    work_batches = 0;
    batch_bytes_saved = 0;
    result_messages = 0;
    control_messages = 0;
    piggybacked_controls = 0;
    work_bytes = 0;
    result_bytes = 0;
    duplicate_work_messages = 0;
    dropped_messages = 0;
    retransmits = 0;
    dup_drops = 0;
    give_ups = 0;
    busy = Array.make n_sites 0.0;
    results_shipped = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_prunes = 0;
    cache_validations = 0;
    cache_fills = 0;
    cache_invalidations = 0;
    scatter_messages = 0;
    gather_messages = 0;
    gather_nodes = 0;
    scatter_fallbacks = 0;
    scatter_bytes = 0;
    gather_bytes = 0;
    planner_scatter = 0;
    planner_ship = 0;
  }

let add_busy t site duration = t.busy.(site) <- t.busy.(site) +. duration

let total_messages t =
  t.work_messages + t.result_messages + t.control_messages + t.scatter_messages
  + t.gather_messages

let total_bytes t = t.work_bytes + t.result_bytes + t.scatter_bytes + t.gather_bytes

let total_busy t = Array.fold_left ( +. ) 0.0 t.busy
