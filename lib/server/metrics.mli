(** The counters of a site's work: messages by kind, byte estimates,
    busy time, and what [Site] counts as it routes — cache verdicts,
    validations, fills, stitch fallbacks and planner choices.  The
    simulator keeps one record per query, shared by every site the
    query reaches; the socket engine keeps one per site, covering all
    its queries, behind its [hf.net.*] counters (it has no per-site
    busy time: [n_sites = 0]). *)

type t = {
  n_sites : int;
  mutable work_messages : int;
  mutable work_items : int;
      (** work items carried by those messages; equals [work_messages]
          when batching is off (K = 1). *)
  mutable work_batches : int;
      (** work messages that carried two or more items. *)
  mutable batch_bytes_saved : int;
      (** bytes the per-group program/query headers would have cost had
          each item shipped in its own message. *)
  mutable result_messages : int;
  mutable control_messages : int;
  mutable piggybacked_controls : int;
      (** termination-control payloads that rode on result messages. *)
  mutable work_bytes : int;
  mutable result_bytes : int;
  mutable duplicate_work_messages : int;
      (** deref requests the receiving site's mark table then ignored —
          the cost of keeping mark tables local (paper, Section 3.2). *)
  mutable dropped_messages : int;
      (** messages the lossy network swallowed before delivery. *)
  mutable retransmits : int;
      (** transmissions repeated by the reliability layer after an ack
          timeout. *)
  mutable dup_drops : int;
      (** deliveries discarded by receiver-side dedup (a retransmitted
          copy of a message that had already arrived). *)
  mutable give_ups : int;
      (** messages abandoned after the retry cap: the peer was declared
          unreachable and the message's credit reclaimed. *)
  busy : float array;  (** per-site CPU busy time (seconds). *)
  mutable results_shipped : int;
      (** result items that crossed the network. *)
  mutable cache_hits : int;
      (** work items answered from the remote-answer cache instead of
          shipping (DESIGN.md §4g). *)
  mutable cache_misses : int;
      (** cacheable items that had to ship anyway. *)
  mutable cache_prunes : int;
      (** ships skipped because the destination's Bloom summary proved
          the item dead on arrival. *)
  mutable cache_validations : int;
      (** [Cache_validate] round trips issued. *)
  mutable cache_fills : int;
      (** verdicts installed from [Cache_answers] messages. *)
  mutable cache_invalidations : int;
      (** entries evicted because the destination reported a different
          store version (or the entry aged past its ttl). *)
  mutable scatter_messages : int;
      (** [Scatter] broadcasts sent by the originator
          (doc/execution_modes.md). *)
  mutable gather_messages : int;
      (** [Gather_result] replies merged at the originator. *)
  mutable gather_nodes : int;
      (** speculation nodes those gathers carried. *)
  mutable scatter_fallbacks : int;
      (** stitched chains that escaped the scattered site set and were
          re-shipped classically. *)
  mutable scatter_bytes : int;  (** bytes of [Scatter] broadcasts. *)
  mutable gather_bytes : int;  (** bytes of [Gather_result] replies. *)
  mutable planner_scatter : int;
      (** planner decisions that chose scatter-gather. *)
  mutable planner_ship : int;
      (** planner decisions that chose classic shipping. *)
}

val create : n_sites:int -> t

val add_busy : t -> int -> float -> unit

val total_messages : t -> int
val total_bytes : t -> int
val total_busy : t -> float
