(** The messages of the distributed query protocol (paper, Section 3.2),
    declared once for both engines.

    A remote dereference ships the query, not the data: Q.id,
    Q.originator, Q.body, Q.size plus O.id, O.start, O.iter#.  Results
    flow directly to the originating site.  What termination detection
    needs rides on both, and is the one thing the engines carry
    differently, so it is a type parameter: ['work] is what work carries
    out ([Deref_request], each [Work_batch] group, [Scatter]) and ['back]
    what answers carry home ([Result], [Credit_return], [Gather_result]).
    The wire ({!t}) carries weighted-termination credit as lists of atom
    exponents in both places; the simulator carries its detector's tag
    out and its control messages home. *)

type query_id = {
  originator : int;  (** site at which the query was issued. *)
  serial : int;  (** identifier assigned by the originating site. *)
}

val pp_query_id : Format.formatter -> query_id -> unit
val equal_query_id : query_id -> query_id -> bool
val compare_query_id : query_id -> query_id -> int

type 'work deref_request = {
  query : query_id;
  body : Hf_query.Program.t;
  oid : Hf_data.Oid.t;
  start : int;
  iters : int array;
  credit : 'work;
}

type result_payload =
  | Items of Hf_data.Oid.t list
  | Count of int
      (** distributed-set mode (Section 5): ship only the number of local
          results. *)

type 'back result_message = {
  query : query_id;
  payload : result_payload;
  bindings : (string * Hf_data.Value.t list) list;
  credit : 'back;
}

type 'work batch_group = {
  query : query_id;
  body : Hf_query.Program.t;
  items : Hf_engine.Work_item.t list;  (** never empty on the wire. *)
  credit : 'work;  (** one share covering every item. *)
}
(** Batched query shipping: dereferences bound for the same site share
    one wire message; the program/query header is written once per
    group, amortized over its items. *)

type cache_answer = {
  oid : Hf_data.Oid.t;
  start : int;
  iters : int array;
  passed : bool;
}
(** One memoizable verdict: the named work item, evaluated at the
    answering site, passed or failed (DESIGN.md §4g). *)

type stat_value =
  | Stat_counter of int
  | Stat_gauge of float
  | Stat_histogram of {
      count : int;
      sum : float;
      vmin : float;
      vmax : float;
      buckets : (int * int) list;  (** (bucket index, count), ascending. *)
    }
(** One metric value as pure wire data (DESIGN.md §4i).  Histograms
    ship their exact shape — count/sum/min/max and bucket counts — but
    never the percentile reservoir. *)

type stat = { name : string; value : stat_value }

type ('work, 'back) msg =
  | Deref_request of 'work deref_request
  | Work_batch of 'work batch_group list
      (** coalesced dereferences for one destination; never empty. *)
  | Result of 'back result_message
  | Credit_return of { query : query_id; credit : 'back }
  | Link_ack
      (** standalone cumulative acknowledgement; the ack value rides in
          the reliability envelope ({!Codec.encode}), so the body is
          empty.  Sent only when no reverse traffic carried the ack
          within the delayed-ack window. *)
  | Site_unreachable of { query : query_id; dead : int }
      (** retransmission to [dead] exhausted its retries: the
          originator's answer will be partial.  Reclaimed credit
          travels separately so termination still converges. *)
  | Cache_validate of { query : query_id; src : int }
      (** "what store version are you at?" — sent once per (query,
          destination) before the first ship while the sender parks its
          items.  Control plane: no credit, no termination effect. *)
  | Cache_version of {
      query : query_id;
      site : int;
      version : int;
      epoch : int;
          (** monotonic per-site summary-recompute counter; a regression
              tells the receiver the peer restarted and its learned
              summaries (and Bloofi leaf) are from a dead lineage. *)
      summary : string option;
          (** the site's Bloom tuple summary in [Hf_index.Bloom]'s wire
              form, piggybacked when it changed since last told. *)
    }  (** Answer to [Cache_validate]. *)
  | Cache_answers of {
      query : query_id;
      src : int;
      version : int;  (** store version the verdicts were computed at. *)
      answers : cache_answer list;  (** never empty on the wire. *)
    }
      (** Opportunistic fill: verdicts for cacheable items a remote
          site evaluated, sent to the query's originator.  Loss only
          loses future cache hits, never correctness. *)
  | Query_done of { query : query_id; src : int }
      (** The originator detected termination (or the caller cancelled):
          receivers evict the query's per-site context and drop parked
          items.  Control plane: no credit, no termination effect — by
          the time it is sent the detector has already converged, so a
          loss merely delays the eviction. *)
  | Stats_pull of { src : int; token : int }
      (** "snapshot your registry for me."  [token] matches the reply
          to the request.  Belongs to no query — pure control plane,
          credit-free and loss-tolerant: a dropped pull costs one stale
          scrape, never correctness. *)
  | Stats_report of { src : int; token : int; stats : stat list }
      (** the answering site's registry snapshot; [token] echoes the
          pull's (0 for an unsolicited periodic push). *)
  | Scatter of {
      query : query_id;
      body : Hf_query.Program.t;
      roots : Hf_data.Oid.t list;  (** seed oids located at the receiver. *)
      credit : 'work;  (** one share for the whole scatter. *)
    }
      (** Scatter-gather mode, outbound half: the originator broadcasts
          the program once to each predicted site, which evaluates its
          whole speculation domain locally and answers with a single
          {!Gather_result} — one network round instead of one per
          dereference hop. *)
  | Gather_result of {
      query : query_id;
      src : int;
      nodes : Hf_engine.Scatter.node list;
          (** productive speculation nodes only: passed, spawned a
              dereference, or emitted bindings. *)
      credit : 'back;
          (** everything the scattered site held for termination,
              returned with the gather so it can never overtake the
              nodes it covers. *)
    }  (** Scatter-gather mode, inbound half. *)

type t = (int list, int list) msg
(** The wire's instance: credit atom exponents both ways. *)

val query_of : ('work, 'back) msg -> query_id option
(** The query a message is charged to; for [Work_batch], its first
    group's.  [None] for an empty batch and for [Link_ack],
    [Stats_pull] and [Stats_report], which belong to a link or the
    site, not a query. *)

val pp : Format.formatter -> ('work, 'back) msg -> unit
val equal : t -> t -> bool
