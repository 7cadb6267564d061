(* The messages of the distributed query protocol (paper, Section 3.2),
   declared once for both engines.

   A remote dereference ships the query — not the data: the message
   carries Q.id, Q.originator, Q.body and Q.size from the query context,
   plus O.id, O.start and O.iter# for the object being dereferenced.
   Results flow directly to the originating site, tagged with Q.id.
   Termination detection piggybacks on both, and its payload is a type
   parameter: ['work] rides out with work, ['back] home with answers.
   On the wire ([t]) both are credit atom exponents (see
   [Hf_termination.Credit.atoms]); the simulator ships its detector's
   tag out and its control messages home. *)

type query_id = { originator : int; serial : int }

let pp_query_id ppf { originator; serial } = Fmt.pf ppf "q%d@%d" serial originator

let equal_query_id a b = a.originator = b.originator && a.serial = b.serial

let compare_query_id a b =
  match Int.compare a.originator b.originator with
  | 0 -> Int.compare a.serial b.serial
  | c -> c

type 'work deref_request = {
  query : query_id;
  body : Hf_query.Program.t;
  oid : Hf_data.Oid.t;
  start : int;
  iters : int array;
  credit : 'work;
}

(* Batched query shipping: several work items bound for the same site
   coalesce into one wire message.  Items are grouped by query so the
   program/query header is written once per group, not once per item,
   and each group carries a single share covering all its items. *)

type 'work batch_group = {
  query : query_id;
  body : Hf_query.Program.t;
  items : Hf_engine.Work_item.t list; (* never empty on the wire *)
  credit : 'work; (* one share for the whole group *)
}

type result_payload =
  | Items of Hf_data.Oid.t list
  | Count of int
      (** distributed-set mode (Section 5): ship the number of local
          results, keep the members server-side. *)

type 'back result_message = {
  query : query_id;
  payload : result_payload;
  bindings : (string * Hf_data.Value.t list) list; (* -> operator values, by target *)
  credit : 'back;
}

(* Remote-answer caching (DESIGN.md §4g).  A shipping site asks the
   destination for its current store version before reusing cached
   verdicts; the destination answers with the version and (optionally)
   its Bloom tuple summary; verdicts for cacheable items flow back to
   the query's originator opportunistically.  All three are control
   plane: they carry no credit and never enter termination detection. *)

type cache_answer = {
  oid : Hf_data.Oid.t;
  start : int;
  iters : int array;
  passed : bool;
}

(* Single-round scatter-gather (doc/execution_modes.md).  When the
   planner picks scatter mode, the originator broadcasts the program
   once to every predicted site ([Scatter], one credit split per site).
   The site evaluates its whole speculation domain — the roots it was
   handed plus every local object at each dereference landing index —
   each node against a fresh mark table, and ships the productive nodes
   back in one [Gather_result].  The originator then stitches: it walks
   spawn edges between gathered tables, reproducing classic mark
   suppression from the per-node visited sets, and falls back to
   classic query shipping for any edge that escapes the scattered site
   set — which is what keeps the result set identical to shipping.  A
   gathered node is [Hf_engine.Scatter.node], the record the stitch
   reads. *)

(* Cluster-wide stats scraping (DESIGN.md §4i).  Any site can ask a
   peer for a snapshot of its metrics registry; the reply carries the
   values as pure data — counters, gauges, and histograms reduced to
   their exact shape (no percentile reservoir crosses the wire).
   Credit-free and loss-tolerant like the cache messages: a dropped
   pull or report costs one stale scrape, never correctness. *)

type stat_value =
  | Stat_counter of int
  | Stat_gauge of float
  | Stat_histogram of {
      count : int;
      sum : float;
      vmin : float;
      vmax : float;
      buckets : (int * int) list; (* (bucket index, count), ascending *)
    }

type stat = { name : string; value : stat_value }

type ('work, 'back) msg =
  | Deref_request of 'work deref_request
  | Work_batch of 'work batch_group list
      (** coalesced dereferences for one destination; never empty. *)
  | Result of 'back result_message
  | Credit_return of { query : query_id; credit : 'back }
      (** the payload home on its own: the credit a drained site
          returns with no results to ship, or one detector control in
          the simulator. *)
  | Link_ack
      (* standalone cumulative acknowledgement: the value itself rides
         in the reliability envelope (Codec), so the body is empty.
         Sent only when no reverse traffic carried the ack in time. *)
  | Site_unreachable of { query : query_id; dead : int }
      (* retransmission to [dead] gave up: tell the originator the
         answer will be partial.  The reclaimed credit travels
         separately (Credit_return / Result), so termination detection
         still converges. *)
  | Cache_validate of { query : query_id; src : int }
      (** "what store version are you at?" — sent once per (query,
          destination) before the first ship, while the items wait
          parked at the sender. *)
  | Cache_version of {
      query : query_id;
      site : int;
      version : int;
      epoch : int;
          (** monotonic per-site summary-recompute counter; a regression
              means the peer restarted, so learned summaries from the
              old epoch must be dropped wholesale. *)
      summary : string option;
          (** the site's Bloom tuple summary ({!Hf_index.Bloom}'s wire
              form), piggybacked when it changed since last told. *)
    }
  | Cache_answers of {
      query : query_id;
      src : int;
      version : int;  (** store version the verdicts were computed at. *)
      answers : cache_answer list;  (** never empty on the wire. *)
    }
  | Query_done of { query : query_id; src : int }
      (* the originator detected termination (or cancelled): receivers
         evict the query's context and drop any still-parked items.
         Control plane — no credit, no termination effect; a loss only
         delays the eviction until the receiver's tombstone ages out. *)
  | Stats_pull of { src : int; token : int }
      (* "snapshot your registry for me."  [token] matches the reply to
         the request (a puller waiting on a fresh scrape ignores stale
         reports).  Belongs to no query — like Link_ack, pure control
         plane. *)
  | Stats_report of { src : int; token : int; stats : stat list }
      (* the answering site's registry snapshot; [token] echoes the
         pull's (0 for an unsolicited/periodic push). *)
  | Scatter of {
      query : query_id;
      body : Hf_query.Program.t;
      roots : Hf_data.Oid.t list; (* seed oids located at the receiver *)
      credit : 'work; (* one share for the whole scatter *)
    }
  | Gather_result of {
      query : query_id;
      src : int;
      nodes : Hf_engine.Scatter.node list; (* productive speculation nodes only *)
      credit : 'back;
          (* everything the scattered site held for termination,
             returned with the gather so it can never overtake the
             nodes it covers *)
    }

type t = (int list, int list) msg

let query_of = function
  | Deref_request { query; _ }
  | Work_batch ({ query; _ } :: _)
  | Result { query; _ }
  | Credit_return { query; _ }
  | Site_unreachable { query; _ }
  | Cache_validate { query; _ }
  | Cache_version { query; _ }
  | Cache_answers { query; _ }
  | Query_done { query; _ }
  | Scatter { query; _ }
  | Gather_result { query; _ } ->
    Some query
  | Work_batch [] | Link_ack | Stats_pull _ | Stats_report _ -> None

let pp ppf = function
  | Deref_request { query; oid; start; iters; _ } ->
    Fmt.pf ppf "deref[%a] oid=%a start=%d iters=[%a]" pp_query_id query Hf_data.Oid.pp oid start
      Fmt.(array ~sep:(any ";") int)
      iters
  | Work_batch groups ->
    Fmt.pf ppf "work-batch[%a] %d group(s), %d item(s)"
      Fmt.(list ~sep:(any ",") pp_query_id)
      (List.map (fun (g : _ batch_group) -> g.query) groups)
      (List.length groups)
      (List.fold_left (fun acc (g : _ batch_group) -> acc + List.length g.items) 0 groups)
  | Result { query; payload = Items items; bindings; _ } ->
    Fmt.pf ppf "result[%a] %d items, %d targets" pp_query_id query (List.length items)
      (List.length bindings)
  | Result { query; payload = Count n; _ } -> Fmt.pf ppf "result[%a] count=%d" pp_query_id query n
  | Credit_return { query; _ } -> Fmt.pf ppf "credit-return[%a]" pp_query_id query
  | Link_ack -> Fmt.string ppf "link-ack"
  | Site_unreachable { query; dead } ->
    Fmt.pf ppf "site-unreachable[%a] dead=%d" pp_query_id query dead
  | Cache_validate { query; src } ->
    Fmt.pf ppf "cache-validate[%a] src=%d" pp_query_id query src
  | Cache_version { query; site; version; epoch; summary } ->
    Fmt.pf ppf "cache-version[%a] site=%d v=%d e=%d%s" pp_query_id query site version epoch
      (match summary with Some s -> Fmt.str " summary=%dB" (String.length s) | None -> "")
  | Cache_answers { query; src; version; answers } ->
    Fmt.pf ppf "cache-answers[%a] src=%d v=%d %d answer(s)" pp_query_id query src version
      (List.length answers)
  | Query_done { query; src } -> Fmt.pf ppf "query-done[%a] src=%d" pp_query_id query src
  | Stats_pull { src; token } -> Fmt.pf ppf "stats-pull src=%d token=%d" src token
  | Stats_report { src; token; stats } ->
    Fmt.pf ppf "stats-report src=%d token=%d %d metric(s)" src token (List.length stats)
  | Scatter { query; roots; _ } ->
    Fmt.pf ppf "scatter[%a] %d root(s)" pp_query_id query (List.length roots)
  | Gather_result { query; src; nodes; _ } ->
    Fmt.pf ppf "gather[%a] src=%d %d node(s)" pp_query_id query src (List.length nodes)

let equal_cache_answer (x : cache_answer) (y : cache_answer) =
  Hf_data.Oid.equal x.oid y.oid
  && x.start = y.start
  && Array.length x.iters = Array.length y.iters
  && Array.for_all2 ( = ) x.iters y.iters
  && x.passed = y.passed

let equal_batch_group (x : int list batch_group) (y : int list batch_group) =
  equal_query_id x.query y.query
  && Hf_query.Program.equal x.body y.body
  && List.length x.items = List.length y.items
  && List.for_all2 Hf_engine.Work_item.equal x.items y.items
  && x.credit = y.credit

let equal_stat_value (x : stat_value) (y : stat_value) =
  match x, y with
  | Stat_counter m, Stat_counter n -> m = n
  | Stat_gauge a, Stat_gauge b -> Float.equal a b (* NaN-safe: gauges may carry NaN *)
  | Stat_histogram a, Stat_histogram b ->
    a.count = b.count
    && Float.equal a.sum b.sum
    && Float.equal a.vmin b.vmin
    && Float.equal a.vmax b.vmax
    && a.buckets = b.buckets
  | (Stat_counter _ | Stat_gauge _ | Stat_histogram _), _ -> false

let equal_stat (x : stat) (y : stat) =
  String.equal x.name y.name && equal_stat_value x.value y.value

let equal_bindings a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, va) (tb, vb) ->
         String.equal ta tb
         && List.length va = List.length vb
         && List.for_all2 Hf_data.Value.equal va vb)
       a b

let equal_gather_node (x : Hf_engine.Scatter.node) (y : Hf_engine.Scatter.node) =
  Hf_data.Oid.equal x.oid y.oid
  && x.start = y.start
  && x.passed = y.passed
  && x.visited = y.visited
  && List.length x.spawns = List.length y.spawns
  && List.for_all2
       (fun (oa, sa) (ob, sb) -> Hf_data.Oid.equal oa ob && sa = sb)
       x.spawns y.spawns
  && equal_bindings x.bindings y.bindings

let equal (a : t) (b : t) =
  match a, b with
  | Deref_request x, Deref_request y ->
    equal_query_id x.query y.query
    && Hf_query.Program.equal x.body y.body
    && Hf_data.Oid.equal x.oid y.oid
    && x.start = y.start
    && Array.length x.iters = Array.length y.iters
    && Array.for_all2 ( = ) x.iters y.iters
    && x.credit = y.credit
  | Result x, Result y ->
    equal_query_id x.query y.query
    && (match x.payload, y.payload with
        | Items xs, Items ys ->
          List.length xs = List.length ys && List.for_all2 Hf_data.Oid.equal xs ys
        | Count m, Count n -> m = n
        | (Items _ | Count _), _ -> false)
    && equal_bindings x.bindings y.bindings
    && x.credit = y.credit
  | Work_batch xs, Work_batch ys ->
    List.length xs = List.length ys && List.for_all2 equal_batch_group xs ys
  | Credit_return x, Credit_return y -> equal_query_id x.query y.query && x.credit = y.credit
  | Link_ack, Link_ack -> true
  | Site_unreachable x, Site_unreachable y ->
    equal_query_id x.query y.query && x.dead = y.dead
  | Cache_validate x, Cache_validate y ->
    equal_query_id x.query y.query && x.src = y.src
  | Cache_version x, Cache_version y ->
    equal_query_id x.query y.query
    && x.site = y.site
    && x.version = y.version
    && x.epoch = y.epoch
    && Option.equal String.equal x.summary y.summary
  | Cache_answers x, Cache_answers y ->
    equal_query_id x.query y.query
    && x.src = y.src
    && x.version = y.version
    && List.length x.answers = List.length y.answers
    && List.for_all2 equal_cache_answer x.answers y.answers
  | Query_done x, Query_done y -> equal_query_id x.query y.query && x.src = y.src
  | Stats_pull x, Stats_pull y -> x.src = y.src && x.token = y.token
  | Stats_report x, Stats_report y ->
    x.src = y.src
    && x.token = y.token
    && List.length x.stats = List.length y.stats
    && List.for_all2 equal_stat x.stats y.stats
  | Scatter x, Scatter y ->
    equal_query_id x.query y.query
    && Hf_query.Program.equal x.body y.body
    && List.length x.roots = List.length y.roots
    && List.for_all2 Hf_data.Oid.equal x.roots y.roots
    && x.credit = y.credit
  | Gather_result x, Gather_result y ->
    equal_query_id x.query y.query
    && x.src = y.src
    && List.length x.nodes = List.length y.nodes
    && List.for_all2 equal_gather_node x.nodes y.nodes
    && x.credit = y.credit
  | (Deref_request _ | Work_batch _ | Result _ | Credit_return _ | Link_ack
    | Site_unreachable _ | Cache_validate _ | Cache_version _ | Cache_answers _
    | Query_done _ | Stats_pull _ | Stats_report _ | Scatter _ | Gather_result _), _ ->
    false
