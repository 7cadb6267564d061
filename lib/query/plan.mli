(** The cost-based execution-mode planner (doc/execution_modes.md).

    Given a compiled program, the seed distribution, and per-site hints
    distilled from the remote-cache layer's Bloom tuple summaries and
    store stats, the planner predicts the touched-site set and compares
    two execution strategies:

    - {b shipping} (the paper's protocol): work items follow the
      pointer chain, one network hop per cross-site dereference —
      round-heavy, byte-light;
    - {b scatter-gather}: broadcast the program to every predicted site
      in one round; each site speculatively evaluates its whole local
      domain and ships the productive nodes home — round-light,
      byte-heavy.

    The module is deliberately pure: it depends on nothing but the
    query layer.  Engines build {!site_hint}s from whatever summary
    state they hold (the simulator from its stores, the TCP transport
    from learned [Cache_version] summaries) and translate their cost
    tables into {!costs}. *)

type site_hint = {
  site : int;
  objects : int option;
      (** estimated object count at the site (e.g. from
          {!Hf_index.Bloom.estimate_entries}); [None] = unknown. *)
  may_match : bool option;
      (** whether the site's tuple summary may match the program's
          dereference landing filters; [Some false] excludes the site
          from the predicted set, anything else keeps it. *)
  seed_may_match : bool option;
      (** whether the site's summary may match the program's {e start}
          filter — the one its own seeds enter at.  Only consulted for
          seed sites: [Some false] together with [may_match = Some
          false] moves the site to the decision's [remainder] (partial
          scatter), anything else keeps seed sites predicted. *)
}

type index_stats = {
  indexed : int;  (** sites held by the Bloofi tree at probe time. *)
  touched : int;  (** tree nodes consulted by the descent. *)
  depth : int;  (** deepest level the descent reached. *)
  pruned : int;  (** indexed sites the descent ruled out. *)
}
(** How the planner's site prediction was computed when a
    {!Hf_index.Bloofi} descent (rather than a flat summary scan)
    produced the hints — carried on the decision for [:plan] /
    [--explain-plan] and the bench harness. *)

type costs = {
  transit : float;  (** one-way message latency, seconds. *)
  header_bytes : int;  (** program + query header, per message. *)
  item_bytes : int;  (** per shipped work item. *)
  node_bytes : int;  (** per speculative gather node. *)
  eval_s : float;  (** per speculative node evaluation, seconds. *)
  byte_s : float;  (** transfer seconds per byte. *)
  p_local : float;
      (** estimated probability that a dereference stays on-site —
          engines derive it from the origin store's own cross-site
          pointer ratio. *)
}

type estimate = {
  rounds : int;  (** sequential message legs on the critical path. *)
  bytes : int;  (** estimated protocol bytes. *)
  latency : float;  (** estimated response-time contribution, seconds. *)
}

type mode = Ship | Scatter

val mode_name : mode -> string
val equal_mode : mode -> mode -> bool

type decision = {
  eligible : bool;
  reason : string option;  (** why scatter is ineligible, when it is. *)
  predicted : int list;
      (** predicted touched sites, sorted, origin excluded — the sites
          a scatter would contact. *)
  remainder : int list;
      (** seed sites excluded from the scatter fan-out because their
          summary rules out both the landing and the start filters;
          their seeds ship classically (partial scatter).  Always
          disjoint from [predicted]. *)
  index : index_stats option;
      (** present when a Bloofi descent produced the prediction. *)
  ship : estimate;
  scatter : estimate;
  chosen : mode;
}

val landing_pcs : Program.t -> int list
(** The dereference landing indices [{d+1 | program.(d) = Deref}] —
    the entry points a scattered site must speculate from, in addition
    to filter 0 for its seed roots. *)

val eligible : Program.t -> (unit, string) result
(** Scatter-gather eligibility.  Finite iterators make the per-item
    iteration counters vary along a chain, so a site cannot enumerate
    its speculation domain; such programs always ship. *)

val decide :
  program:Program.t ->
  origin:int ->
  seed_sites:(int * int) list ->
  hints:site_hint list ->
  ?index:index_stats ->
  costs:costs ->
  unit ->
  decision
(** [decide] compares the two modes.  [seed_sites] gives (site, seed
    count) pairs for the query's initial oids; [hints] should cover
    every candidate site (origin entries are ignored).  Sites with
    seeds are predicted regardless of their landing-summary verdict
    unless {e both} their hint verdicts are [Some false], in which case
    they land in [remainder] and their seeds ship classically (partial
    scatter).  [index] records how a Bloofi descent produced the hints,
    for the explain output; it does not affect the decision. *)

val pp : Format.formatter -> decision -> unit
(** Multi-line rendering used by [hfql :plan] and [--explain-plan]. *)
