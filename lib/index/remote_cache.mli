(** Remote-answer cache and ship-pruning analysis for query shipping.

    Memoizes, at the shipping site, the pass/fail verdict of work items
    whose reachable program suffix contains no [Deref] and no
    [Retrieve]: such an item's outcome depends only on (suffix,
    iteration counters, target object), so a verdict computed at remote
    store version [v] can be replayed locally while the remote still
    reports [v].  The same reachability walk derives Bloom probes that
    prove some items dead on arrival, letting the origin skip the ship
    entirely.  See DESIGN.md §4g for the correctness argument. *)

type config = {
  capacity : int;  (** LRU entries kept per site. *)
  ttl : float;
      (** freshness window in (virtual or wall-clock) seconds; entries
          older than this revalidate as misses.  [Float.infinity]
          disables aging — version gating alone decides reuse. *)
  fp_rate : float;  (** Bloom summary false-positive budget. *)
}

val default : config
(** 4096 entries, no aging, 1% false positives. *)

val validate : config -> unit
(** Raises [Invalid_argument] on a non-positive capacity or ttl, or an
    [fp_rate] outside (0, 1). *)

(** {1 Program analysis} *)

val cacheable : Hf_engine.Plan.t -> start:int -> iters:int array -> bool
(** Whether an item's verdict may be cached: no [Deref] or [Retrieve]
    filter is reachable from [start] under the item's (fixed) iteration
    counters, by a conservative fixpoint over backward [Iter] jumps. *)

val prune_probes :
  Hf_engine.Plan.t -> start:int -> iters:int array -> string list
(** Summary-membership probes, each {e necessary} for the item's first
    executed filter to match any tuple.  If the destination summary
    definitely lacks one, the item fails on arrival without spawning,
    emitting, or binding anything, so the ship can be skipped and the
    credit kept.  Empty means "cannot prune". *)

(** {1 Site summaries} *)

val summary_of_store : config -> Hf_data.Store.t -> Bloom.t
(** Bloom summary of every tuple's type and (type, key) pair, sized for
    the store at [config.fp_rate].  Rebuilt whenever the store version
    changes. *)

val summary_misses : Bloom.t -> string list -> bool
(** [true] iff some probe is definitely absent from the summary —
    i.e. the ship may be pruned. *)

val type_probe : string -> string

val pair_probe : string -> Hf_data.Value.t -> string
(** Probe keys as inserted by {!summary_of_store}; values are
    serialized identity-canonically ([-0.] and NaN collapsed) so
    [Value.equal] values share a key. *)

(** {1 Answer cache} *)

type t

val create : config -> t
(** Raises like {!validate}. *)

val config : t -> config

val length : t -> int

val entry_key :
  dst:int ->
  plan:Hf_engine.Plan.t ->
  start:int ->
  iters:int array ->
  oid:Hf_data.Oid.t ->
  string
(** Canonical bytes of (destination, shipped program suffix, counters,
    target oid). *)

type lookup =
  | Hit of bool  (** cached verdict, current at the given version. *)
  | Invalidated
      (** an entry existed but recorded a different remote version (or
          aged past the ttl); it has been evicted. *)
  | Absent

val lookup : t -> now:float -> key:string -> version:int -> lookup
(** A [Hit] refreshes the entry's LRU position. *)

val put : t -> now:float -> key:string -> version:int -> passed:bool -> unit
(** Insert or refresh; evicts the least-recently-used entry beyond
    capacity. *)

val drop_dst : t -> dst:int -> unit
(** Evict every entry recorded against destination [dst].  Needed when
    a summary-epoch regression reveals the peer restarted: its new
    lineage's store version can collide with the old one's, so cached
    verdicts keyed by version alone could wrongly validate. *)
