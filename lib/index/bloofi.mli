(** Bloofi-style hierarchical index over per-site Bloom summaries.

    A balanced d-ary tree whose leaves are the per-peer tuple summaries
    a site learns from [Cache_version] replies (DESIGN.md §4g) and
    whose inner nodes are the {!Bloom.union} of their children.  One
    root-to-leaf descent then answers "which of my N peers could match
    this selection at all": a subtree whose OR-filter definitely lacks
    a necessary probe is skipped whole, so the planner's per-site scan
    collapses from N filter probes to O(d·log_d N) on selective
    queries (DESIGN.md §4k).

    Soundness is inherited from the Bloom layer twice over: a leaf
    answers exactly what the flat summary would, and an inner filter
    holds a superset of each child's folded bits, so a subtree miss
    proves every leaf below it misses — {!probe} has no false
    negatives with respect to the filters it was given.  Staleness is
    the caller's contract: the tree reflects the last summary learned
    per site, and a stale filter can only make probe results {e
    larger} downstream (the engines re-validate versions before acting
    on a prune), never silently smaller. *)

type t

type probe_result = {
  sites : int list;  (** may-match sites, ascending *)
  touched : int;  (** tree nodes consulted during the descent *)
  depth : int;  (** deepest level reached (root = 0) *)
}

val create : ?order:int -> unit -> t
(** Empty tree of the given fan-out (default 4).  Raises
    [Invalid_argument] if [order < 2]. *)

val insert : t -> site:int -> Bloom.t -> unit
(** Insert [site]'s summary, or replace it if the site is already
    indexed (the [Cache_version] churn path).  Both recompute only the
    leaf-to-root path; growing past the current leaf capacity rebuilds
    the tree one level deeper (counted by {!rebuilds}). *)

val remove : t -> site:int -> unit
(** Forget a site (lost summary, restarted peer).  The last leaf moves
    into the hole and both affected paths are recomputed.  No-op when
    the site is not indexed. *)

val mem : t -> site:int -> bool

val cardinal : t -> int

val probe : t -> string list list -> probe_result
(** Descend with a disjunction of probe conjunctions: a filter may
    match when some group's probes are all possibly present (an empty
    group, like an empty group list, means "cannot rule out" — the
    same shape {!Remote_cache.prune_probes} produces per landing pc).
    Subtrees whose OR-filter rules every group out are skipped; inner
    nodes whose children had incompatible geometry carry no filter and
    are always descended (over-ship, never wrongly prune). *)

val probes_run : t -> int
(** Cumulative {!probe} calls. *)

val pruned_total : t -> int
(** Cumulative indexed-but-ruled-out sites across all probes. *)

val rebuilds : t -> int
(** Cumulative full rebuilds (capacity growth). *)

val invariant_ok : t -> bool
(** Structural check for the property tests: every inner node's filter
    equals the {!Bloom.union} of its live children's (or is absent
    exactly when some child pair is union-incompatible), and the
    site-to-leaf maps agree.  O(n) — not for hot paths. *)
