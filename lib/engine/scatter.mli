(** Scatter-gather evaluation: the engine half shared by the simulator
    and the TCP transport (doc/execution_modes.md).

    A scattered site evaluates its whole {e speculation domain} — seed
    roots at filter 0 plus every local object at every dereference
    landing index — each node with a fresh mark table, and ships home
    only the productive nodes.  The originator then {e stitches}: it
    replays the classic algorithm's reachability over the precomputed
    nodes, following spawn edges between site tables and reproducing
    the mark table's entry suppression with per-(site, object) covered
    index sets, so the stitched answer is byte-identical to a classic
    run with the same arrival order.  Chains whose dereference escapes
    the scattered site set fall back to classic shipping as ordinary
    work items.

    Only programs without finite iterators are eligible
    ({!Hf_query.Plan.eligible}): the iteration counters are then
    constant all-zero vectors, so a node is fully determined by its
    (object, start index) pair. *)

type node = {
  oid : Hf_data.Oid.t;
  start : int;
  passed : bool;
  visited : int list;  (** filter indices the run marked, ascending. *)
  spawns : (Hf_data.Oid.t * int) list;
      (** dereference edges: (target oid, landing filter index). *)
  bindings : (string * Hf_data.Value.t list) list;
      (** [->] emissions of this node, in emission order. *)
}

val eval_site :
  plan:Plan.t ->
  find:(Hf_data.Oid.t -> Hf_data.Hobject.t option) ->
  oids:Hf_data.Oid.t list ->
  roots:Hf_data.Oid.t list ->
  stats:Stats.t ->
  node list
(** Evaluate the site's speculation domain: [roots] at start 0 union
    [oids] (the local store) at every landing index, deduplicated by
    (oid, start).  Returns the productive nodes only — passed, spawned,
    or emitted; dangling and fruitless nodes are omitted, which the
    stitcher treats identically to a classic drop. *)

(** The originator's merge state: one expected gather per scattered
    site (the originator's own domain counts as one, fed synchronously
    at seed time). *)
module Stitch : sig
  type t

  type outcome = {
    passed : Hf_data.Oid.t list;
        (** newly activated nodes that fell past the last filter; may
            repeat an oid — apply to a set. *)
    bindings : (string * Hf_data.Value.t list) list;
        (** emissions of newly activated nodes, activation order. *)
    fallback : Work_item.t list;
        (** chains escaping the scattered site set: ship classically. *)
  }

  val create :
    plan:Plan.t ->
    sites:int list ->
    roots:(int * Hf_data.Oid.t list) list ->
    t
  (** [sites] is every scattered site, the originator included;
      [roots] gives each site's seed oids.  A spawn edge goes to its
      target's birth site. *)

  val add_gather : t -> site:int -> node list -> outcome
  (** Install the site's table and activate everything newly reachable:
      the site's roots plus any edges parked waiting for it.  A
      duplicate gather (already installed, or an unknown site) is a
      no-op returning {!empty_outcome}. *)

  val site_dead : t -> site:int -> outcome
  (** The site died before answering: install an empty table and drop
      the edges parked for it — exactly the chains classic shipping
      would have lost at that site (the caller reports [Partial]). *)

  val outstanding : t -> int
  (** Gathers still missing; the originator must not drain before this
      reaches zero. *)
end
