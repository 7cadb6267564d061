(** Work items: the per-object state held in the working set W and sent
    with remote dereferences.

    Per the paper (end of Section 3.1), only the object id, the starting
    filter index and the iteration counters need to survive between
    processing passes; the "next filter" index and the matching-variable
    bindings are reconstructed each time an object is processed. *)

type t

val initial : Plan.t -> Hf_data.Oid.t -> t
(** Item for a member of the initial set: start = 0, canonical initial
    counters (1 for finite iterators, 0 for star). *)

val make : oid:Hf_data.Oid.t -> start:int -> iters:int array -> t
(** Raw constructor (used when a deref request arrives from the
    network). *)

val oid : t -> Hf_data.Oid.t
val start : t -> int
val iters : t -> int array

val iter_at : t -> int -> int
(** Counter for the given plan slot. Raises [Invalid_argument] when out
    of range. *)

val spawn : Plan.t -> deref_index:int -> target:Hf_data.Oid.t -> t -> t
(** Item for an object reached by dereferencing at filter index
    [deref_index]: starts at the following filter, with the counter of
    every enclosing iterator incremented (the pointer chain through
    each of those iterators is one longer). *)

val equal : t -> t -> bool
