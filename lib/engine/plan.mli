(** Static analysis of a compiled program, shared by every site
    processing a query.

    Assigns each [Iter] filter a dense {e slot} and records, for every
    filter index, the slots of all enclosing iterators.  Work items
    carry one iteration counter per slot — the static-key equivalent of
    the paper's per-object stack of iteration numbers.  A dereference
    increments the counter of every enclosing iterator, so each
    iterator bounds the total pointer-chain length through its body;
    for non-nested iterators (the paper's common case) this coincides
    exactly with the paper's semantics. *)

type t

val make : Hf_query.Program.t -> t

val program : t -> Hf_query.Program.t

val length : t -> int
(** Number of filters (n). *)

val iter_count : t -> int
(** Number of [Iter] filters, i.e. counter slots per work item. *)

val slot_of_iterator : t -> int -> int
(** Slot of the iterator at filter index [i]. Raises [Invalid_argument]
    if [i] is not an iterator. *)

val enclosing_iterator_slots : t -> int -> int list
(** Slots of all iterators whose bodies contain filter index [d],
    outermost first; empty when [d] is not inside any iterator. *)

(** {1 Canonical iteration counters}

    Counters are kept canonical so the space of counter vectors is
    finite and the mark table can key on them: a [Star] slot is pinned
    to 0 (its counter is never consulted), a [Finite k] slot is capped
    at [k] (larger values behave identically).  Result sets then depend
    only on which pointer chains exist, not on message arrival order. *)

val initial_counter : t -> int -> int
(** Counter value for members of the initial set: 1 for finite slots, 0
    for star slots. *)

val bump_counter : t -> int -> int -> int
(** Counter value after one more dereference through the slot's
    iterator, canonicalized. *)
