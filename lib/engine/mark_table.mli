(** The per-query mark table (paper, Section 3.1, refined).

    Maps each object id to the set of processing states — (filter index,
    canonical iteration counters) — at which the object has already been
    processed.  Marks per filter index are the paper's "important
    subtlety" (an object that failed early filters must still be
    processed when a later dereference lands elsewhere); including the
    canonical counters additionally makes finite-iterator queries
    independent of message arrival order (for pure-star queries the
    counters are all zero, collapsing to exactly the paper's key).  In
    the distributed algorithm each site keeps its own table covering
    only locally processed objects. *)

type t

val create : unit -> t
(** An empty table.  It takes no lock: one thread at a time may use
    it. *)

val mem : t -> Hf_data.Oid.t -> int -> iters:int array -> bool
(** Has the object been processed in this state? *)

val add : t -> Hf_data.Oid.t -> int -> iters:int array -> unit

val marks : t -> Hf_data.Oid.t -> (int * int array) list
(** All marked states for the object, sorted. *)

val marked_indices : t -> Hf_data.Oid.t -> int list
(** Distinct filter indexes marked for the object, sorted. *)

val cardinal : t -> int
(** Number of distinct objects marked. *)

val total_marks : t -> int
(** Total marked states — a memory-footprint measure. *)

val clear : t -> unit
