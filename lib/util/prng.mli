(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in HyperFile — synthetic workload construction, key
    randomisation in the benchmark queries, property-test inputs — flows
    through this module so that every experiment is reproducible from a
    single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val next_float : t -> float
(** Uniform in [\[0, 1)]. *)

val next_bool : t -> float -> bool
(** [next_bool t p] is [true] with probability [p]. *)

val split : t -> t
(** Derive an independent generator, advancing [t]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. Raises [Invalid_argument] on an empty
    array. *)
