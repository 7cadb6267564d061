(** A compiled query body: the flat filter array F_0 ... F_{n-1}.

    Indexes are 0-based (the paper numbers from 1); the index equal to
    [length] means "past the last filter", i.e. the object has passed the
    whole query.  This is the form shipped between sites — [byte_size]
    estimates its wire footprint. *)

type t

exception Ill_formed of string

val of_filters : Filter.t list -> t
(** Raises [Ill_formed] if an iterator's [body_start] lies beyond the
    iterator itself. *)

val filters : t -> Filter.t list

val length : t -> int

val get : t -> int -> Filter.t
(** Raises [Invalid_argument] on an out-of-bounds index. *)

val equal : t -> t -> bool

val byte_size : t -> int
(** Estimated serialized size in bytes (the paper's ~40-byte query
    messages); used by the communication-cost accounting. *)

val pp : Format.formatter -> t -> unit
