(** Field values of HyperFile tuples.

    HyperFile interprets only the simple types used for retrieval —
    strings, numbers, pointers — and treats everything else as
    uninterpreted bits ([Blob]), exactly as the paper's file-system
    philosophy prescribes. *)

type t =
  | Str of string
  | Num of int
  | Real of float
  | Ptr of Oid.t  (** reference to another object, possibly remote. *)
  | Blob of string  (** arbitrary bits: text bodies, bitmaps, object code. *)

val str : string -> t
val num : int -> t
val real : float -> t
val ptr : Oid.t -> t
val blob : string -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val as_pointer : t -> Oid.t option
val as_string : t -> string option
val as_number : t -> int option

val byte_size : t -> int
(** Approximate serialized size; used by the ship-data baseline's
    communication-cost model. *)

val pp : Format.formatter -> t -> unit
