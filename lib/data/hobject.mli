(** HyperFile objects: an identifier plus a set of tuples.

    ("Hobject" rather than "Object" to avoid clashing with the OCaml
    standard library.)  Tuples keep insertion order for display, but
    [add] suppresses duplicates so the paper's set semantics hold.
    Objects are immutable values; [Store] holds the current version. *)

type t

val create : Oid.t -> t
(** Empty object. *)

val of_tuples : Oid.t -> Tuple.t list -> t
(** Object with the given tuples (duplicates removed, first occurrence
    kept). *)

val oid : t -> Oid.t
val tuples : t -> Tuple.t list
val cardinal : t -> int

val add : t -> Tuple.t -> t
val remove : t -> Tuple.t -> t
val mem : t -> Tuple.t -> bool

val pointers : t -> Oid.t list
(** Targets of all pointer tuples, in tuple order. *)

val pointers_with_key : t -> key:string -> Oid.t list
(** Targets of pointer tuples whose key equals [key]. *)

val find_string : t -> key:string -> string option
(** Data of the first (String, key, _) tuple. *)

val keywords : t -> string list
(** Keys of all keyword tuples. *)

val byte_size : t -> int
(** Approximate serialized size, for the ship-data baseline. *)

val equal : t -> t -> bool
(** Same oid and same tuple set (order-insensitive). *)

val pp : Format.formatter -> t -> unit
