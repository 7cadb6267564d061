(** HyperFile tuples: (type, key, data) triples (paper, Section 2).

    The type tag tells HyperFile how to interpret the key and data
    fields; the key is chosen by the application to state the tuple's
    purpose; the data field holds either a simple interpreted value or
    uninterpreted bits.  Type tags are open: applications may invent new
    ones as inter-application conventions. *)

type t

val make : ttype:string -> key:Value.t -> data:Value.t -> t
(** Raises [Invalid_argument] on an empty type tag. *)

val ttype : t -> string
val key : t -> Value.t
val data : t -> Value.t

(** {1 Well-known type tags} *)

val type_string : string
val type_text : string
val type_pointer : string
val type_keyword : string
val type_number : string

(** {1 Convenience constructors} *)

val string_ : key:string -> string -> t
(** [(String, key, value)]. *)

val text : key:string -> string -> t
(** [(Text, key, <blob>)] — uninterpreted body. *)

val pointer : key:string -> Oid.t -> t
(** [(Pointer, key, ^oid)]. *)

val keyword : string -> t
(** [(Keyword, word, 1)] — presence-style keyword tuple. *)

val number : key:string -> int -> t
(** [(Number, key, n)]. *)

val is_pointer : t -> bool

val pointer_target : t -> Oid.t option
(** The referenced object when this is a pointer tuple. *)

val equal : t -> t -> bool

val byte_size : t -> int
(** Approximate serialized size, for the ship-data baseline. *)

val pp : Format.formatter -> t -> unit
