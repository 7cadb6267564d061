(** Object identifiers with R*-style naming (paper, Section 4).

    An object's name is the pair (birth site, serial number), and it
    is also the object's identity.  Objects never move: the birth site
    is where the object lives, and every engine routes a dereference
    there.

    {2 Equality semantics}

    Two names denote the same object iff their (birth site, serial)
    pairs agree.  Always use [equal]/[compare]/[hash] (or [Table],
    [Set], [Map] below), never the polymorphic operators: the
    representation is this module's business, and types that hold
    names ([Set.t] and [Map.t] trees, [Value.t] with its floats) have
    structural layouts that differ from their equality.  hfcheck rule R1
    (poly-compare) rejects polymorphic equality, ordering and hashing
    at any type containing [t]. *)

type t

val make : birth_site:int -> serial:int -> t
(** Fresh name born at [birth_site].  Raises [Invalid_argument] on
    negative components. *)

val birth_site : t -> int

val serial : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Table : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
