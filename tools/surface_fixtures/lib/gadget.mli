(* Fixture interface for tools/check_surface.py --self-test.  The files
   under ../bin use each value below one way, or (the last three) do not
   call it; EXPECTED lists those three. *)

type t

val qualified : t -> int
val aliased : t -> int
val opened : t -> int
val local_open : t -> int
val equal : t -> t -> bool
val hash : t -> int

module Part : sig
  val deep : t -> int
  val shallow : t -> int
end

val compare : t -> t -> int
val length : t -> int
