(** Minimal JSON tree and serializer (metrics dumps, trace files). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities serialize as [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string
