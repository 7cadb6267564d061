(** Length-prefixed framing for stream transports (4-byte big-endian
    length + payload). *)

val max_frame_size : int

exception Frame_error of string

val header_size : int
(** Bytes of the length header: 4. *)

val write_header : Bytes.t -> int -> int -> unit
(** [write_header buf off len] writes the header of a [len]-byte
    payload into [buf] at [off].  Raises [Frame_error], writing
    nothing, when [len] exceeds {!max_frame_size}.  {!frame} writes its
    header through it, and so does a transport that frames straight
    into its send buffer, so the rule is written once. *)

val frame : string -> string
(** Prefix a payload with its length header. Raises [Frame_error] when
    the payload exceeds {!max_frame_size}. *)

(** Incremental frame reassembly from arbitrary stream chunks. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit

  val feed_bytes : t -> Bytes.t -> int -> int -> unit
  (** [feed_bytes t buf off len] feeds that slice of [buf] (copied in). *)

  val next : t -> string option
  (** Next complete frame payload, if buffered. Raises [Frame_error] on
      an oversized header. *)

  val drain : t -> string list
  (** All currently complete frames. *)

  val buffered_bytes : t -> int
end
