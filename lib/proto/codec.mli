(** Binary codec for the wire protocol.

    Unsigned LEB128 varints for lengths, zigzag varints for signed
    integers, IEEE-754 bits for floats, one-byte variant tags,
    length-prefixed strings.  Platform-independent; no [Marshal].

    Every work frame carries its query's whole body, and consecutive
    frames in a process mostly carry the same one, so the codec keeps
    the last body it handled in each direction.  {!write_program} keeps
    the last program it encoded with its bytes, keyed on the
    [Program.t] by physical equality, and copies those bytes when the
    same program comes again.  The decoder keeps the last bytes it
    parsed as a body with their program, keyed on the bytes: a body
    whose bytes at the reader's position equal them is skipped, not
    parsed.  A hit is exact, because the body encoding is deterministic
    and self-delimiting: bytes that begin with a decoded body's bytes
    parse to that program and consume exactly those bytes.  Each memo
    is one immutable pair behind an [Atomic.t], process-wide and shared
    by every site's thread (and any domain) without a lock; each holds
    at most one body.  Wire bytes and decoded messages are the same
    with or without a hit. *)

exception Decode_error of string

type rel = { src : int; seq : int; ack : int }
(** Reliable-delivery envelope: sending site, per-destination sequence
    number ([0] = unsequenced, e.g. a standalone [Link_ack]) and the
    cumulative ack piggybacked for the reverse direction (see
    {!Reliable}). *)

val encode : ?span:int -> ?rel:rel -> Message.t -> string
(** With [?span] absent, [None], or [Some 0], and [?rel] absent, the
    encoding is byte-identical to the plain wire format.  A non-zero
    span id is carried in an envelope (tag 127 + varint) so a receiving
    tracer can parent its spans on the sender's; reliability metadata
    rides in an outer envelope (tag 126 + three varints). *)

val encode_to : Buffer.t -> ?span:int -> ?rel:rel -> Message.t -> unit
(** [encode_to buf] appends exactly the bytes {!encode} returns to
    [buf]; {!encode} is [encode_to] on a fresh buffer.  A transport
    that keeps one buffer encodes a frame without allocating its
    payload. *)

val decode : string -> (Message.t, string) result
(** Rejects trailing bytes, an element count larger than the bytes
    left in the payload before allocating for it, and a credit atom
    above {!Hf_termination.Credit.exponent_cap}.  Accepts (and
    discards) traced and reliability envelopes. *)

val decode_enveloped : string -> (Message.t * int * rel option, string) result
(** Like {!decode} but also returns the carried span id (0 when the
    message was sent untraced) and the reliability envelope when
    present. *)

val decode_exn : string -> Message.t
(** Raises [Decode_error]. *)

val encoded_size : Message.t -> int
(** Size of the encoded form in bytes (the paper's ~40-byte query
    messages; checked in the benchmarks). *)

(** {1 Sub-codecs} exposed for property tests. *)

type writer = Buffer.t
type reader

val reader : string -> reader

val remaining : reader -> string
(** Bytes not yet consumed. *)

val with_reader : string -> (reader -> 'a) -> 'a
(** Decode a whole payload; raises [Decode_error] on trailing bytes. *)

val write_varint : writer -> int -> unit
(** Unsigned LEB128. Raises [Invalid_argument] on negatives. *)

val read_varint : reader -> int

val write_value : writer -> Hf_data.Value.t -> unit
val read_value : reader -> Hf_data.Value.t

val write_oid : writer -> Hf_data.Oid.t -> unit

val write_hobject : writer -> Hf_data.Hobject.t -> unit
val read_hobject : reader -> Hf_data.Hobject.t

val write_program : writer -> Hf_query.Program.t -> unit
(** Appends a program body: the last program encoded in the process
    has its bytes copied from the memo described above. *)
