(* Length-prefixed framing for stream transports: a 4-byte big-endian
   length followed by the payload.  [Decoder] is an incremental
   reassembler fed arbitrary chunks (as a TCP receive loop would produce
   them) and yielding complete frames. *)

let max_frame_size = 16 * 1024 * 1024

exception Frame_error of string

let header_size = 4

(* The one writer of the framing rule, for [frame] and for a transport
   that frames straight into its own send buffer. *)
let write_header buf off len =
  if len > max_frame_size then raise (Frame_error "frame too large");
  Bytes.set_uint8 buf off ((len lsr 24) land 0xff);
  Bytes.set_uint8 buf (off + 1) ((len lsr 16) land 0xff);
  Bytes.set_uint8 buf (off + 2) ((len lsr 8) land 0xff);
  Bytes.set_uint8 buf (off + 3) (len land 0xff)

let frame payload =
  let len = String.length payload in
  let framed = Bytes.create (header_size + len) in
  write_header framed 0 len;
  Bytes.blit_string payload 0 framed header_size len;
  Bytes.unsafe_to_string framed

module Decoder = struct
  (* Bytes [start, stop) of [buf] are buffered.  A frame is cut from the
     front by advancing [start], so draining k frames from one chunk
     copies each payload once instead of re-copying the remainder k
     times; live bytes move to the front only when a feed does not fit
     behind them. *)
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let initial_size = 4096

  let create () = { buf = Bytes.create initial_size; start = 0; stop = 0 }

  let feed_bytes t chunk off len =
    if t.stop + len > Bytes.length t.buf then begin
      let live = t.stop - t.start in
      let size = ref (Bytes.length t.buf) in
      while live + len > !size do
        size := 2 * !size
      done;
      let buf = if !size > Bytes.length t.buf then Bytes.create !size else t.buf in
      Bytes.blit t.buf t.start buf 0 live;
      t.buf <- buf;
      t.start <- 0;
      t.stop <- live
    end;
    Bytes.blit chunk off t.buf t.stop len;
    t.stop <- t.stop + len

  let feed t chunk = feed_bytes t (Bytes.unsafe_of_string chunk) 0 (String.length chunk)

  let header_length t =
    if t.stop - t.start < 4 then None
    else begin
      let byte i = Bytes.get_uint8 t.buf (t.start + i) in
      let len = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
      if len > max_frame_size then raise (Frame_error "incoming frame too large");
      Some len
    end

  let next t =
    match header_length t with
    | None -> None
    | Some len ->
      if t.stop - t.start < 4 + len then None
      else begin
        let payload = Bytes.sub_string t.buf (t.start + 4) len in
        t.start <- t.start + 4 + len;
        if t.start = t.stop then begin
          (* empty: rewind, and drop a buffer a large frame grew *)
          t.start <- 0;
          t.stop <- 0;
          if Bytes.length t.buf > 16 * initial_size then t.buf <- Bytes.create initial_size
        end;
        Some payload
      end

  let rec drain t =
    match next t with
    | None -> []
    | Some payload -> payload :: drain t

  let buffered_bytes t = t.stop - t.start
end
