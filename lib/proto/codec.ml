(* Hand-rolled binary codec for the wire protocol.

   Layout conventions: unsigned LEB128 varints for lengths and small
   non-negative numbers, zigzag varints for possibly-negative integers,
   IEEE-754 bits for floats, one-byte tags for variants, length-prefixed
   raw bytes for strings.  No host-order dependence, no Marshal.

   A shipped frame should allocate little beyond the message it
   carries.  Program bodies, which every work frame repeats, are reused
   through two memos (the last body encoded, keyed on the program by
   physical equality; the last decoded, keyed on its bytes), each one
   immutable pair behind a process-wide [Atomic.t] holding at most one
   body; why a hit is exact is told where they are defined.  Readers
   and writers loop at top level rather than through closures, and
   [encode_to] appends a frame to a buffer the caller keeps. *)

exception Decode_error of string

let fail fmt = Fmt.kstr (fun message -> raise (Decode_error message)) fmt

(* --- Writer --- *)

type writer = Buffer.t

let write_u8 buf n =
  assert (n >= 0 && n < 256);
  Buffer.add_char buf (Char.chr n)

(* LEB128 over the int's 63-bit pattern treated as unsigned; [lsr] is a
   logical shift, so negative patterns (from zigzag) terminate too. *)
let rec write_uint buf n =
  if n land lnot 0x7f = 0 then write_u8 buf n
  else begin
    write_u8 buf (0x80 lor (n land 0x7f));
    write_uint buf (n lsr 7)
  end

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  write_uint buf n

(* Standard zigzag over OCaml's 63-bit ints: works for the whole range,
   including min_int. *)
let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag n = (n lsr 1) lxor (-(n land 1))

let write_int buf n = write_uint buf (zigzag n)

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let write_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    write_u8 buf (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL))
  done

(* Top-level loops here and below, where [List.iter (write_item buf)]
   would allocate a closure per list. *)
let rec write_items buf write_item = function
  | [] -> ()
  | item :: items ->
    write_item buf item;
    write_items buf write_item items

let write_list buf write_item items =
  write_varint buf (List.length items);
  write_items buf write_item items

(* --- Reader --- *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let read_u8 r =
  if r.pos >= String.length r.data then fail "truncated input at offset %d" r.pos;
  let byte = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  byte

(* A top-level loop, not a local [go] closing over [r]: a varint is
   read without allocating. *)
let rec read_uint_from r shift acc =
  if shift > 63 then fail "varint overflow at offset %d" r.pos;
  let byte = read_u8 r in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else read_uint_from r (shift + 7) acc

let read_uint r = read_uint_from r 0 0

let read_varint r =
  let n = read_uint r in
  if n < 0 then fail "negative length at offset %d" r.pos;
  n

let read_int r = unzigzag (read_uint r)

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then fail "truncated string at offset %d" r.pos;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_u8 r)) (8 * i))
  done;
  Int64.float_of_bits !bits

(* An element count read off the wire.  Every element takes at least
   one byte, so a count past the bytes left is garbage: it fails here,
   before anything is allocated for it. *)
let read_count r =
  let n = read_varint r in
  let left = String.length r.data - r.pos in
  if n > left then fail "count %d exceeds the %d byte(s) left at offset %d" n left r.pos;
  n

let[@tail_mod_cons] rec read_items r read_item n =
  if n = 0 then []
  else
    let item = read_item r in
    item :: read_items r read_item (n - 1)

let read_list r read_item = read_items r read_item (read_count r)

let at_end r = r.pos = String.length r.data

let remaining r = String.sub r.data r.pos (String.length r.data - r.pos)

(* Run a decoder over a whole payload, rejecting trailing bytes. *)
let with_reader data f =
  let r = reader data in
  let value = f r in
  if not (at_end r) then fail "trailing bytes after payload (offset %d)" r.pos;
  value

(* --- Oids ---

   An oid is its identity, (birth site, serial): two varints. *)

let write_oid buf oid =
  write_varint buf (Hf_data.Oid.birth_site oid);
  write_varint buf (Hf_data.Oid.serial oid)

let read_oid r =
  let birth_site = read_varint r in
  let serial = read_varint r in
  Hf_data.Oid.make ~birth_site ~serial

(* --- Values --- *)

let write_value buf value =
  match (value : Hf_data.Value.t) with
  | Str s ->
    write_u8 buf 0;
    write_string buf s
  | Num n ->
    write_u8 buf 1;
    write_int buf n
  | Real f ->
    write_u8 buf 2;
    write_float buf f
  | Ptr oid ->
    write_u8 buf 3;
    write_oid buf oid
  | Blob b ->
    write_u8 buf 4;
    write_string buf b

let read_value r : Hf_data.Value.t =
  match read_u8 r with
  | 0 -> Str (read_string r)
  | 1 -> Num (read_int r)
  | 2 -> Real (read_float r)
  | 3 -> Ptr (read_oid r)
  | 4 -> Blob (read_string r)
  | tag -> fail "unknown value tag %d" tag

(* --- Tuples and objects (used by the persistence layer and any future
   object-shipping extension) --- *)

let write_tuple buf tuple =
  write_string buf (Hf_data.Tuple.ttype tuple);
  write_value buf (Hf_data.Tuple.key tuple);
  write_value buf (Hf_data.Tuple.data tuple)

let read_tuple r =
  let ttype = read_string r in
  if String.length ttype = 0 then fail "empty tuple type tag";
  let key = read_value r in
  let data = read_value r in
  Hf_data.Tuple.make ~ttype ~key ~data

let write_hobject buf obj =
  write_oid buf (Hf_data.Hobject.oid obj);
  write_list buf write_tuple (Hf_data.Hobject.tuples obj)

let read_hobject r =
  let oid = read_oid r in
  let tuples = read_list r read_tuple in
  Hf_data.Hobject.of_tuples oid tuples

(* --- Patterns --- *)

let write_pattern buf pattern =
  match (pattern : Hf_query.Pattern.t) with
  | Any -> write_u8 buf 0
  | Exact v ->
    write_u8 buf 1;
    write_value buf v
  | Glob g ->
    write_u8 buf 2;
    write_string buf g
  | Range (lo, hi) ->
    write_u8 buf 3;
    write_int buf lo;
    write_int buf hi
  | Bind var ->
    write_u8 buf 4;
    write_string buf var
  | Use var ->
    write_u8 buf 5;
    write_string buf var

let read_pattern r : Hf_query.Pattern.t =
  match read_u8 r with
  | 0 -> Any
  | 1 -> Exact (read_value r)
  | 2 -> Glob (read_string r)
  | 3 ->
    let lo = read_int r in
    let hi = read_int r in
    if lo > hi then fail "empty range %d..%d" lo hi;
    Range (lo, hi)
  | 4 -> Bind (read_string r)
  | 5 -> Use (read_string r)
  | tag -> fail "unknown pattern tag %d" tag

(* --- Filters and programs --- *)

let write_filter buf filter =
  match (filter : Hf_query.Filter.t) with
  | Select { ttype; key; data } ->
    write_u8 buf 0;
    write_pattern buf ttype;
    write_pattern buf key;
    write_pattern buf data
  | Deref { var; mode } ->
    write_u8 buf 1;
    write_u8 buf (match mode with Hf_query.Filter.Replace -> 0 | Hf_query.Filter.Keep_parent -> 1);
    write_string buf var
  | Iter { body_start; count } ->
    write_u8 buf 2;
    write_varint buf body_start;
    (match count with
     | Hf_query.Filter.Star -> write_u8 buf 0
     | Hf_query.Filter.Finite k ->
       write_u8 buf 1;
       write_varint buf k)
  | Retrieve { ttype; key; target } ->
    write_u8 buf 3;
    write_pattern buf ttype;
    write_pattern buf key;
    write_string buf target

let read_filter r : Hf_query.Filter.t =
  match read_u8 r with
  | 0 ->
    let ttype = read_pattern r in
    let key = read_pattern r in
    let data = read_pattern r in
    Select { ttype; key; data }
  | 1 ->
    let mode =
      match read_u8 r with
      | 0 -> Hf_query.Filter.Replace
      | 1 -> Hf_query.Filter.Keep_parent
      | tag -> fail "unknown deref mode %d" tag
    in
    let var = read_string r in
    if String.length var = 0 then fail "empty deref variable";
    Deref { var; mode }
  | 2 ->
    let body_start = read_varint r in
    (match read_u8 r with
     | 0 -> Iter { body_start; count = Hf_query.Filter.Star }
     | 1 ->
       let k = read_varint r in
       if k < 1 then fail "iteration count %d < 1" k;
       Iter { body_start; count = Hf_query.Filter.Finite k }
     | tag -> fail "unknown iteration count tag %d" tag)
  | 3 ->
    let ttype = read_pattern r in
    let key = read_pattern r in
    let target = read_string r in
    if String.length target = 0 then fail "empty retrieve target";
    Retrieve { ttype; key; target }
  | tag -> fail "unknown filter tag %d" tag

let write_filters buf program = write_list buf write_filter (Hf_query.Program.filters program)

let parse_program r =
  let filters = read_list r read_filter in
  match Hf_query.Program.of_filters filters with
  | program -> program
  | exception Hf_query.Program.Ill_formed message -> fail "ill-formed program: %s" message

(* --- Program bodies, reused ---

   Query shipping sends the whole body with every work frame, and
   consecutive frames in a process mostly carry the same one.  So each
   direction keeps the last body it handled: [last_written] the last
   program encoded, matched by physical equality on the immutable
   [Program.t], and [last_read] the last bytes decoded, matched by
   comparing the bytes at the reader's position.  A hit is exact: the
   body encoding is deterministic, so one program always has the same
   bytes; and it is self-delimiting, so bytes that begin with a decoded
   body's bytes parse to that program and consume exactly those bytes
   (every count and string length inside them fits those bytes, so the
   decoder's checks against the payload's end pass there too).  Each
   memo is one immutable pair behind an [Atomic.t], shared by every
   thread and domain of the process without a lock, and holds at most
   one body. *)

type body = { program : Hf_query.Program.t; bytes : string }

let empty_body =
  let program = Hf_query.Program.of_filters [] in
  let buf = Buffer.create 1 in
  write_filters buf program;
  { program; bytes = Buffer.contents buf }

let last_written = Atomic.make empty_body

let last_read = Atomic.make empty_body

let write_program buf program =
  let last = Atomic.get last_written in
  if last.program == program then Buffer.add_string buf last.bytes
  else begin
    let start = Buffer.length buf in
    write_filters buf program;
    Atomic.set last_written { program; bytes = Buffer.sub buf start (Buffer.length buf - start) }
  end

(* [key] lies in [data] at [pos], from its [i]th byte on. *)
let rec bytes_at data pos key i =
  i = String.length key
  || (Char.equal (String.unsafe_get data (pos + i)) (String.unsafe_get key i)
     && bytes_at data pos key (i + 1))

let read_program r =
  let last = Atomic.get last_read in
  let n = String.length last.bytes in
  if r.pos + n <= String.length r.data && bytes_at r.data r.pos last.bytes 0 then begin
    r.pos <- r.pos + n;
    last.program
  end
  else begin
    let start = r.pos in
    let program = parse_program r in
    Atomic.set last_read { program; bytes = String.sub r.data start (r.pos - start) };
    program
  end

(* --- Messages --- *)

let write_query_id buf { Message.originator; serial } =
  write_varint buf originator;
  write_varint buf serial

let read_query_id r =
  let originator = read_varint r in
  let serial = read_varint r in
  { Message.originator; serial }

let write_credit buf credit = write_list buf write_varint credit

(* A credit atom past [Credit.exponent_cap] is garbage, refused here as
   counts are: a site must never hold an atom it cannot split or
   encode. *)
let read_atom r =
  let k = read_varint r in
  if k > Hf_termination.Credit.exponent_cap then
    fail "credit atom 2^-%d above the cap at offset %d" k r.pos;
  k

let read_credit r = read_list r read_atom

let write_iters buf iters =
  write_varint buf (Array.length iters);
  for i = 0 to Array.length iters - 1 do
    write_varint buf iters.(i)
  done

let read_iters r =
  let iters = Array.make (read_count r) 0 in
  for i = 0 to Array.length iters - 1 do
    iters.(i) <- read_varint r
  done;
  iters

let write_binding buf (target, values) =
  write_string buf target;
  write_list buf write_value values

let read_binding r =
  let target = read_string r in
  let values = read_list r read_value in
  (target, values)

let write_batch_item buf item =
  write_oid buf (Hf_engine.Work_item.oid item);
  write_varint buf (Hf_engine.Work_item.start item);
  write_iters buf (Hf_engine.Work_item.iters item)

let read_batch_item r =
  let oid = read_oid r in
  let start = read_varint r in
  let iters = read_iters r in
  Hf_engine.Work_item.make ~oid ~start ~iters

let write_batch_group buf { Message.query; body; items; credit } =
  write_query_id buf query;
  write_program buf body;
  write_list buf write_batch_item items;
  write_credit buf credit

let read_batch_group r =
  let query = read_query_id r in
  let body = read_program r in
  let items = read_list r read_batch_item in
  if items = [] then fail "empty work-batch group";
  let credit = read_credit r in
  { Message.query; body; items; credit }

let write_cache_answer buf ({ oid; start; iters; passed } : Message.cache_answer) =
  write_oid buf oid;
  write_varint buf start;
  write_iters buf iters;
  write_u8 buf (if passed then 1 else 0)

let read_cache_answer r : Message.cache_answer =
  let oid = read_oid r in
  let start = read_varint r in
  let iters = read_iters r in
  let passed =
    match read_u8 r with
    | 0 -> false
    | 1 -> true
    | tag -> fail "unknown cache-answer verdict %d" tag
  in
  { oid; start; iters; passed }

let write_stat_value buf (value : Message.stat_value) =
  match value with
  | Stat_counter n ->
    write_u8 buf 0;
    write_int buf n
  | Stat_gauge v ->
    write_u8 buf 1;
    write_float buf v
  | Stat_histogram { count; sum; vmin; vmax; buckets } ->
    write_u8 buf 2;
    write_varint buf count;
    write_float buf sum;
    write_float buf vmin;
    write_float buf vmax;
    write_list buf
      (fun buf (i, n) ->
        write_varint buf i;
        write_varint buf n)
      buckets

let read_stat_value r : Message.stat_value =
  match read_u8 r with
  | 0 -> Stat_counter (read_int r)
  | 1 -> Stat_gauge (read_float r)
  | 2 ->
    let count = read_varint r in
    let sum = read_float r in
    let vmin = read_float r in
    let vmax = read_float r in
    let buckets =
      read_list r (fun r ->
          let i = read_varint r in
          let n = read_varint r in
          (i, n))
    in
    Stat_histogram { count; sum; vmin; vmax; buckets }
  | tag -> fail "unknown stat value tag %d" tag

let write_stat buf ({ name; value } : Message.stat) =
  write_string buf name;
  write_stat_value buf value

let read_stat r : Message.stat =
  let name = read_string r in
  if String.length name = 0 then fail "empty stat name";
  let value = read_stat_value r in
  { name; value }

let write_spawn buf (oid, start) =
  write_oid buf oid;
  write_varint buf start

let read_spawn r =
  let oid = read_oid r in
  let start = read_varint r in
  (oid, start)

let write_gather_node buf
    ({ oid; start; passed; visited; spawns; bindings } : Hf_engine.Scatter.node) =
  write_oid buf oid;
  write_varint buf start;
  write_u8 buf (if passed then 1 else 0);
  write_list buf write_varint visited;
  write_list buf write_spawn spawns;
  write_list buf write_binding bindings

let read_gather_node r : Hf_engine.Scatter.node =
  let oid = read_oid r in
  let start = read_varint r in
  let passed =
    match read_u8 r with
    | 0 -> false
    | 1 -> true
    | tag -> fail "unknown gather-node passed tag %d" tag
  in
  let visited = read_list r read_varint in
  let spawns = read_list r read_spawn in
  let bindings = read_list r read_binding in
  { oid; start; passed; visited; spawns; bindings }

let write_message buf message =
  match (message : Message.t) with
  | Deref_request { query; body; oid; start; iters; credit } ->
    write_u8 buf 0;
    write_query_id buf query;
    write_program buf body;
    write_oid buf oid;
    write_varint buf start;
    write_iters buf iters;
    write_credit buf credit
  | Work_batch groups ->
    if groups = [] then invalid_arg "Codec.write_message: empty Work_batch";
    write_u8 buf 3;
    write_list buf write_batch_group groups
  | Result { query; payload; bindings; credit } ->
    write_u8 buf 1;
    write_query_id buf query;
    (match payload with
     | Message.Items items ->
       write_u8 buf 0;
       write_list buf write_oid items
     | Message.Count n ->
       write_u8 buf 1;
       write_varint buf n);
    write_list buf write_binding bindings;
    write_credit buf credit
  | Credit_return { query; credit } ->
    write_u8 buf 2;
    write_query_id buf query;
    write_credit buf credit
  | Link_ack -> write_u8 buf 4
  | Site_unreachable { query; dead } ->
    write_u8 buf 5;
    write_query_id buf query;
    write_varint buf dead
  | Cache_validate { query; src } ->
    write_u8 buf 6;
    write_query_id buf query;
    write_varint buf src
  | Cache_version { query; site; version; epoch; summary } ->
    write_u8 buf 7;
    write_query_id buf query;
    write_varint buf site;
    write_varint buf version;
    write_varint buf epoch;
    (match summary with
     | None -> write_u8 buf 0
     | Some s ->
       write_u8 buf 1;
       write_string buf s)
  | Cache_answers { query; src; version; answers } ->
    if answers = [] then invalid_arg "Codec.write_message: empty Cache_answers";
    write_u8 buf 8;
    write_query_id buf query;
    write_varint buf src;
    write_varint buf version;
    write_list buf write_cache_answer answers
  | Query_done { query; src } ->
    write_u8 buf 9;
    write_query_id buf query;
    write_varint buf src
  | Stats_pull { src; token } ->
    write_u8 buf 10;
    write_varint buf src;
    write_varint buf token
  | Stats_report { src; token; stats } ->
    write_u8 buf 11;
    write_varint buf src;
    write_varint buf token;
    write_list buf write_stat stats
  | Scatter { query; body; roots; credit } ->
    write_u8 buf 12;
    write_query_id buf query;
    write_program buf body;
    write_list buf write_oid roots;
    write_credit buf credit
  | Gather_result { query; src; nodes; credit } ->
    write_u8 buf 13;
    write_query_id buf query;
    write_varint buf src;
    write_list buf write_gather_node nodes;
    write_credit buf credit

let read_message r : Message.t =
  match read_u8 r with
  | 0 ->
    let query = read_query_id r in
    let body = read_program r in
    let oid = read_oid r in
    let start = read_varint r in
    let iters = read_iters r in
    let credit = read_credit r in
    Deref_request { query; body; oid; start; iters; credit }
  | 1 ->
    let query = read_query_id r in
    let payload =
      match read_u8 r with
      | 0 -> Message.Items (read_list r read_oid)
      | 1 -> Message.Count (read_varint r)
      | tag -> fail "unknown result payload tag %d" tag
    in
    let bindings = read_list r read_binding in
    let credit = read_credit r in
    Result { query; payload; bindings; credit }
  | 2 ->
    let query = read_query_id r in
    let credit = read_credit r in
    Credit_return { query; credit }
  | 3 ->
    let groups = read_list r read_batch_group in
    if groups = [] then fail "empty work batch";
    Work_batch groups
  | 4 -> Link_ack
  | 5 ->
    let query = read_query_id r in
    let dead = read_varint r in
    Site_unreachable { query; dead }
  | 6 ->
    let query = read_query_id r in
    let src = read_varint r in
    Cache_validate { query; src }
  | 7 ->
    let query = read_query_id r in
    let site = read_varint r in
    let version = read_varint r in
    let epoch = read_varint r in
    let summary =
      match read_u8 r with
      | 0 -> None
      | 1 -> Some (read_string r)
      | tag -> fail "unknown summary presence tag %d" tag
    in
    Cache_version { query; site; version; epoch; summary }
  | 8 ->
    let query = read_query_id r in
    let src = read_varint r in
    let version = read_varint r in
    let answers = read_list r read_cache_answer in
    if answers = [] then fail "empty cache-answers";
    Cache_answers { query; src; version; answers }
  | 9 ->
    let query = read_query_id r in
    let src = read_varint r in
    Query_done { query; src }
  | 10 ->
    let src = read_varint r in
    let token = read_varint r in
    Stats_pull { src; token }
  | 11 ->
    let src = read_varint r in
    let token = read_varint r in
    let stats = read_list r read_stat in
    Stats_report { src; token; stats }
  | 12 ->
    let query = read_query_id r in
    let body = read_program r in
    let roots = read_list r read_oid in
    let credit = read_credit r in
    Scatter { query; body; roots; credit }
  | 13 ->
    let query = read_query_id r in
    let src = read_varint r in
    let nodes = read_list r read_gather_node in
    let credit = read_credit r in
    Gather_result { query; src; nodes; credit }
  | tag -> fail "unknown message tag %d" tag

(* A traced message is wrapped in an envelope: tag 127 (unused by any
   message variant), the originating span id as a varint, then the
   message encoded exactly as before.  Untraced encoding never emits
   the envelope, so wire bytes with tracing off are byte-for-byte the
   PR 1 format (and the ~40-byte query-message accounting still
   holds).

   A second, outer envelope (tag 126) carries reliable-delivery
   metadata: sender site, per-destination sequence number (0 =
   unsequenced) and the cumulative ack the sender piggybacks for the
   reverse direction.  Sites running without the reliability layer
   never emit it, so their wire bytes are unchanged too. *)
let traced_tag = 127

let rel_tag = 126

type rel = { src : int; seq : int; ack : int }

let encode_to buf ?span ?rel message =
  (match rel with
   | Some { src; seq; ack } ->
     write_u8 buf rel_tag;
     write_varint buf src;
     write_varint buf seq;
     write_varint buf ack
   | None -> ());
  (match span with
   | Some s when s <> 0 ->
     write_u8 buf traced_tag;
     write_varint buf s
   | _ -> ());
  write_message buf message

let encode ?span ?rel message =
  let buf = Buffer.create 64 in
  encode_to buf ?span ?rel message;
  Buffer.contents buf

let next_is r tag = (not (at_end r)) && Char.code r.data.[r.pos] = tag

(* Decode a whole payload: the envelopes, if present, then the message,
   handed to [result] with the span id (0 untraced) and the
   reliability envelope, so each entry point builds its result once. *)
let decode_with data result =
  match
    let r = reader data in
    let rel =
      if next_is r rel_tag then begin
        r.pos <- r.pos + 1;
        let src = read_varint r in
        let seq = read_varint r in
        let ack = read_varint r in
        Some { src; seq; ack }
      end
      else None
    in
    let span =
      if next_is r traced_tag then begin
        r.pos <- r.pos + 1;
        read_varint r
      end
      else 0
    in
    let message = read_message r in
    if not (at_end r) then fail "trailing bytes after message (offset %d)" r.pos;
    result message span rel
  with
  | decoded -> Ok decoded
  | exception Decode_error msg -> Error msg

let decode_enveloped data = decode_with data (fun message span rel -> (message, span, rel))

let decode data = decode_with data (fun message _ _ -> message)

let decode_exn data =
  match decode data with Ok message -> message | Error msg -> raise (Decode_error msg)

let encoded_size message = String.length (encode message)
