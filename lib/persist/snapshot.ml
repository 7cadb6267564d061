(* Store snapshots: save a site's object store to a file and restore it.

   The paper's prototype was a main-memory database; a production
   deployment still needs its sites to survive restarts.  Snapshots use
   the same binary conventions as the wire codec (no Marshal, no host
   dependence):

     magic "HFSNAP2\n"
     varint  site number
     varint  next serial (allocation high-water mark)
     varint  object count
     per object: framed [Codec.write_hobject] payload

   Framing each object individually keeps a truncated file detectable
   at the exact object where it fails.  "HFSNAP1" files carried a third
   varint per oid (a location hint); their magic no longer matches, so
   they are refused rather than misread. *)

let magic = "HFSNAP2\n"

exception Corrupt of string

let fail fmt = Fmt.kstr (fun message -> raise (Corrupt message)) fmt

let encode store =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Hf_proto.Codec.write_varint buf (Hf_data.Store.site store);
  Hf_proto.Codec.write_varint buf (Hf_data.Store.next_serial store);
  Hf_proto.Codec.write_varint buf (Hf_data.Store.cardinal store);
  (* stable order makes snapshots byte-for-byte reproducible *)
  let objects =
    List.sort
      (fun a b -> Hf_data.Oid.compare (Hf_data.Hobject.oid a) (Hf_data.Hobject.oid b))
      (Hf_data.Store.fold store (fun obj acc -> obj :: acc) [])
  in
  List.iter
    (fun obj ->
      let payload = Buffer.create 256 in
      Hf_proto.Codec.write_hobject payload obj;
      Buffer.add_string buf (Hf_proto.Frame.frame (Buffer.contents payload)))
    objects;
  Buffer.contents buf

let decode data =
  let n = String.length data in
  if n < String.length magic || String.sub data 0 (String.length magic) <> magic then
    fail "bad magic: not a HyperFile snapshot";
  let body = String.sub data (String.length magic) (n - String.length magic) in
  let r = Hf_proto.Codec.reader body in
  let site, next_serial, count =
    try
      let site = Hf_proto.Codec.read_varint r in
      let next_serial = Hf_proto.Codec.read_varint r in
      let count = Hf_proto.Codec.read_varint r in
      (site, next_serial, count)
    with Hf_proto.Codec.Decode_error message -> fail "corrupt header: %s" message
  in
  let store = Hf_data.Store.create ~site in
  let decoder = Hf_proto.Frame.Decoder.create () in
  Hf_proto.Frame.Decoder.feed decoder (Hf_proto.Codec.remaining r);
  for index = 0 to count - 1 do
    match Hf_proto.Frame.Decoder.next decoder with
    | None -> fail "truncated snapshot: object %d of %d missing" (index + 1) count
    | Some payload -> (
        match Hf_proto.Codec.with_reader payload Hf_proto.Codec.read_hobject with
        | obj -> (
            match Hf_data.Store.insert store obj with
            | () -> ()
            | exception Invalid_argument _ -> fail "duplicate object %d in snapshot" index)
        | exception Hf_proto.Codec.Decode_error message ->
          fail "corrupt object %d: %s" index message)
  done;
  if Hf_proto.Frame.Decoder.buffered_bytes decoder > 0 then
    fail "trailing bytes after the last object";
  Hf_data.Store.advance_serial store next_serial;
  store

let save store ~path =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (encode store))

let load ~path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  decode data
