(* Tests for the wire protocol: codec round-trips (including randomized
   messages), decode errors on corrupt input, framing over chunked
   streams, and the paper's ~40-byte query-message claim. *)

module Message = Hf_proto.Message
module Codec = Hf_proto.Codec
module Frame = Hf_proto.Frame
module Batch = Hf_proto.Batch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let oid ?(site = 0) serial = Hf_data.Oid.make ~birth_site:site ~serial

let flagship_program =
  Hf_query.Parser.parse_program
    "[ (Pointer, \"Reference\", ?X) ^^X ]* (Keyword, \"Distributed\", ?)"

let sample_deref =
  Message.Deref_request
    {
      query = { Message.originator = 2; serial = 17 };
      body = flagship_program;
      oid = oid ~site:1 42;
      start = 2;
      iters = [| 5 |];
      credit = [ 3; 7 ];
    }

let roundtrip message =
  match Codec.decode (Codec.encode message) with
  | Ok decoded -> Message.equal message decoded
  | Error _ -> false

let test_roundtrip_deref () = check_bool "deref" true (roundtrip sample_deref)

let test_roundtrip_result_items () =
  let message =
    Message.Result
      {
        query = { Message.originator = 0; serial = 1 };
        payload = Message.Items [ oid 1; oid ~site:4 9 ];
        bindings =
          [ ("title", [ Hf_data.Value.str "First"; Hf_data.Value.blob "\x00\xffbits" ]);
            ("size", [ Hf_data.Value.num (-42); Hf_data.Value.real 3.25 ]);
          ];
        credit = [ 1 ];
      }
  in
  check_bool "result/items" true (roundtrip message)

let test_roundtrip_result_count () =
  let message =
    Message.Result
      {
        query = { Message.originator = 3; serial = 0 };
        payload = Message.Count 128;
        bindings = [];
        credit = [];
      }
  in
  check_bool "result/count" true (roundtrip message)

let test_roundtrip_credit_return () =
  let message =
    Message.Credit_return { query = { Message.originator = 1; serial = 2 }; credit = [ 0 ] }
  in
  check_bool "credit return" true (roundtrip message)

let batch_item ?(start = 0) ?(iters = [||]) serial =
  Hf_engine.Work_item.make ~oid:(oid serial) ~start ~iters

let sample_batch =
  Message.Work_batch
    [
      { Message.query = { Message.originator = 0; serial = 3 };
        body = flagship_program;
        items = [ batch_item 1; batch_item ~start:2 ~iters:[| 4; 1 |] 2; batch_item 9 ];
        credit = [ 5 ];
      };
      { Message.query = { Message.originator = 1; serial = 8 };
        body = Hf_query.Parser.parse_program "(Keyword, \"x\", ?)";
        items = [ batch_item 7 ];
        credit = [ 2; 2 ];
      };
    ]

let test_roundtrip_work_batch () = check_bool "work batch" true (roundtrip sample_batch)

let test_roundtrip_link_ack () = check_bool "link ack" true (roundtrip Message.Link_ack)

let test_roundtrip_site_unreachable () =
  check_bool "site unreachable" true
    (roundtrip
       (Message.Site_unreachable { query = { Message.originator = 1; serial = 9 }; dead = 4 }))

(* --- Cache messages (DESIGN.md §4g) --- *)

let sample_summary =
  let bloom = Hf_index.Bloom.create ~expected:32 ~fp_rate:0.01 in
  Hf_index.Bloom.add bloom "t:Keyword";
  Hf_index.Bloom.add bloom "t:Pointer";
  Hf_index.Bloom.to_string bloom

let test_roundtrip_cache_validate () =
  check_bool "cache validate" true
    (roundtrip
       (Message.Cache_validate { query = { Message.originator = 0; serial = 4 }; src = 2 }))

let test_roundtrip_cache_version () =
  let query = { Message.originator = 1; serial = 12 } in
  check_bool "with summary" true
    (roundtrip
       (Message.Cache_version
          { query; site = 2; version = 7; epoch = 3; summary = Some sample_summary }));
  check_bool "version only" true
    (roundtrip
       (Message.Cache_version { query; site = 0; version = 0; epoch = 0; summary = None }))

(* The summary epoch is load-bearing for the Bloofi staleness contract
   (a regression means the peer restarted), so pin it explicitly: exact
   round-trips under the traced (127) and reliability (126) envelopes,
   across the whole varint width range. *)
let test_cache_version_epoch_under_envelopes () =
  let query = { Message.originator = 5; serial = 9 } in
  let rel = { Codec.src = 2; seq = 11; ack = 10 } in
  List.iter
    (fun epoch ->
      List.iter
        (fun summary ->
          let message = Message.Cache_version { query; site = 1; version = 4; epoch; summary } in
          (* bare *)
          (match Codec.decode (Codec.encode message) with
           | Ok m -> check_bool "bare epoch" true (Message.equal message m)
           | Error e -> Alcotest.fail e);
          (* traced (127) *)
          (match Codec.decode_enveloped (Codec.encode ~span:3 message) with
           | Ok (m, span, None) ->
             check_bool "traced epoch" true (Message.equal message m && span = 3)
           | Ok _ -> Alcotest.fail "phantom reliability envelope"
           | Error e -> Alcotest.fail e);
          (* reliability (126, which nests the traced form) *)
          match Codec.decode_enveloped (Codec.encode ~span:3 ~rel message) with
          | Ok (m, span, Some got) ->
            check_bool "enveloped epoch" true
              (Message.equal message m && span = 3 && got.Codec.seq = 11)
          | Ok _ -> Alcotest.fail "reliability envelope lost"
          | Error e -> Alcotest.fail e)
        [ None; Some sample_summary ])
    [ 0; 1; 127; 128; 16_384; 1_000_000_007 ]

(* Epoch-bearing frames fuzzed: flip a byte anywhere in a valid encoded
   Cache_version (bare and under each envelope) — the decoder must stay
   total, never raise. *)
let prop_cache_version_epoch_fuzz =
  QCheck2.Test.make ~name:"cache-version epoch: corrupted frames never raise" ~count:400
    QCheck2.Gen.(tup4 (int_range 0 1_000_000) (int_range 0 255) (int_range 0 64) (int_range 0 2))
    (fun (epoch, byte, pos, wrap) ->
      let message =
        Message.Cache_version
          {
            query = { Message.originator = 1; serial = 2 };
            site = 3;
            version = 5;
            epoch;
            summary = Some sample_summary;
          }
      in
      let encoded =
        match wrap with
        | 0 -> Codec.encode message
        | 1 -> Codec.encode ~span:7 message
        | _ -> Codec.encode ~span:7 ~rel:{ Codec.src = 0; seq = 1; ack = 0 } message
      in
      let corrupted = Bytes.of_string encoded in
      Bytes.set corrupted (pos mod Bytes.length corrupted) (Char.chr byte);
      let input = Bytes.to_string corrupted in
      let total f = match f input with Ok _ | Error _ -> true | exception _ -> false in
      total Codec.decode && total Codec.decode_enveloped)

let cache_answer ?(start = 0) ?(iters = [||]) ~passed serial : Message.cache_answer =
  { oid = oid serial; start; iters; passed }

let test_roundtrip_cache_answers () =
  check_bool "cache answers" true
    (roundtrip
       (Message.Cache_answers
          {
            query = { Message.originator = 2; serial = 5 };
            src = 1;
            version = 3;
            answers =
              [ cache_answer ~passed:true 4;
                cache_answer ~start:2 ~iters:[| 1; 3 |] ~passed:false 9 ];
          }))

let test_roundtrip_query_done () =
  check_bool "query done" true
    (roundtrip (Message.Query_done { query = { Message.originator = 3; serial = 21 }; src = 3 }))

(* --- Scatter-gather messages (doc/execution_modes.md) --- *)

let sample_gather_node : Hf_engine.Scatter.node =
  {
    oid = oid ~site:1 7;
    start = 2;
    passed = true;
    visited = [ 0; 1; 2 ];
    spawns = [ (oid ~site:3 9, 1); (oid 4, 0) ];
    bindings = [ ("title", [ Hf_data.Value.str "Distributed" ]) ];
  }

let sample_scatter =
  Message.Scatter
    {
      query = { Message.originator = 2; serial = 17 };
      body = flagship_program;
      roots = [ oid ~site:1 1; oid ~site:1 5 ];
      credit = [ 4; 9 ];
    }

let sample_gather =
  Message.Gather_result
    {
      query = { Message.originator = 2; serial = 17 };
      src = 1;
      nodes =
        [
          sample_gather_node;
          { oid = oid 11; start = 0; passed = false; visited = [];
            spawns = [ (oid ~site:2 3, 2) ]; bindings = [] };
        ];
      credit = [ 4 ];
    }

let test_roundtrip_scatter () =
  check_bool "scatter" true (roundtrip sample_scatter);
  (* no roots is legal: the receiver still evaluates every local object
     at each landing index of its speculation domain *)
  check_bool "rootless scatter" true
    (roundtrip
       (Message.Scatter
          { query = { Message.originator = 0; serial = 2 }; body = flagship_program;
            roots = []; credit = [ 0 ] }))

let test_roundtrip_gather () =
  check_bool "gather" true (roundtrip sample_gather);
  (* an empty node list is legal: nothing at that site was productive,
     but the credit aboard still has to come home *)
  check_bool "empty gather" true
    (roundtrip
       (Message.Gather_result
          { query = { Message.originator = 1; serial = 3 }; src = 4; nodes = []; credit = [ 2 ] }))

let test_scatter_under_envelopes () =
  (* tags 12/13 must compose with the traced (127) and reliability
     (126) envelopes like any other message *)
  let rel = { Codec.src = 2; seq = 11; ack = 10 } in
  List.iter
    (fun message ->
      match Codec.decode_enveloped (Codec.encode ~span:9 ~rel message) with
      | Ok (m, span, Some got) ->
          check_bool "message" true (Message.equal message m);
          check_int "span" 9 span;
          check_int "seq" 11 got.Codec.seq;
          check_int "ack" 10 got.Codec.ack
      | Ok _ -> Alcotest.fail "envelope lost"
      | Error e -> Alcotest.fail e)
    [ sample_scatter; sample_gather ]

(* --- stats messages (DESIGN.md §4i): credit-free control plane ------- *)

let sample_stats_report =
  Message.Stats_report
    {
      src = 2;
      token = 9;
      stats =
        [
          { Message.name = "hf.server.work_messages"; value = Message.Stat_counter 41 };
          { Message.name = "hf.server.queries_running"; value = Message.Stat_gauge 2.5 };
          { Message.name = "hf.server.queue_wait_s";
            value =
              Message.Stat_histogram
                { count = 5; sum = 1.25; vmin = 0.01; vmax = 0.9; buckets = [ (3, 2); (7, 3) ] };
          };
        ];
    }

let test_roundtrip_stats () =
  check_bool "stats pull" true (roundtrip (Message.Stats_pull { src = 4; token = 123 }));
  check_bool "stats report" true (roundtrip sample_stats_report);
  (* an empty snapshot is legal: a site can answer before registering
     anything *)
  check_bool "empty report" true
    (roundtrip (Message.Stats_report { src = 0; token = 0; stats = [] }))

let test_stats_under_envelopes () =
  (* stats ride the same wire as query traffic, so they must compose
     with the traced and reliability envelopes like any other message *)
  let rel = { Codec.src = 1; seq = 7; ack = 6 } in
  let encoded = Codec.encode ~span:33 ~rel sample_stats_report in
  (match Codec.decode_enveloped encoded with
  | Ok (m, span, Some got) ->
      check_bool "message" true (Message.equal sample_stats_report m);
      check_int "span" 33 span;
      check_int "seq" 7 got.Codec.seq
  | Ok _ -> Alcotest.fail "envelope lost"
  | Error e -> Alcotest.fail e);
  match Codec.decode (Codec.encode ~span:5 (Message.Stats_pull { src = 4; token = 1 })) with
  | Ok m -> check_bool "pull under traced envelope" true (Message.equal m (Message.Stats_pull { src = 4; token = 1 }))
  | Error e -> Alcotest.fail e

let test_stats_carry_no_query () =
  (* pure control plane: no query is charged for one *)
  check_bool "stats_pull has no query" true
    (Option.is_none (Message.query_of (Message.Stats_pull { src = 0; token = 0 })));
  check_bool "stats_report has no query" true
    (Option.is_none (Message.query_of sample_stats_report))

let test_cache_answers_empty_rejected () =
  (* An empty answer list must not encode... *)
  (try
     ignore
       (Codec.encode
          (Message.Cache_answers
             { query = { Message.originator = 0; serial = 1 }; src = 0; version = 0;
               answers = [] }));
     Alcotest.fail "empty Cache_answers encoded"
   with Invalid_argument _ -> ());
  (* ...and crafted empty-answer bytes must not decode (tag 8, query
     0/1, src 0, version 0, zero answers). *)
  match Codec.decode "\x08\x00\x01\x00\x00\x00" with
  | Ok _ -> Alcotest.fail "empty Cache_answers accepted"
  | Error _ -> ()

let test_envelope_roundtrip () =
  let rel = { Codec.src = 3; seq = 41; ack = 40 } in
  let encoded = Codec.encode ~span:7 ~rel sample_deref in
  (match Codec.decode_enveloped encoded with
   | Ok (message, span, Some got) ->
     check_bool "message" true (Message.equal message sample_deref);
     check_int "span" 7 span;
     check_int "src" 3 got.Codec.src;
     check_int "seq" 41 got.Codec.seq;
     check_int "ack" 40 got.Codec.ack
   | Ok (_, _, None) -> Alcotest.fail "reliability envelope lost"
   | Error err -> Alcotest.fail err);
  (* the plain decoder accepts (and discards) both envelopes *)
  check_bool "decode" true
    (match Codec.decode encoded with
     | Ok m -> Message.equal m sample_deref
     | Error _ -> false)

let test_envelope_absent_is_plain () =
  let plain = Codec.encode sample_deref in
  match Codec.decode_enveloped plain with
  | Ok (m, 0, None) -> check_bool "message" true (Message.equal m sample_deref)
  | Ok _ -> Alcotest.fail "phantom envelope on plain bytes"
  | Error err -> Alcotest.fail err

let test_work_batch_empty_rejected () =
  (* An empty group list must not encode... *)
  (try
     ignore (Codec.encode (Message.Work_batch []));
     Alcotest.fail "empty Work_batch encoded"
   with Invalid_argument _ -> ());
  (* ...and a crafted empty batch (tag 3, zero groups) must not decode. *)
  match Codec.decode "\x03\x00" with
  | Ok _ -> Alcotest.fail "empty work batch accepted"
  | Error _ -> ()

let test_batch_amortization () =
  (* One batch of N same-query items beats N singleton requests: the
     program and query header are sent once. *)
  let query = { Message.originator = 2; serial = 17 } in
  let n = 8 in
  let serials = List.init n (fun i -> 40 + i) in
  let batched =
    Message.Work_batch
      [ { Message.query; body = flagship_program;
          items = List.map (fun s -> batch_item ~iters:[| 5 |] s) serials;
          credit = [ 3 ] } ]
  in
  let singles =
    List.map
      (fun s ->
        Message.Deref_request
          { query; body = flagship_program; oid = oid s; start = 0; iters = [| 5 |];
            credit = [ 3 ] })
      serials
  in
  let single_bytes =
    List.fold_left (fun acc m -> acc + Codec.encoded_size m) 0 singles
  in
  let batch_bytes = Codec.encoded_size batched in
  check_bool
    (Printf.sprintf "batch %dB < %d singles %dB" batch_bytes n single_bytes)
    true
    (batch_bytes < single_bytes)

(* --- Batch buffer semantics --- *)

let test_batch_policy_k1 () =
  let b = Batch.create (Batch.Flush_at 1) in
  Alcotest.(check (option (list int))) "immediate flush" (Some [ 7 ]) (Batch.push b ~dst:2 7);
  check_int "nothing pending" 0 (Batch.pending b)

let test_batch_policy_k3 () =
  let b = Batch.create (Batch.Flush_at 3) in
  Alcotest.(check (option (list int))) "1st buffered" None (Batch.push b ~dst:0 1);
  Alcotest.(check (option (list int))) "other dst separate" None (Batch.push b ~dst:1 9);
  Alcotest.(check (option (list int))) "2nd buffered" None (Batch.push b ~dst:0 2);
  Alcotest.(check (option (list int)))
    "3rd flushes oldest-first" (Some [ 1; 2; 3 ]) (Batch.push b ~dst:0 3);
  check_int "dst 0 cleared" 0 (Batch.pending_for b ~dst:0);
  check_int "dst 1 untouched" 1 (Batch.pending_for b ~dst:1);
  Alcotest.(check (list (pair int (list int))))
    "flush_all drains leftovers" [ (1, [ 9 ]) ] (Batch.flush_all b);
  check_int "empty after flush_all" 0 (Batch.pending b)

let test_batch_policy_drain () =
  let b = Batch.create Batch.Flush_on_drain in
  for i = 1 to 50 do
    Alcotest.(check (option (list int)))
      "never flushes on size" None (Batch.push b ~dst:(i mod 2) i)
  done;
  check_int "all pending" 50 (Batch.pending b);
  let flushed = Batch.flush_all b in
  Alcotest.(check (list int)) "ascending dsts" [ 0; 1 ] (List.map fst flushed);
  check_int "all drained" 50 (List.length (List.concat_map snd flushed))

let test_batch_bad_policy () =
  (try
     ignore (Batch.create (Batch.Flush_at 0));
     Alcotest.fail "Flush_at 0 accepted"
   with Invalid_argument _ -> ());
  try
    Batch.validate_policy (Batch.Flush_at (-3));
    Alcotest.fail "Flush_at -3 accepted"
  with Invalid_argument _ -> ()

let test_decode_truncated () =
  let encoded = Codec.encode sample_deref in
  for cut = 0 to String.length encoded - 1 do
    match Codec.decode (String.sub encoded 0 cut) with
    | Ok _ -> Alcotest.failf "truncation at %d accepted" cut
    | Error _ -> ()
  done

let test_decode_trailing_garbage () =
  match Codec.decode (Codec.encode sample_deref ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error message -> check_bool "mentions trailing" true (String.length message > 0)

let test_decode_bad_tag () =
  match Codec.decode "\xff" with
  | Ok _ -> Alcotest.fail "bad tag accepted"
  | Error _ -> ()

let test_decode_empty () =
  match Codec.decode "" with Ok _ -> Alcotest.fail "empty accepted" | Error _ -> ()

(* An oid is (birth site, serial) on the wire: two varints and nothing
   after them, so a pointer written with a third varint, the old
   location hint, is refused as trailing bytes. *)
let test_oid_two_varints () =
  let written write x =
    let buf = Buffer.create 8 in
    write buf x;
    Buffer.contents buf
  in
  Alcotest.(check string) "(3, 300)" "\x03\xac\x02" (written Codec.write_oid (oid ~site:3 300));
  let ptr = Hf_data.Value.ptr (oid ~site:3 300) in
  let bytes = written Codec.write_value ptr in
  Alcotest.(check string) "pointer tag, then the oid" "\x03\x03\xac\x02" bytes;
  check_bool "reads back" true
    (Hf_data.Value.equal ptr (Codec.with_reader bytes Codec.read_value));
  match Codec.with_reader (bytes ^ "\x03") Codec.read_value with
  | _ -> Alcotest.fail "a third oid varint accepted"
  | exception Codec.Decode_error _ -> ()

(* A credit atom above [Credit.exponent_cap] is garbage: the decoder
   refuses it in every credit-carrying message, so no site ever holds a
   share it cannot split or encode.  An atom at the cap reads back. *)
let test_credit_atom_cap () =
  let cap = Hf_termination.Credit.exponent_cap in
  let query = { Message.originator = 1; serial = 2 } in
  let carrying k =
    [ Message.Credit_return { query; credit = [ 3; k ] };
      Message.Deref_request
        { query; body = flagship_program; oid = oid 4; start = 0; iters = [| 0 |]; credit = [ k ] };
      Message.Result { query; payload = Message.Items []; bindings = []; credit = [ k ] };
    ]
  in
  List.iter (fun m -> check_bool "at the cap" true (roundtrip m)) (carrying cap);
  List.iter
    (fun k ->
      List.iter
        (fun m ->
          match Codec.decode (Codec.encode m) with
          | Ok _ -> Alcotest.failf "atom %d accepted" k
          | Error _ -> ())
        (carrying k))
    [ cap + 1; 1 lsl 41; max_int ]

let test_query_message_size_regime () =
  (* "Our messages send only the query (about 40 bytes for the
     experiments presented here)". *)
  let size = Codec.encoded_size sample_deref in
  check_bool (Printf.sprintf "size %d in tens of bytes" size) true (size >= 30 && size <= 90)

(* --- Randomized round-trips --- *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Hf_data.Value.str s) string_small;
        map (fun n -> Hf_data.Value.num n) int;
        map (fun f -> Hf_data.Value.real f) (float_range (-1000.0) 1000.0);
        map2
          (fun site serial -> Hf_data.Value.ptr (oid ~site serial))
          (int_range 0 20) (int_range 0 1000);
        map (fun s -> Hf_data.Value.blob s) string_small;
      ])

let gen_pattern =
  QCheck2.Gen.(
    oneof
      [
        return Hf_query.Pattern.Any;
        map (fun v -> Hf_query.Pattern.Exact v) gen_value;
        map (fun s -> Hf_query.Pattern.Glob s) string_small;
        map
          (fun (a, b) -> Hf_query.Pattern.Range (min a b, max a b))
          (pair (int_range (-50) 50) (int_range (-50) 50));
        map (fun s -> Hf_query.Pattern.Bind ("v" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5));
        map (fun s -> Hf_query.Pattern.Use ("v" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5));
      ])

let gen_filter =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun t k d -> Hf_query.Filter.Select { ttype = t; key = k; data = d })
          gen_pattern gen_pattern gen_pattern;
        map2
          (fun var keep ->
            Hf_query.Filter.Deref
              { var = "v" ^ var;
                mode = (if keep then Hf_query.Filter.Keep_parent else Hf_query.Filter.Replace);
              })
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 4))
          bool;
        map2
          (fun k target -> Hf_query.Filter.Retrieve { ttype = Hf_query.Pattern.Any; key = k; target = "t" ^ target })
          gen_pattern
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 4));
      ])

(* A structurally valid program: iterators inserted with body_start <=
   own index. *)
let gen_program =
  QCheck2.Gen.(
    bind (list_size (int_range 0 6) gen_filter) (fun filters ->
        bind (int_range 0 3) (fun add_iters ->
            let rec add n filters =
              if n = 0 then return filters
              else
                bind (int_range 0 (List.length filters)) (fun body_start ->
                    bind (oneof [ return Hf_query.Filter.Star; map (fun k -> Hf_query.Filter.Finite k) (int_range 1 5) ])
                      (fun count ->
                        add (n - 1)
                          (filters @ [ Hf_query.Filter.iter ~body_start ~count ])))
            in
            map (fun fs -> Hf_query.Program.of_filters fs) (add add_iters filters))))

let gen_query_id =
  QCheck2.Gen.(map2 (fun o s -> { Message.originator = o; serial = s }) (int_range 0 30) (int_range 0 1000))

let gen_credit = QCheck2.Gen.(list_size (int_range 0 5) (int_range 0 80))

let gen_message =
  QCheck2.Gen.(
    oneof
      [
        (let* query = gen_query_id in
         let* body = gen_program in
         let* site = int_range 0 10 in
         let* serial = int_range 0 500 in
         let* start = int_range 0 10 in
         let* iters = array_size (int_range 0 3) (int_range 1 20) in
         let* credit = gen_credit in
         return
           (Message.Deref_request
              { query; body; oid = oid ~site serial; start; iters; credit }));
        (let* query = gen_query_id in
         let* use_count = bool in
         let* payload =
           if use_count then map (fun n -> Message.Count n) (int_range 0 500)
           else
             map
               (fun serials -> Message.Items (List.map (fun s -> oid s) serials))
               (list_size (int_range 0 6) (int_range 0 100))
         in
         let* bindings =
           list_size (int_range 0 3)
             (pair
                (map (fun s -> "t" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 4)))
                (list_size (int_range 0 3) gen_value))
         in
         let* credit = gen_credit in
         return (Message.Result { query; payload; bindings; credit }));
        (let* query = gen_query_id in
         let* credit = gen_credit in
         return (Message.Credit_return { query; credit }));
        (let gen_batch_item =
           let* site = int_range 0 10 in
           let* serial = int_range 0 500 in
           let* start = int_range 0 10 in
           let* iters = array_size (int_range 0 3) (int_range 1 20) in
           return (Hf_engine.Work_item.make ~oid:(oid ~site serial) ~start ~iters)
         in
         let gen_group =
           let* query = gen_query_id in
           let* body = gen_program in
           let* items = list_size (int_range 1 5) gen_batch_item in
           let* credit = gen_credit in
           return { Message.query; body; items; credit }
         in
         map (fun groups -> Message.Work_batch groups) (list_size (int_range 1 4) gen_group));
        return Message.Link_ack;
        (let* query = gen_query_id in
         let* dead = int_range 0 15 in
         return (Message.Site_unreachable { query; dead }));
        (let* query = gen_query_id in
         let* src = int_range 0 15 in
         return (Message.Cache_validate { query; src }));
        (let* query = gen_query_id in
         let* site = int_range 0 15 in
         let* version = int_range 0 10_000 in
         let* epoch = int_range 0 1_000 in
         let* summary =
           oneof
             [ return None;
               map
                 (fun keys ->
                   let bloom =
                     Hf_index.Bloom.create ~expected:(1 + List.length keys) ~fp_rate:0.02
                   in
                   List.iter (Hf_index.Bloom.add bloom) keys;
                   Some (Hf_index.Bloom.to_string bloom))
                 (list_size (int_range 0 8) string_small);
             ]
         in
         return (Message.Cache_version { query; site; version; epoch; summary }));
        (let gen_answer =
           let* site = int_range 0 10 in
           let* serial = int_range 0 500 in
           let* start = int_range 0 10 in
           let* iters = array_size (int_range 0 3) (int_range 1 20) in
           let* passed = bool in
           return
             ({ oid = oid ~site serial; start; iters; passed }
               : Message.cache_answer)
         in
         let* query = gen_query_id in
         let* src = int_range 0 15 in
         let* version = int_range 0 10_000 in
         let* answers = list_size (int_range 1 5) gen_answer in
         return (Message.Cache_answers { query; src; version; answers }));
        (let* query = gen_query_id in
         let* src = int_range 0 15 in
         return (Message.Query_done { query; src }));
        (let* query = gen_query_id in
         let* body = gen_program in
         let* roots =
           list_size (int_range 0 5)
             (map2 (fun site serial -> oid ~site serial) (int_range 0 10)
                (int_range 0 500))
         in
         let* credit = gen_credit in
         return (Message.Scatter { query; body; roots; credit }));
        (let gen_node =
           let* site = int_range 0 10 in
           let* serial = int_range 0 500 in
           let* start = int_range 0 10 in
           let* passed = bool in
           let* visited =
             map (List.sort_uniq Int.compare) (list_size (int_range 0 5) (int_range 0 12))
           in
           let* spawns =
             list_size (int_range 0 3)
               (pair (map (fun s -> oid s) (int_range 0 300)) (int_range 0 8))
           in
           let* bindings =
             list_size (int_range 0 2)
               (pair
                  (map (fun s -> "t" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 4)))
                  (list_size (int_range 0 3) gen_value))
           in
           return
             ({ Hf_engine.Scatter.oid = oid ~site serial; start; passed; visited; spawns;
                bindings }
               : Hf_engine.Scatter.node)
         in
         let* query = gen_query_id in
         let* src = int_range 0 15 in
         let* nodes = list_size (int_range 0 4) gen_node in
         let* credit = gen_credit in
         return (Message.Gather_result { query; src; nodes; credit }));
        (let* src = int_range 0 15 in
         let* token = int_range 0 10_000 in
         return (Message.Stats_pull { src; token }));
        (let gen_stat_value =
           oneof
             [
               map (fun n -> Message.Stat_counter n) (int_range 0 1_000_000);
               map (fun g -> Message.Stat_gauge g) (float_range (-1000.0) 1000.0);
               (let* count = int_range 0 500 in
                let* sum = float_range 0.0 1000.0 in
                let* vmin = float_range 0.0 10.0 in
                let* vmax = float_range 10.0 1000.0 in
                let* buckets =
                  map
                    (fun cells ->
                      (* canonical wire shape: ascending unique indices *)
                      List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) cells)
                    (list_size (int_range 0 5) (pair (int_range 0 40) (int_range 1 50)))
                in
                return (Message.Stat_histogram { count; sum; vmin; vmax; buckets }));
             ]
         in
         let gen_stat =
           let* name =
             map (fun s -> "hf.t." ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
           in
           let* value = gen_stat_value in
           return { Message.name; value }
         in
         let* src = int_range 0 15 in
         let* token = int_range 0 10_000 in
         let* stats = list_size (int_range 0 5) gen_stat in
         return (Message.Stats_report { src; token; stats }));
      ])

let prop_message_roundtrip =
  QCheck2.Test.make ~name:"codec round-trip on random messages" ~count:500 gen_message roundtrip

let prop_truncation_rejected =
  QCheck2.Test.make ~name:"codec rejects every strict prefix" ~count:100 gen_message
    (fun message ->
      let encoded = Codec.encode message in
      let ok = ref true in
      for cut = 0 to String.length encoded - 1 do
        match Codec.decode (String.sub encoded 0 cut) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

(* Arbitrary bytes must come back as [Error], never an exception — the
   decoder faces the network.  Exercised both bare and under each
   envelope wrapper (tags 126/127), so envelope parsing is fuzzed
   too. *)
let prop_garbage_never_raises =
  QCheck2.Test.make ~name:"decoder total on garbage bytes" ~count:500
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (int_range 0 2))
    (fun (bytes, wrap) ->
      let input =
        match wrap with
        | 0 -> bytes
        | 1 -> "\x7f" ^ bytes (* traced envelope tag *)
        | _ -> "\x7e" ^ bytes (* reliability envelope tag *)
      in
      let total f = match f input with Ok _ | Error _ -> true | exception _ -> false in
      total Codec.decode
      && total Codec.decode_enveloped
      &&
      (* Bloom summaries ride Cache_version as opaque strings; their
         parser must be total too. *)
      match Hf_index.Bloom.of_string bytes with
      | Some _ | None -> true
      | exception _ -> false)

(* Element counts come off the wire, so the decoder bounds each by the
   bytes left in the payload instead of allocating for it.  Two payloads
   per [count]: a Cache_answers (tag 8) whose one answer claims [count]
   iterator counters and carries one, and a Credit_return (tag 2) whose
   credit claims [count] atoms and carries one.  Each must come back as
   [Error], allocating under 1 MiB. *)
let test_huge_count count () =
  let payload prefix =
    let buf = Buffer.create 32 in
    List.iter (Codec.write_varint buf) (prefix @ [ count; 0 ]);
    Buffer.contents buf
  in
  List.iter
    (fun payload ->
      let before = Gc.allocated_bytes () in
      let decoded = Codec.decode payload in
      let allocated = Gc.allocated_bytes () -. before in
      check_bool "rejected" true (Result.is_error decoded);
      check_bool (Printf.sprintf "%.0f bytes allocated" allocated) true (allocated < 1048576.0))
    [
      (* query (0, 1), src 0, version 0, one answer: oid (0, 1, 0), start 0 *)
      payload [ 8; 0; 1; 0; 0; 1; 0; 1; 0; 0 ];
      (* query (0, 1) *)
      payload [ 2; 0; 1 ];
    ]

(* --- Reused program bodies and encode_to --- *)

let body_bytes body =
  let buf = Buffer.create 16 in
  Codec.write_program buf body;
  Buffer.contents buf

let varint_bytes values =
  let buf = Buffer.create 8 in
  List.iter (Codec.write_varint buf) values;
  Buffer.contents buf

(* The first body [message] carries, with the length of its plain
   encoding up to that body's last byte. *)
let first_body (message : Message.t) =
  let through_body header body = Some (body, String.length header + String.length (body_bytes body)) in
  match message with
  | Deref_request { query; body; _ } ->
    through_body ("\x00" ^ varint_bytes [ query.originator; query.serial ]) body
  | Scatter { query; body; _ } ->
    through_body ("\x0c" ^ varint_bytes [ query.originator; query.serial ]) body
  | Work_batch ({ query; body; _ } :: _ as groups) ->
    through_body
      ("\x03" ^ varint_bytes [ List.length groups; query.originator; query.serial ])
      body
  | _ -> None

(* [message] with every body it carries replaced by [body], or a
   Deref_request carrying [body] when it carries none. *)
let with_body body (message : Message.t) : Message.t =
  match message with
  | Deref_request r -> Deref_request { r with body }
  | Scatter r -> Scatter { r with body }
  | Work_batch groups -> Work_batch (List.map (fun g -> { g with Message.body }) groups)
  | _ -> (
    match sample_deref with
    | Deref_request r -> Deref_request { r with body }
    | _ -> assert false)

let same_decoding a b =
  match (a, b) with
  | Ok a, Ok b -> Message.equal a b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* Decoding [b] after the decode memo was warmed with a frame carrying
   [b]'s first body (a hit) gives what decoding it after a frame with
   another body gives (a miss): equal messages, or an error both times.
   So does [b] cut right after that body, where a hit must still find
   the rest of the frame missing. *)
let prop_body_memo_hit_equals_miss =
  QCheck2.Test.make ~name:"decode memo: a hit decodes as a miss does" ~count:300
    QCheck2.Gen.(quad gen_message gen_message gen_message gen_program)
    (fun (a, b, c, other) ->
      let encoded = Codec.encode b in
      let inputs =
        match first_body b with
        | Some (body, cut) -> [ (body, encoded); (body, String.sub encoded 0 cut) ]
        | None -> [ (other, encoded) ]
      in
      List.for_all
        (fun (body, input) ->
          ignore (Codec.decode (Codec.encode (with_body body a)));
          let hit = Codec.decode input in
          ignore (Codec.decode (Codec.encode (with_body other c)));
          let miss = Codec.decode input in
          same_decoding hit miss
          &&
          match hit with
          | Ok m -> String.equal input encoded && Message.equal m b
          | Error _ -> not (String.equal input encoded))
        inputs)

(* One message of every constructor. *)
let every_constructor =
  [ sample_deref;
    sample_batch;
    Message.Result
      { query = { Message.originator = 0; serial = 1 }; payload = Message.Items [ oid 1; oid ~site:4 9 ];
        bindings = [ ("title", [ Hf_data.Value.str "First" ]) ]; credit = [ 1 ] };
    Message.Credit_return { query = { Message.originator = 1; serial = 2 }; credit = [ 0 ] };
    Message.Link_ack;
    Message.Site_unreachable { query = { Message.originator = 1; serial = 9 }; dead = 4 };
    Message.Cache_validate { query = { Message.originator = 0; serial = 4 }; src = 2 };
    Message.Cache_version
      { query = { Message.originator = 1; serial = 12 }; site = 2; version = 7; epoch = 3;
        summary = Some sample_summary };
    Message.Cache_answers
      { query = { Message.originator = 2; serial = 5 }; src = 1; version = 3;
        answers = [ cache_answer ~passed:true 4 ] };
    Message.Query_done { query = { Message.originator = 3; serial = 21 }; src = 3 };
    Message.Stats_pull { src = 4; token = 123 };
    sample_stats_report;
    sample_scatter;
    sample_gather;
  ]

(* [encode_to] appends exactly [encode]'s bytes after what the buffer
   holds, for every constructor under each envelope, whether the encode
   memo holds the message's body (a hit) or another one (a miss). *)
let test_encode_to_matches_encode () =
  let rel = { Codec.src = 2; seq = 11; ack = 10 } in
  let other = Hf_query.Parser.parse_program "(Keyword, \"other\", ?)" in
  List.iter
    (fun message ->
      List.iter
        (fun (span, rel) ->
          let expected = Codec.encode ?span ?rel message in
          List.iter
            (fun memo ->
              if memo = "miss" then ignore (body_bytes other);
              let buf = Buffer.create 4 in
              Buffer.add_string buf "head";
              Codec.encode_to buf ?span ?rel message;
              Alcotest.(check string)
                (Fmt.str "%s, %a" memo Message.pp message)
                ("head" ^ expected) (Buffer.contents buf))
            [ "hit"; "miss" ])
        [ (None, None); (Some 9, None); (None, Some rel); (Some 9, Some rel) ])
    every_constructor

(* ship-remote's work frame: a 65-byte Deref_request of the 8-deep
   Rand05 walk (tcpbench's workload). *)
let ship_remote_deref =
  Message.Deref_request
    {
      query = { Message.originator = 0; serial = 41 };
      body =
        Hf_query.Compile.compile
          (Hf_workload.Queries.depth_body ~pointer_key:"Rand05" ~depth:8
             (Hf_workload.Queries.select_unique 137));
      oid = oid ~site:2 73;
      start = 3;
      iters = [| 5 |];
      credit = [ 9 ];
    }

(* Minor words per call of [f], over 1,000 calls after a warm-up. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 1000.0

(* Decoding ship-remote's frame when the memo holds its body.  Before
   the memo and the closure-free varints: 223 words; with them: 25.
   The bound is halfway. *)
let test_decode_alloc_on_memo_hit () =
  let payload = Codec.encode ship_remote_deref in
  check_int "a 65-byte frame" 65 (String.length payload);
  let words = words_per_call (fun () -> Codec.decode payload) in
  check_bool (Printf.sprintf "%.1f words per decode (bound 124)" words) true (words <= 124.0)

(* Encoding ship-remote's frame into a warmed buffer.  Before, encode
   and Frame.frame: 94 words; encode_to: 0.  The bound is halfway. *)
let test_encode_to_alloc () =
  check_int "a 65-byte frame" 65 (Codec.encoded_size ship_remote_deref);
  let buf = Buffer.create 4096 in
  let words =
    words_per_call (fun () ->
        Buffer.clear buf;
        Codec.encode_to buf ship_remote_deref)
  in
  check_bool (Printf.sprintf "%.1f words per encode (bound 47)" words) true (words <= 47.0)

(* The memos are shared by every domain without a lock.  Two domains
   each encode and decode frames whose bodies alternate, 100,000 times;
   every encoding must be the message's bytes and every decoding the
   message.  A memo split into two mutable fields would tear here. *)
let test_memos_under_two_domains () =
  let messages =
    [| sample_deref; with_body (Hf_query.Parser.parse_program "(Keyword, \"x\", ?)") sample_deref |]
  in
  let frames = Array.map Codec.encode messages in
  let run first () =
    let bad = ref 0 in
    for i = 0 to 99_999 do
      let k = (first + i) land 1 in
      if not (String.equal (Codec.encode messages.(k)) frames.(k)) then incr bad;
      match Codec.decode frames.(k) with
      | Ok m when Message.equal m messages.(k) -> ()
      | Ok _ | Error _ -> incr bad
    done;
    !bad
  in
  let other = Domain.spawn (run 1) in
  let here = run 0 () in
  check_int "mismatches here" 0 here;
  check_int "mismatches in the other domain" 0 (Domain.join other)

(* --- Reliable link state machine --- *)

module Reliable = Hf_proto.Reliable

let rcfg =
  {
    Reliable.ack_timeout = 1.0;
    backoff = 2.0;
    max_timeout = 4.0;
    max_retries = 2;
    ack_delay = 0.1;
  }

let test_reliable_sequencing () =
  let l = Reliable.create rcfg in
  check_int "first seq" 1 (Reliable.send l ~now:0.0 "a");
  check_int "second seq" 2 (Reliable.send l ~now:0.1 "b");
  check_int "third seq" 3 (Reliable.send l ~now:0.2 "c");
  check_int "in flight" 3 (Reliable.in_flight l);
  let latencies = Reliable.on_ack l ~now:0.5 2 in
  check_int "two acked" 2 (List.length latencies);
  check_bool "latencies measured from first send" true
    (List.sort compare latencies = [ 0.4; 0.5 ]);
  check_int "one left" 1 (Reliable.in_flight l);
  check_int "stale ack is idempotent" 0 (List.length (Reliable.on_ack l ~now:0.6 2))

let test_reliable_dedup () =
  let l = Reliable.create rcfg in
  check_bool "1 fresh" true (Reliable.receive l ~now:0.0 ~seq:1 = `Fresh);
  check_bool "1 again = dup" true (Reliable.receive l ~now:0.1 ~seq:1 = `Duplicate);
  check_bool "3 out of order = fresh" true (Reliable.receive l ~now:0.2 ~seq:3 = `Fresh);
  check_bool "3 again = dup" true (Reliable.receive l ~now:0.3 ~seq:3 = `Duplicate);
  check_int "cum stops at the gap" 1 (Reliable.take_ack l);
  check_bool "2 fills the gap" true (Reliable.receive l ~now:0.4 ~seq:2 = `Fresh);
  check_int "cum catches up" 3 (Reliable.take_ack l);
  check_int "dup count" 2 (Reliable.duplicates l)

let test_reliable_retransmit_backoff () =
  let l = Reliable.create rcfg in
  ignore (Reliable.send l ~now:0.0 "a");
  check_bool "armed at ack_timeout" true (Reliable.next_deadline l = Some 1.0);
  check_bool "quiet before the deadline" true (Reliable.poll l ~now:0.5 = []);
  (match Reliable.poll l ~now:1.0 with
   | [ Reliable.Retransmit [ (1, "a") ] ] -> ()
   | _ -> Alcotest.fail "expected a retransmission at the deadline");
  check_bool "timeout doubled" true (Reliable.next_deadline l = Some 3.0);
  check_int "counted" 1 (Reliable.retransmitted l);
  (* progress resets the backoff *)
  ignore (Reliable.on_ack l ~now:3.0 1);
  ignore (Reliable.send l ~now:4.0 "b");
  check_bool "backoff reset by the ack" true (Reliable.next_deadline l = Some 5.0)

let test_reliable_give_up () =
  let l = Reliable.create rcfg in
  ignore (Reliable.send l ~now:0.0 "a");
  ignore (Reliable.poll l ~now:2.0);
  ignore (Reliable.poll l ~now:10.0);
  (match Reliable.poll l ~now:20.0 with
   | [ Reliable.Give_up [ (1, "a") ] ] -> ()
   | _ -> Alcotest.fail "expected give-up once the retry cap fired");
  check_bool "unreachable" true (Reliable.unreachable l);
  Alcotest.check_raises "send refused" (Invalid_argument "Reliable.send: link unreachable")
    (fun () -> ignore (Reliable.send l ~now:21.0 "b"))

let test_reliable_delayed_ack () =
  let l = Reliable.create rcfg in
  check_bool "nothing owed" true (not (Reliable.ack_owed l));
  ignore (Reliable.receive l ~now:0.0 ~seq:1);
  check_bool "owed" true (Reliable.ack_owed l);
  check_bool "ack deadline armed" true (Reliable.next_deadline l = Some 0.1);
  check_bool "piggyback window still open" true (Reliable.poll l ~now:0.05 = []);
  (match Reliable.poll l ~now:0.1 with
   | [ Reliable.Send_ack ] -> ()
   | _ -> Alcotest.fail "expected a standalone ack");
  check_int "cumulative value" 1 (Reliable.take_ack l);
  check_bool "cleared" true (not (Reliable.ack_owed l));
  check_bool "idle" true (Reliable.next_deadline l = None)

let test_reliable_validate () =
  let rejects config =
    match Reliable.validate config with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "zero timeout" true (rejects { rcfg with Reliable.ack_timeout = 0.0 });
  check_bool "backoff below 1" true (rejects { rcfg with Reliable.backoff = 0.5 });
  check_bool "cap below initial" true (rejects { rcfg with Reliable.max_timeout = 0.5 });
  check_bool "negative retries" true (rejects { rcfg with Reliable.max_retries = -1 });
  check_bool "negative ack delay" true (rejects { rcfg with Reliable.ack_delay = -0.1 });
  Reliable.validate Reliable.default

(* Drive a sender/receiver pair over a channel that drops both data and
   acks from a deterministic pseudo-random schedule: every message must
   come out exactly once — retransmission covers the losses, dedup
   covers the redeliveries. *)
let prop_reliable_lossy_exactly_once =
  QCheck2.Test.make ~name:"lossy channel delivers exactly once" ~count:100
    QCheck2.Gen.(triple (int_range 1 25) (int_range 0 1_000_000) (int_range 0 60))
    (fun (n, seed, drop_pct) ->
      let cfg =
        {
          Reliable.ack_timeout = 1.0;
          backoff = 1.5;
          max_timeout = 8.0;
          max_retries = 200;
          ack_delay = 0.2;
        }
      in
      let s = Reliable.create cfg and r = Reliable.create cfg in
      let state = ref (seed + 1) in
      let drop () =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod 100 < drop_pct
      in
      let delivered = Array.make (n + 1) 0 in
      let attempt now seq =
        if not (drop ()) then begin
          (match Reliable.receive r ~now ~seq with
           | `Fresh -> delivered.(seq) <- delivered.(seq) + 1
           | `Duplicate -> ());
          (* the receiver acks immediately; the ack may be lost too *)
          let ack = Reliable.take_ack r in
          if not (drop ()) then ignore (Reliable.on_ack s ~now ack)
        end
      in
      let now = ref 0.0 in
      for i = 1 to n do
        attempt !now (Reliable.send s ~now:!now i)
      done;
      let complete = ref true in
      let guard = ref 0 in
      while Reliable.in_flight s > 0 && !complete && !guard < 10_000 do
        incr guard;
        (match Reliable.next_deadline s with
         | Some d -> now := Float.max !now d
         | None -> ());
        List.iter
          (function
            | Reliable.Retransmit entries ->
              List.iter (fun (seq, _) -> attempt !now seq) entries
            | Reliable.Send_ack -> ()
            | Reliable.Give_up _ -> complete := false)
          (Reliable.poll s ~now:!now)
      done;
      !complete
      && Reliable.in_flight s = 0
      && Array.for_all (fun count -> count <= 1) delivered
      &&
      let all = ref true in
      for i = 1 to n do
        if delivered.(i) <> 1 then all := false
      done;
      !all)

(* --- Framing --- *)

let test_frame_roundtrip () =
  let payloads = [ "alpha"; ""; String.make 1000 'x' ] in
  let stream = String.concat "" (List.map Frame.frame payloads) in
  let decoder = Frame.Decoder.create () in
  Frame.Decoder.feed decoder stream;
  Alcotest.(check (list string)) "all frames" payloads (Frame.Decoder.drain decoder)

let test_frame_chunked_feeding () =
  let payloads = [ "hello"; "world!"; "third frame" ] in
  let stream = String.concat "" (List.map Frame.frame payloads) in
  let decoder = Frame.Decoder.create () in
  let collected = ref [] in
  (* feed one byte at a time, as a pathological TCP stream would *)
  String.iter
    (fun c ->
      Frame.Decoder.feed decoder (String.make 1 c);
      collected := !collected @ Frame.Decoder.drain decoder)
    stream;
  Alcotest.(check (list string)) "reassembled" payloads !collected

let test_frame_partial_pending () =
  let decoder = Frame.Decoder.create () in
  Frame.Decoder.feed decoder (String.sub (Frame.frame "abcdef") 0 5);
  check_bool "incomplete" true (Frame.Decoder.next decoder = None);
  check_int "buffered" 5 (Frame.Decoder.buffered_bytes decoder)

let test_frame_oversize_rejected () =
  Alcotest.check_raises "oversize frame" (Frame.Frame_error "incoming frame too large")
    (fun () ->
      let decoder = Frame.Decoder.create () in
      Frame.Decoder.feed decoder "\xff\xff\xff\xff";
      ignore (Frame.Decoder.next decoder))

(* A stream reader relies on this order: the frames fed before a bad
   length header are cut first, and only the header itself raises. *)
let test_frame_oversize_after_frames () =
  let decoder = Frame.Decoder.create () in
  Frame.Decoder.feed decoder (Frame.frame "one" ^ Frame.frame "two" ^ "\x01\x10\x00\x00rest");
  Alcotest.(check (option string)) "first frame" (Some "one") (Frame.Decoder.next decoder);
  Alcotest.(check (option string)) "second frame" (Some "two") (Frame.Decoder.next decoder);
  Alcotest.check_raises "then the header" (Frame.Frame_error "incoming frame too large")
    (fun () -> ignore (Frame.Decoder.next decoder))

(* The length is judged only once all four header bytes are in, so a
   header split across reads raises on the read that completes it. *)
let test_frame_oversize_split_header () =
  let decoder = Frame.Decoder.create () in
  Frame.Decoder.feed decoder "\x01\x10\x00";
  check_bool "three header bytes: pending" true (Frame.Decoder.next decoder = None);
  check_int "buffered" 3 (Frame.Decoder.buffered_bytes decoder);
  Frame.Decoder.feed decoder "\x00";
  Alcotest.check_raises "fourth byte completes it" (Frame.Frame_error "incoming frame too large")
    (fun () -> ignore (Frame.Decoder.next decoder))

(* [max_frame_size] itself is a legal length: its header waits for the
   payload, and one byte more is rejected. *)
let test_frame_largest_length () =
  let header len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.to_string b
  in
  let decoder = Frame.Decoder.create () in
  Frame.Decoder.feed decoder (header Frame.max_frame_size);
  check_bool "waits for the payload" true (Frame.Decoder.next decoder = None);
  check_int "header buffered" 4 (Frame.Decoder.buffered_bytes decoder);
  let over = Frame.Decoder.create () in
  Frame.Decoder.feed over (header (Frame.max_frame_size + 1));
  Alcotest.check_raises "one byte more" (Frame.Frame_error "incoming frame too large")
    (fun () -> ignore (Frame.Decoder.next over))

let prop_frame_roundtrip_chunked =
  QCheck2.Test.make ~name:"framing survives arbitrary chunking" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 5) string_small) (int_range 1 7))
    (fun (payloads, chunk) ->
      let stream = String.concat "" (List.map Frame.frame payloads) in
      let decoder = Frame.Decoder.create () in
      let collected = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let len = min chunk (String.length stream - !i) in
        Frame.Decoder.feed decoder (String.sub stream !i len);
        collected := !collected @ Frame.Decoder.drain decoder;
        i := !i + len
      done;
      !collected = payloads)


let () =
  Alcotest.run "hf_proto"
    [
      ( "codec",
        [
          Alcotest.test_case "deref round-trip" `Quick test_roundtrip_deref;
          Alcotest.test_case "result/items round-trip" `Quick test_roundtrip_result_items;
          Alcotest.test_case "result/count round-trip" `Quick test_roundtrip_result_count;
          Alcotest.test_case "credit-return round-trip" `Quick test_roundtrip_credit_return;
          Alcotest.test_case "work-batch round-trip" `Quick test_roundtrip_work_batch;
          Alcotest.test_case "link-ack round-trip" `Quick test_roundtrip_link_ack;
          Alcotest.test_case "site-unreachable round-trip" `Quick
            test_roundtrip_site_unreachable;
          Alcotest.test_case "cache-validate round-trip" `Quick test_roundtrip_cache_validate;
          Alcotest.test_case "cache-version round-trip" `Quick test_roundtrip_cache_version;
          Alcotest.test_case "cache-version epoch under both envelopes" `Quick
            test_cache_version_epoch_under_envelopes;
          Hf_test_harness.qtest prop_cache_version_epoch_fuzz;
          Alcotest.test_case "cache-answers round-trip" `Quick test_roundtrip_cache_answers;
          Alcotest.test_case "query-done round-trip" `Quick test_roundtrip_query_done;
          Alcotest.test_case "scatter round-trip" `Quick test_roundtrip_scatter;
          Alcotest.test_case "gather-result round-trip" `Quick test_roundtrip_gather;
          Alcotest.test_case "scatter under both envelopes" `Quick test_scatter_under_envelopes;
          Alcotest.test_case "stats round-trips" `Quick test_roundtrip_stats;
          Alcotest.test_case "stats under both envelopes" `Quick test_stats_under_envelopes;
          Alcotest.test_case "stats carry no query" `Quick test_stats_carry_no_query;
          Alcotest.test_case "empty cache answers rejected" `Quick
            test_cache_answers_empty_rejected;
          Alcotest.test_case "reliability envelope round-trip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "no envelope = plain bytes" `Quick test_envelope_absent_is_plain;
          Alcotest.test_case "empty work batch rejected" `Quick test_work_batch_empty_rejected;
          Alcotest.test_case "batch amortizes headers" `Quick test_batch_amortization;
          Alcotest.test_case "truncation rejected" `Quick test_decode_truncated;
          Alcotest.test_case "trailing bytes rejected" `Quick test_decode_trailing_garbage;
          Alcotest.test_case "bad tag rejected" `Quick test_decode_bad_tag;
          Alcotest.test_case "empty rejected" `Quick test_decode_empty;
          Alcotest.test_case "~40-byte query messages" `Quick test_query_message_size_regime;
          Alcotest.test_case "an oid is two varints" `Quick test_oid_two_varints;
          Alcotest.test_case "credit atoms past the cap rejected" `Quick test_credit_atom_cap;
          Hf_test_harness.qtest prop_message_roundtrip;
          Hf_test_harness.qtest prop_truncation_rejected;
          Hf_test_harness.qtest prop_garbage_never_raises;
          Alcotest.test_case "count 2^24 rejected before allocating" `Quick
            (test_huge_count (1 lsl 24));
          Alcotest.test_case "count 2^55 rejected before allocating" `Quick
            (test_huge_count (1 lsl 55));
          Hf_test_harness.qtest prop_body_memo_hit_equals_miss;
          Alcotest.test_case "encode_to appends encode's bytes" `Quick
            test_encode_to_matches_encode;
          Alcotest.test_case "decode allocation on a memo hit" `Quick
            test_decode_alloc_on_memo_hit;
          Alcotest.test_case "encode_to allocation" `Quick test_encode_to_alloc;
          Alcotest.test_case "memos shared by two domains" `Quick test_memos_under_two_domains;
        ] );
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "chunked feeding" `Quick test_frame_chunked_feeding;
          Alcotest.test_case "partial pending" `Quick test_frame_partial_pending;
          Alcotest.test_case "oversize rejected" `Quick test_frame_oversize_rejected;
          Alcotest.test_case "frames before an oversize header" `Quick
            test_frame_oversize_after_frames;
          Alcotest.test_case "oversize header split across feeds" `Quick
            test_frame_oversize_split_header;
          Alcotest.test_case "largest length accepted" `Quick test_frame_largest_length;
          Hf_test_harness.qtest prop_frame_roundtrip_chunked;
        ] );
      ( "reliable link",
        [
          Alcotest.test_case "sequencing and cumulative acks" `Quick test_reliable_sequencing;
          Alcotest.test_case "receiver dedup" `Quick test_reliable_dedup;
          Alcotest.test_case "retransmit with backoff" `Quick test_reliable_retransmit_backoff;
          Alcotest.test_case "give-up at the retry cap" `Quick test_reliable_give_up;
          Alcotest.test_case "delayed standalone ack" `Quick test_reliable_delayed_ack;
          Alcotest.test_case "config validation" `Quick test_reliable_validate;
          Hf_test_harness.qtest prop_reliable_lossy_exactly_once;
        ] );
      ( "batch buffer",
        [
          Alcotest.test_case "K=1 flushes every push" `Quick test_batch_policy_k1;
          Alcotest.test_case "K=3 fires at three, per destination" `Quick test_batch_policy_k3;
          Alcotest.test_case "drain policy never fires on size" `Quick test_batch_policy_drain;
          Alcotest.test_case "bad policies rejected" `Quick test_batch_bad_policy;
        ] );
    ]
