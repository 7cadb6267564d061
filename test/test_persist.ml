(* Tests for store snapshots: round-trips, reproducibility, serial
   preservation, and corruption detection. *)

module Store = Hf_data.Store
module Tuple = Hf_data.Tuple
module Snapshot = Hf_persist.Snapshot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_store () =
  let store = Store.create ~site:2 in
  let a =
    Store.create_object store
      [ Tuple.string_ ~key:"Title" "First";
        Tuple.keyword "alpha";
        Tuple.number ~key:"size" 42;
        Tuple.text ~key:"Body" (String.make 500 'b');
      ]
  in
  let b =
    Store.create_object store
      [ Tuple.pointer ~key:"Ref" (Hf_data.Hobject.oid a);
        Tuple.pointer ~key:"Remote" (Hf_data.Oid.make ~birth_site:5 ~serial:77);
      ]
  in
  ignore (Store.create_object store []);
  (store, a, b)

let stores_equal a b =
  Store.site a = Store.site b
  && Store.cardinal a = Store.cardinal b
  && Store.fold a
       (fun obj acc ->
         acc
         && match Store.find b (Hf_data.Hobject.oid obj) with
            | Some other -> Hf_data.Hobject.equal obj other
            | None -> false)
       true

let test_roundtrip () =
  let store, _, _ = sample_store () in
  let restored = Snapshot.decode (Snapshot.encode store) in
  check_bool "stores equal" true (stores_equal store restored)

let test_preserves_serials () =
  let store, _, _ = sample_store () in
  let restored = Snapshot.decode (Snapshot.encode store) in
  check_int "serial high-water" (Store.next_serial store) (Store.next_serial restored);
  (* a fresh oid after restore must not collide *)
  let fresh = Store.fresh_oid restored in
  check_bool "no collision" false (Store.mem restored fresh)

let test_reproducible () =
  let store, _, _ = sample_store () in
  Alcotest.(check string) "byte-for-byte" (Snapshot.encode store) (Snapshot.encode store)

let test_empty_store () =
  let store = Store.create ~site:0 in
  let restored = Snapshot.decode (Snapshot.encode store) in
  check_int "empty" 0 (Store.cardinal restored)

let test_file_roundtrip () =
  let store, _, _ = sample_store () in
  let path = Filename.temp_file "hf_snapshot" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save store ~path;
      let restored = Snapshot.load ~path in
      check_bool "file round-trip" true (stores_equal store restored))

let expect_corrupt data =
  match Snapshot.decode data with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Snapshot.Corrupt _ -> ()

let test_bad_magic () = expect_corrupt "NOTASNAP0\x00\x00"

(* HFSNAP1 files wrote three varints per oid, so the decoder must refuse
   them rather than misread them: an empty store (site 2, next serial 5)
   and a full one, each under the old magic. *)
let test_old_magic_refused () =
  let old_magic = "HFSNAP1\n" in
  expect_corrupt (old_magic ^ "\x02\x05\x00");
  let store, _, _ = sample_store () in
  let encoded = Snapshot.encode store in
  let n = String.length Snapshot.magic in
  expect_corrupt (old_magic ^ String.sub encoded n (String.length encoded - n))

(* The HFSNAP2 layout, byte for byte: the magic; the site, the next
   serial and the object count as varints; then each object framed (a
   4-byte length), its oid two varints and its tuple count after. *)
let test_layout () =
  let store = Store.create ~site:2 in
  ignore (Store.create_object store []);
  Alcotest.(check string) "one empty object at site 2"
    ("HFSNAP2\n" ^ "\x02\x01\x01" ^ "\x00\x00\x00\x03" ^ "\x02\x00" ^ "\x00")
    (Snapshot.encode store)

let test_truncation_detected () =
  let store, _, _ = sample_store () in
  let encoded = Snapshot.encode store in
  (* cut inside the object frames *)
  expect_corrupt (String.sub encoded 0 (String.length encoded - 7));
  expect_corrupt (String.sub encoded 0 12)

let test_trailing_bytes_detected () =
  let store, _, _ = sample_store () in
  expect_corrupt (Snapshot.encode store ^ "junk")

let test_flipped_byte_detected () =
  (* Flip a byte inside an object's frame header length: decoding must
     fail rather than silently misread. *)
  let store, _, _ = sample_store () in
  let encoded = Bytes.of_string (Snapshot.encode store) in
  let pos = String.length Snapshot.magic + 3 in
  Bytes.set encoded pos (Char.chr (Char.code (Bytes.get encoded pos) lxor 0x5f));
  match Snapshot.decode (Bytes.to_string encoded) with
  | _ -> () (* a value byte may flip without structural damage *)
  | exception Snapshot.Corrupt _ -> ()
  | exception Hf_proto.Frame.Frame_error _ -> ()

let prop_random_stores_roundtrip =
  QCheck2.Test.make ~name:"random stores round-trip" ~count:100 QCheck2.Gen.int (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let store = Store.create ~site:(Hf_util.Prng.next_int prng 10) in
      let n = Hf_util.Prng.next_int prng 20 in
      for i = 0 to n - 1 do
        let tuples =
          List.concat
            [
              (if Hf_util.Prng.next_bool prng 0.7 then [ Tuple.number ~key:"id" i ] else []);
              (if Hf_util.Prng.next_bool prng 0.5 then [ Tuple.keyword "k" ] else []);
              (if Hf_util.Prng.next_bool prng 0.5 then
                 [ Tuple.pointer ~key:"R"
                     (Hf_data.Oid.make ~birth_site:(Hf_util.Prng.next_int prng 5)
                        ~serial:(Hf_util.Prng.next_int prng 100))
                 ]
               else []);
            ]
        in
        ignore (Store.create_object store tuples)
      done;
      stores_equal store (Snapshot.decode (Snapshot.encode store)))

(* Crash-recovery scenario: snapshot every site of a cluster, "restart"
   into a fresh cluster restored from the snapshots, and check that a
   distributed query gives the same answer. *)
let test_cluster_recovery () =
  let module C = Hf_server.Instances.Weighted in
  let n_sites = 3 in
  let build () = C.create ~n_sites () in
  let cluster = build () in
  let n = 12 in
  let oids = Array.init n (fun i -> Store.fresh_oid (C.store cluster (i mod n_sites))) in
  Array.iteri
    (fun i oid ->
      let tuples =
        [ Tuple.pointer ~key:"R" oids.((i + 1) mod n) ]
        @ (if i mod 4 = 0 then [ Tuple.keyword "hot" ] else [])
      in
      Store.insert (C.store cluster (i mod n_sites)) (Hf_data.Hobject.of_tuples oid tuples))
    oids;
  let program =
    Hf_query.Parser.parse_program "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"
  in
  let before = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  (* snapshot all sites *)
  let snapshots = List.init n_sites (fun s -> Snapshot.encode (C.store cluster s)) in
  (* "restart": restore each snapshot into a fresh cluster's stores *)
  let revived = build () in
  List.iteri
    (fun s data ->
      let restored = Snapshot.decode data in
      let target = C.store revived s in
      Store.iter restored (fun obj -> Store.insert target obj);
      Store.advance_serial target (Store.next_serial restored))
    snapshots;
  let after = C.run_query revived ~origin:0 program [ oids.(0) ] in
  check_bool "query survives restart" true
    (Hf_data.Oid.Set.equal before.Hf_server.Cluster.result_set
       after.Hf_server.Cluster.result_set);
  check_bool "terminated" true after.Hf_server.Cluster.terminated


let () =
  Alcotest.run "hf_persist"
    [
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "preserves serials" `Quick test_preserves_serials;
          Alcotest.test_case "reproducible bytes" `Quick test_reproducible;
          Alcotest.test_case "empty store" `Quick test_empty_store;
          Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "old magic refused" `Quick test_old_magic_refused;
          Alcotest.test_case "layout: two varints per oid" `Quick test_layout;
          Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
          Alcotest.test_case "trailing bytes detected" `Quick test_trailing_bytes_detected;
          Alcotest.test_case "flipped frame byte" `Quick test_flipped_byte_detected;
          Alcotest.test_case "cluster crash recovery" `Quick test_cluster_recovery;
          Hf_test_harness.qtest prop_random_stores_roundtrip;
        ] );
    ]
