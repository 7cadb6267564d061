(* Tests for the ship-data file-server baseline: correctness of the
   traversal, cost accounting, the query-shipping comparison the paper
   makes in the Section 5 preamble. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Store = Hf_data.Store
module FS = Hf_baseline.File_server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Two-site dataset: ring of [n] objects alternating sites, keyword on
   multiples of 3, a body blob to make objects heavy. *)
let make_ring n =
  let stores = Array.init 2 (fun site -> Store.create ~site) in
  let oids = Array.init n (fun i -> Store.fresh_oid stores.(i mod 2)) in
  Array.iteri
    (fun i oid ->
      let tuples =
        [ Tuple.pointer ~key:"R" oids.((i + 1) mod n);
          Tuple.text ~key:"Body" (String.make 512 'b');
        ]
        @ (if i mod 3 = 0 then [ Tuple.keyword "hot" ] else [])
      in
      Store.insert stores.(i mod 2) (Hf_data.Hobject.of_tuples oid tuples))
    oids;
  let find oid = Store.find stores.(Oid.birth_site oid) oid in
  (oids, find)

let matches obj = List.mem "hot" (Hf_data.Hobject.keywords obj)

let run ?config ~n () =
  let oids, find = make_ring n in
  ( oids,
    FS.run_closure ?config ~origin:0 ~find ~pointer_key:"R" ~matches
      [ oids.(0) ] )

let test_traversal_correct () =
  let _, outcome = run ~n:12 () in
  check_int "visits all" 12 outcome.FS.objects_visited;
  check_int "results" 4 (List.length outcome.FS.results);
  check_int "remote fetches: objects on site 1" 6 outcome.FS.objects_fetched;
  check_int "two messages per fetch" 12 outcome.FS.messages

let test_local_objects_free () =
  (* Everything on the client's site: no messages at all. *)
  let store = Store.create ~site:0 in
  let oids = Array.init 5 (fun _ -> Store.fresh_oid store) in
  Array.iteri
    (fun i oid ->
      Store.insert store
        (Hf_data.Hobject.of_tuples oid
           [ Tuple.pointer ~key:"R" oids.((i + 1) mod 5); Tuple.keyword "hot" ]))
    oids;
  let outcome =
    FS.run_closure ~origin:0 ~find:(Store.find store) ~pointer_key:"R"
      ~matches [ oids.(0) ]
  in
  check_int "no messages" 0 outcome.FS.messages;
  check_int "no bytes" 0 outcome.FS.bytes;
  check_int "all results" 5 (List.length outcome.FS.results)

let test_bytes_dominated_by_bodies () =
  let _, outcome = run ~n:12 () in
  (* 6 remote objects, each > 512-byte body *)
  check_bool "bytes exceed bodies" true (outcome.FS.bytes > 6 * 512)

let test_pipelining_helps () =
  let _, sequential = run ~config:{ FS.default_config with FS.window = 1 } ~n:12 () in
  let _, pipelined = run ~config:{ FS.default_config with FS.window = 8 } ~n:12 () in
  check_bool "same answers" true
    (Oid.Set.equal sequential.FS.result_set pipelined.FS.result_set);
  (* a ring forces serial discovery, so pipelining cannot hurt and the
     times stay comparable; on the star below it truly helps *)
  check_bool "pipelined not slower" true
    (pipelined.FS.response_time <= sequential.FS.response_time +. 1e-9)

let test_pipelining_on_star () =
  (* hub pointing at many remote leaves: window >> 1 overlaps fetches *)
  let stores = Array.init 2 (fun site -> Store.create ~site) in
  let hub = Store.fresh_oid stores.(0) in
  let leaves = Array.init 16 (fun _ -> Store.fresh_oid stores.(1)) in
  Store.insert stores.(0)
    (Hf_data.Hobject.of_tuples hub
       (Tuple.keyword "hot" :: List.map (fun l -> Tuple.pointer ~key:"R" l) (Array.to_list leaves)));
  Array.iter
    (fun l ->
      Store.insert stores.(1)
        (Hf_data.Hobject.of_tuples l [ Tuple.keyword "hot"; Tuple.text ~key:"Body" (String.make 256 'x') ]))
    leaves;
  let find oid = Store.find stores.(Oid.birth_site oid) oid in
  let run window =
    FS.run_closure
      ~config:{ FS.default_config with FS.window }
      ~origin:0 ~find ~pointer_key:"R" ~matches [ hub ]
  in
  let seq = run 1 and par = run 16 in
  check_bool "same results" true (Oid.Set.equal seq.FS.result_set par.FS.result_set);
  check_bool "pipelining speeds up the star" true
    (par.FS.response_time < seq.FS.response_time /. 2.0)

let test_dangling_pointer_skipped () =
  let store = Store.create ~site:0 in
  let a = Store.fresh_oid store in
  Store.insert store
    (Hf_data.Hobject.of_tuples a
       [ Tuple.pointer ~key:"R" (Oid.make ~birth_site:1 ~serial:99); Tuple.keyword "hot" ]);
  let outcome =
    FS.run_closure ~origin:0 ~find:(Store.find store) ~pointer_key:"R"
      ~matches [ a ]
  in
  check_int "one result" 1 (List.length outcome.FS.results)

let test_window_validation () =
  Alcotest.check_raises "bad window"
    (Invalid_argument "File_server.run_closure: window must be >= 1") (fun () ->
      let _, _ = run ~config:{ FS.default_config with FS.window = 0 } ~n:4 () in
      ())

let test_query_shipping_moves_fewer_bytes () =
  (* The paper's core argument: ~40-byte query messages versus whole
     objects.  Same ring, same traversal, compare bytes moved. *)
  let n = 12 in
  let _, baseline = run ~n () in
  let module C = Hf_server.Instances.Weighted in
  let cluster = C.create ~n_sites:2 () in
  let oids = Array.init n (fun i -> Store.fresh_oid (C.store cluster (i mod 2))) in
  Array.iteri
    (fun i oid ->
      let tuples =
        [ Tuple.pointer ~key:"R" oids.((i + 1) mod n);
          Tuple.text ~key:"Body" (String.make 512 'b');
        ]
        @ (if i mod 3 = 0 then [ Tuple.keyword "hot" ] else [])
      in
      Store.insert (C.store cluster (i mod 2)) (Hf_data.Hobject.of_tuples oid tuples))
    oids;
  let program =
    Hf_query.Parser.parse_program "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"
  in
  let shipped = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "same result count" true
    (List.length shipped.Hf_server.Cluster.results = List.length baseline.FS.results);
  let shipped_bytes = Hf_server.Metrics.total_bytes shipped.Hf_server.Cluster.metrics in
  check_bool
    (Printf.sprintf "query shipping %dB << baseline %dB" shipped_bytes baseline.FS.bytes)
    true
    (shipped_bytes * 2 < baseline.FS.bytes)

let () =
  Alcotest.run "hf_baseline"
    [
      ( "file server",
        [
          Alcotest.test_case "traversal correct" `Quick test_traversal_correct;
          Alcotest.test_case "local objects free" `Quick test_local_objects_free;
          Alcotest.test_case "bytes dominated by bodies" `Quick test_bytes_dominated_by_bodies;
          Alcotest.test_case "pipelining sane on ring" `Quick test_pipelining_helps;
          Alcotest.test_case "pipelining helps on star" `Quick test_pipelining_on_star;
          Alcotest.test_case "dangling pointers skipped" `Quick test_dangling_pointer_skipped;
          Alcotest.test_case "window validated" `Quick test_window_validation;
        ] );
      ( "versus query shipping",
        [
          Alcotest.test_case "baseline moves far more bytes" `Quick
            test_query_shipping_moves_fewer_bytes;
        ] );
    ]
