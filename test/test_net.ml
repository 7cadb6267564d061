(* Tests for the TCP transport: the real Section 3.2 protocol over
   loopback sockets, compared against the local engine oracle. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Store = Hf_data.Store
module Tcp = Hf_net.Tcp_site

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse_program = Hf_query.Parser.parse_program

(* Spin up [n] sites on loopback and wire them together. *)
let with_sites ?batch ?reliability n f =
  let sites = Array.init n (fun site -> Tcp.create ~site ?batch ?reliability ()) in
  let addresses = Array.map Tcp.address sites in
  Array.iter (fun site -> Tcp.set_peers site addresses) sites;
  Fun.protect ~finally:(fun () -> Array.iter Tcp.shutdown sites) (fun () -> f sites)

(* Tight timeouts so a dead-peer test gives up in about a second of
   wall clock instead of Reliable.default's minute. *)
let fast_reliability =
  {
    Hf_proto.Reliable.ack_timeout = 0.05;
    backoff = 2.0;
    max_timeout = 0.2;
    max_retries = 5;
    ack_delay = 0.01;
  }

(* Ring of [n] objects alternating over the sites, keyword on every
   third object. *)
(* Ring object [i]: a pointer to the next, and "hot" on every third. *)
let ring_tuples oids i =
  [ Tuple.pointer ~key:"R" oids.((i + 1) mod Array.length oids) ]
  @ if i mod 3 = 0 then [ Tuple.keyword "hot" ] else []

let load_ring sites n =
  let k = Array.length sites in
  let oids = Array.init n (fun i -> Store.fresh_oid (Tcp.store sites.(i mod k))) in
  Array.iteri
    (fun i oid ->
      Store.insert (Tcp.store sites.(i mod k)) (Hf_data.Hobject.of_tuples oid (ring_tuples oids i)))
    oids;
  oids

(* The same ring in one store: the oracle's input. *)
let ring_store oids =
  let store = Store.create ~site:0 in
  Array.iteri
    (fun i oid -> Store.insert store (Hf_data.Hobject.of_tuples oid (ring_tuples oids i)))
    oids;
  store

let closure = parse_program "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"

let test_single_site_query () =
  with_sites 1 (fun sites ->
      let oids = load_ring sites 9 in
      let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      check_bool "terminated" true outcome.Tcp.terminated;
      check_int "results" 3 (List.length outcome.Tcp.results);
      check_int "no messages" 0 outcome.Tcp.messages_sent)

let test_three_sites_over_tcp () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      check_bool "terminated" true outcome.Tcp.terminated;
      check_int "results" 4 (List.length outcome.Tcp.results);
      check_bool "messages crossed the network" true (outcome.Tcp.messages_sent > 0);
      check_bool "bytes accounted" true (outcome.Tcp.bytes_sent > 0))

let test_matches_local_engine () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 15 in
      let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      let local = Hf_engine.Local.run_store ~store:(ring_store oids) closure [ oids.(0) ] in
      check_bool "TCP = local" true
        (Oid.Set.equal outcome.Tcp.result_set local.Hf_engine.Local.result_set))

(* A program of more than 62 filters: 62 always-true selections ahead
   of the closure.  Each object's walk then keeps the indexes it visited
   in a table, and its marks at index 62 and up sit in the mark table's
   set.  The padded closure gives the unpadded one's result set, on
   [Local] and over three sites. *)
let test_padded_program_matches () =
  let padding = String.concat " " (List.init 62 (fun _ -> "(?, ?, ?)")) in
  let padded = parse_program (padding ^ " [ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)") in
  check_int "filters" 66 (Hf_query.Program.length padded);
  with_sites 3 (fun sites ->
      let oids = load_ring sites 15 in
      let store = ring_store oids in
      let expected = (Hf_engine.Local.run_store ~store closure [ oids.(0) ]).Hf_engine.Local.result_set in
      check_int "five hot objects" 5 (Oid.Set.cardinal expected);
      let local = Hf_engine.Local.run_store ~store padded [ oids.(0) ] in
      check_bool "padded Local = unpadded" true
        (Oid.Set.equal expected local.Hf_engine.Local.result_set);
      let outcome = Tcp.run_query sites.(0) padded [ oids.(0) ] in
      check_bool "complete" true (outcome.Tcp.status = Tcp.Complete);
      check_bool "padded over TCP = unpadded" true (Oid.Set.equal expected outcome.Tcp.result_set))

let test_retrieve_over_tcp () =
  with_sites 2 (fun sites ->
      let a = Store.fresh_oid (Tcp.store sites.(0)) in
      let b = Store.fresh_oid (Tcp.store sites.(1)) in
      Store.insert (Tcp.store sites.(0))
        (Hf_data.Hobject.of_tuples a
           [ Tuple.pointer ~key:"R" b; Tuple.string_ ~key:"Title" "local" ]);
      Store.insert (Tcp.store sites.(1))
        (Hf_data.Hobject.of_tuples b [ Tuple.string_ ~key:"Title" "remote" ]);
      let program = parse_program "(Pointer, \"R\", ?X) ^^X (String, \"Title\", ->title)" in
      let outcome = Tcp.run_query sites.(0) program [ a ] in
      check_bool "terminated" true outcome.Tcp.terminated;
      check_int "both pass" 2 (List.length outcome.Tcp.results);
      match List.assoc_opt "title" outcome.Tcp.bindings with
      | Some values ->
        check_bool "remote title shipped back" true
          (List.exists (Hf_data.Value.equal (Hf_data.Value.str "remote")) values)
      | None -> Alcotest.fail "expected title binding")

let test_sequential_queries () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      let o1 = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      let o2 = Tcp.run_query sites.(1) closure [ oids.(0) ] in
      check_bool "both terminate" true (o1.Tcp.terminated && o2.Tcp.terminated);
      check_bool "same results" true (Oid.Set.equal o1.Tcp.result_set o2.Tcp.result_set))

let test_dead_peer_times_out_with_partial_results () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      (* kill site 2 before querying: ring 0 -> 1 -> 2(dead) *)
      Tcp.shutdown sites.(2);
      let outcome = Tcp.run_query ~timeout:1.0 sites.(0) closure [ oids.(0) ] in
      check_bool "not terminated" false outcome.Tcp.terminated;
      check_bool "status says timed out, not dead" true (outcome.Tcp.status = Tcp.Timed_out);
      check_bool "partial results" true (List.length outcome.Tcp.results >= 1))

let test_reliable_matches_plain () =
  (* Reliability changes the frame layout (envelopes) and adds ack
     traffic, but over a healthy network the answer is identical. *)
  with_sites ~reliability:fast_reliability 3 (fun sites ->
      let oids = load_ring sites 12 in
      let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      check_bool "terminated" true outcome.Tcp.terminated;
      check_bool "complete" true (outcome.Tcp.status = Tcp.Complete);
      check_int "results" 4 (List.length outcome.Tcp.results))

let test_dead_peer_partial_with_reliability () =
  (* Same dead peer as above, but with ack/retransmit underneath: the
     retry budget distinguishes "peer dead" from "peer slow".  Instead
     of hanging until the caller's timeout, retransmission gives up,
     the credit aboard the undeliverable work is reclaimed, and the
     query terminates with an explicit [Partial] naming the site. *)
  with_sites ~reliability:fast_reliability 3 (fun sites ->
      let oids = load_ring sites 12 in
      Tcp.shutdown sites.(2);
      let outcome = Tcp.run_query ~timeout:10.0 sites.(0) closure [ oids.(0) ] in
      check_bool "terminated before the 10 s timeout" true outcome.Tcp.terminated;
      check_bool "status is partial naming site 2" true (outcome.Tcp.status = Tcp.Partial [ 2 ]);
      check_bool "well under the timeout" true (outcome.Tcp.response_time < 8.0);
      check_bool "partial results" true (List.length outcome.Tcp.results >= 1))

let test_concurrent_remote_seeds () =
  with_sites 3 (fun sites ->
      (* initial set spanning all sites, no pointers: pure fan-out *)
      let oids =
        Array.init 9 (fun i ->
            let store = Tcp.store sites.(i mod 3) in
            let oid = Store.fresh_oid store in
            Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "hot" ]);
            oid)
      in
      let program = parse_program "(Keyword, \"hot\", ?)" in
      let outcome = Tcp.run_query sites.(0) program (Array.to_list oids) in
      check_bool "terminated" true outcome.Tcp.terminated;
      check_int "all found" 9 (List.length outcome.Tcp.results))

let test_batched_fan_out () =
  (* The same 9-object pure fan-out, batched: remote seeds bound for the
     same site coalesce into Work_batch messages — identical answers,
     fewer wire messages than the 6 per-seed requests. *)
  let run ?batch () =
    with_sites ?batch 3 (fun sites ->
        let oids =
          Array.init 9 (fun i ->
              let store = Tcp.store sites.(i mod 3) in
              let oid = Store.fresh_oid store in
              Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "hot" ]);
              oid)
        in
        let program = parse_program "(Keyword, \"hot\", ?)" in
        Tcp.run_query sites.(0) program (Array.to_list oids))
  in
  let plain = run () in
  let batched = run ~batch:(Hf_proto.Batch.Flush_at 4) () in
  check_bool "both terminated" true (plain.Tcp.terminated && batched.Tcp.terminated);
  check_bool "same answers" true (Oid.Set.equal plain.Tcp.result_set batched.Tcp.result_set);
  check_bool
    (Printf.sprintf "fewer messages (%d < %d)" batched.Tcp.messages_sent plain.Tcp.messages_sent)
    true
    (batched.Tcp.messages_sent < plain.Tcp.messages_sent)

let test_batched_matches_local_engine () =
  (* Ring closure with a drain-flush batcher on every site: answers
     still match the single-store oracle. *)
  with_sites ~batch:Hf_proto.Batch.Flush_on_drain 3 (fun sites ->
      let oids = load_ring sites 15 in
      let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      check_bool "terminated" true outcome.Tcp.terminated;
      let local = Hf_engine.Local.run_store ~store:(ring_store oids) closure [ oids.(0) ] in
      check_bool "batched TCP = local" true
        (Oid.Set.equal outcome.Tcp.result_set local.Hf_engine.Local.result_set))

(* Random end-to-end property: arbitrary placements, graphs and
   queries over real sockets must match the local engine.  With
   reliability on, a read's merged credit returns ride alongside acks,
   retransmissions and the duplicates they cause. *)
let prop_tcp_matches_local ?reliability name =
  QCheck2.Test.make ~name ~count:15 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n_sites = 2 + Hf_util.Prng.next_int prng 2 in
      let n = 5 + Hf_util.Prng.next_int prng 12 in
      let placement = Array.init n (fun _ -> Hf_util.Prng.next_int prng n_sites) in
      let edges =
        List.init (Hf_util.Prng.next_int prng (3 * n)) (fun _ ->
            (Hf_util.Prng.next_int prng n, Hf_util.Prng.next_int prng n))
      in
      let hot = Array.init n (fun _ -> Hf_util.Prng.next_bool prng 0.5) in
      let tuples oids i =
        [ Tuple.number ~key:"id" i ]
        @ (if hot.(i) then [ Tuple.keyword "hot" ] else [])
        @ List.filter_map
            (fun (src, dst) -> if src = i then Some (Tuple.pointer ~key:"R" oids.(dst)) else None)
            edges
      in
      let program =
        if Hf_util.Prng.next_bool prng 0.5 then closure
        else parse_program "[ (Pointer, \"R\", ?X) ^^X ]^3 (Keyword, \"hot\", ?)"
      in
      let start = Hf_util.Prng.next_int prng n in
      with_sites ?reliability n_sites (fun sites ->
          let oids =
            Array.init n (fun i -> Store.fresh_oid (Tcp.store sites.(placement.(i))))
          in
          Array.iteri
            (fun i oid ->
              Store.insert (Tcp.store sites.(placement.(i)))
                (Hf_data.Hobject.of_tuples oid (tuples oids i)))
            oids;
          let outcome = Tcp.run_query sites.(0) program [ oids.(start) ] in
          let store = Store.create ~site:0 in
          Array.iteri
            (fun i oid -> Store.insert store (Hf_data.Hobject.of_tuples oid (tuples oids i)))
            oids;
          let local = Hf_engine.Local.run_store ~store program [ oids.(start) ] in
          outcome.Tcp.terminated
          && Oid.Set.equal outcome.Tcp.result_set local.Hf_engine.Local.result_set))

(* --- the frame path: batched writes and reads --- *)

module Codec = Hf_proto.Codec
module Frame = Hf_proto.Frame
module Message = Hf_proto.Message
module Credit = Hf_termination.Credit

(* A loopback listener standing in for a site the test drives by hand.
   [rcvbuf] shrinks the receive buffer its accepted sockets inherit, so
   a peer that stops reading fills up after a few kilobytes. *)
let fake_site ?rcvbuf () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Option.iter (Unix.setsockopt_int sock Unix.SO_RCVBUF) rcvbuf;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  sock

let accept_within ?(seconds = 5.0) listener =
  match Unix.select [ listener ] [] [] seconds with
  | [], _, _ -> Alcotest.fail "the site never connected"
  | _ -> fst (Unix.accept listener)

(* Every frame that arrives on [fd] until it has been quiet for
   [quiet] seconds, decoded. *)
let read_messages ?(quiet = 0.3) fd =
  let decoder = Frame.Decoder.create () in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.select [ fd ] [] [] quiet with
    | [], _, _ -> ()
    | _ ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Frame.Decoder.feed_bytes decoder chunk 0 n;
        go ()
      end
  in
  go ();
  List.map Codec.decode_exn (Frame.Decoder.drain decoder)

(* [f ()] must return within [seconds]: a call that blocks on a stuck
   socket fails the test instead of hanging it. *)
let within ~seconds what f =
  let result = ref None in
  let (_ : Thread.t) = Thread.create (fun () -> result := Some (f ())) () in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match !result with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "%s did not return within %.0f s" what seconds;
      Thread.delay 0.01;
      wait ()
  in
  wait ()

(* One Deref_request frame carrying [credit], as a peer writes it. *)
let deref_frame ~query program oid credit =
  let wi = Hf_engine.Work_item.initial (Hf_engine.Plan.make program) oid in
  Frame.frame
    (Codec.encode
       (Message.Deref_request
          {
            query;
            body = program;
            oid;
            start = Hf_engine.Work_item.start wi;
            iters = Hf_engine.Work_item.iters wi;
            credit = Credit.atoms credit;
          }))

(* k Deref_requests for one query, written to a site in a single
   write(2), are handled in one read: the site drains the query's
   context once and sends its originator exactly one Credit_return
   carrying the sum of the k shares. *)
let test_one_credit_return_per_read () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let k = 5 in
      let store = Tcp.store site in
      let oids =
        List.init k (fun _ ->
            let oid = Store.fresh_oid store in
            Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "cold" ]);
            oid)
      in
      (* no object passes, so credit goes home alone, not on a Result *)
      let program = parse_program "(Keyword, \"hot\", ?)" in
      let rec split credit n =
        if n = 0 then []
        else
          let keep, gave = Credit.split credit in
          gave :: split keep (n - 1)
      in
      let shares = split Credit.one k in
      let query = { Message.originator = 0; serial = 7 } in
      let frames = List.map2 (deref_frame ~query program) oids shares in
      let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sender)
        (fun () ->
          Unix.connect sender (Tcp.address site);
          let bytes = String.concat "" frames in
          check_int "one write" (String.length bytes)
            (Unix.write_substring sender bytes 0 (String.length bytes));
          let back = accept_within origin in
          Fun.protect
            ~finally:(fun () -> Unix.close back)
            (fun () ->
              match read_messages back with
              | [ Message.Credit_return { query = q; credit } ] ->
                check_bool "for the query" true (Message.equal_query_id q query);
                check_bool "carries the sum of the shares" true
                  (Credit.equal (Credit.of_atoms credit)
                     (List.fold_left Credit.add Credit.zero shares))
              | messages ->
                Alcotest.failf "expected one Credit_return, got %d message(s): %a"
                  (List.length messages)
                  Fmt.(list ~sep:comma Message.pp)
                  messages)))

(* A length header past [Frame.max_frame_size] leaves a stream that
   cannot resynchronise, so the site closes that connection.  [f] gets
   site 1 (one object, selected by no query; its origin 0 is a fake
   site), [frame serial], a Deref_request on that object for query
   [serial], [send bytes], which writes [bytes] to the site in one
   write(2) over a new connection, and [credit_comes_home back serial],
   which checks that exactly the credit of [serial] reaches the origin
   over [back]. *)
let with_oversize_site f =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let oid = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "cold" ]);
      let program = parse_program "(Keyword, \"hot\", ?)" in
      let frame serial =
        deref_frame ~query:{ Message.originator = 0; serial } program oid Credit.one
      in
      let senders = ref [] in
      let send bytes =
        let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        senders := sender :: !senders;
        Unix.connect sender (Tcp.address site);
        check_int "one write" (String.length bytes)
          (Unix.write_substring sender bytes 0 (String.length bytes));
        sender
      in
      let credit_comes_home back serial =
        match read_messages back with
        | [ Message.Credit_return { query; _ } ] ->
          check_int "credit of the query" serial query.Message.serial
        | messages ->
          Alcotest.failf "expected one Credit_return, got %d message(s): %a"
            (List.length messages)
            Fmt.(list ~sep:comma Message.pp)
            messages
      in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close !senders)
        (fun () -> f ~origin ~frame ~send ~credit_comes_home))

let oversized = "\x01\x10\x00\x00" (* 17 MiB *)

let reads_eof sender =
  match Unix.select [ sender ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "the site kept the connection open"
  | _ -> check_int "the sender reads EOF" 0 (Unix.read sender (Bytes.create 1) 0 1)

(* The frame cut before the bad header is handled, the sender reads
   EOF, and work arriving over another connection is still served. *)
let test_oversized_header_closes_connection () =
  with_oversize_site (fun ~origin ~frame ~send ~credit_comes_home ->
      let sender = send (frame 1 ^ oversized) in
      let back = accept_within origin in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          credit_comes_home back 1;
          reads_eof sender;
          ignore (send (frame 2));
          credit_comes_home back 2))

(* A connection whose first bytes are a bad header is closed with
   nothing handled: the site contacts the origin only for the query
   sent over the next connection. *)
let test_oversized_header_first () =
  with_oversize_site (fun ~origin ~frame ~send ~credit_comes_home ->
      reads_eof (send oversized);
      ignore (send (frame 2));
      let back = accept_within origin in
      Fun.protect ~finally:(fun () -> Unix.close back) (fun () -> credit_comes_home back 2))

(* The stream cannot resynchronise past a bad header, so a valid frame
   behind it in the same write is never handled: only the credit of
   the frame before the header comes home. *)
let test_frames_after_oversized_header_dropped () =
  with_oversize_site (fun ~origin ~frame ~send ~credit_comes_home ->
      let sender = send (frame 1 ^ oversized ^ frame 3) in
      let back = accept_within origin in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          credit_comes_home back 1;
          reads_eof sender))

(* A bad header split across reads is judged when its last byte
   arrives: the site keeps the first half buffered, handles the frame
   before it, and closes the connection on the read that completes it. *)
let test_oversized_header_split_across_reads () =
  with_oversize_site (fun ~origin ~frame ~send ~credit_comes_home ->
      let sender = send (frame 1 ^ String.sub oversized 0 2) in
      let back = accept_within origin in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          credit_comes_home back 1;
          check_bool "still open on half a header" true
            (match Unix.select [ sender ] [] [] 0.2 with [], _, _ -> true | _ -> false);
          check_int "second half" 2 (Unix.write_substring sender oversized 2 2);
          reads_eof sender))

(* A work item that does not fit its query's program is dropped when it
   arrives, its credit kept: a Deref_request with no counter for the
   closure's one iterator, on an object whose pointer the closure
   follows, then a valid request on the same connection.  The
   connection survives the first, and both credits come home. *)
let test_misfit_item_dropped () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let target = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples target [ Tuple.keyword "cold" ]);
      let oid = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.pointer ~key:"R" target ]);
      let query = { Message.originator = 0; serial = 5 } in
      let keep, gave = Credit.split Credit.one in
      let misfit =
        Frame.frame
          (Codec.encode
             (Message.Deref_request
                { query; body = closure; oid; start = 0; iters = [||]; credit = Credit.atoms gave }))
      in
      let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sender)
        (fun () ->
          Unix.connect sender (Tcp.address site);
          List.iter
            (fun frame ->
              check_int "written" (String.length frame)
                (Unix.write_substring sender frame 0 (String.length frame)))
            [ misfit; deref_frame ~query closure oid keep ];
          let back = accept_within origin in
          Fun.protect
            ~finally:(fun () -> Unix.close back)
            (fun () ->
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec collect sum =
                if Credit.equal sum Credit.one || Unix.gettimeofday () > deadline then sum
                else
                  collect
                    (List.fold_left
                       (fun sum -> function
                         | Message.Credit_return { query = q; credit }
                           when Message.equal_query_id q query ->
                           Credit.add sum (Credit.of_atoms credit)
                         | message -> Alcotest.failf "unexpected %a" Message.pp message)
                       sum (read_messages back))
              in
              check_bool "both credits come home" true (Credit.equal (collect Credit.zero) Credit.one))))

(* Bytes site [site] has queued for peers whose sockets have not taken
   them yet. *)
let queued_bytes site =
  match Hf_obs.Registry.find (Tcp.registry site) "hf.net.out_queued_bytes" with
  | Some (Hf_obs.Registry.Gauge read) -> int_of_float (read ())
  | Some _ | None -> Alcotest.fail "hf.net.out_queued_bytes gauge missing"

let eventually ?(seconds = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if not (pred ()) then begin
      if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting: %s" what;
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* A Stats_report from site 0 carrying one counter, [name].  A site
   files it when it handles the frame, so once [reported site name]
   holds, the frames before it on its connection were handled too. *)
let probe_report name =
  Frame.frame
    (Codec.encode
       (Message.Stats_report
          { src = 0; token = 0; stats = [ { Message.name; value = Message.Stat_counter 1 } ] }))

let reported site name =
  match List.assoc_opt 0 (Tcp.known_peer_stats site) with
  | Some snap -> List.mem_assoc name snap
  | None -> false

(* A work frame that carries no credit at all makes the site's drain
   raise once the item's spawn must ship: there is no share to split.
   That costs the query, not the site: the next frame on the
   connection, sent once the drain has had time to raise, is still
   handled. *)
let test_raising_drain_spares_the_site () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let oid = Store.fresh_oid store in
      Store.insert store
        (Hf_data.Hobject.of_tuples oid
           [ Tuple.pointer ~key:"R" (Oid.make ~birth_site:0 ~serial:1) ]);
      let report = probe_report "probe.after" in
      let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sender)
        (fun () ->
          Unix.connect sender (Tcp.address site);
          List.iter
            (fun frame ->
              check_int "written" (String.length frame)
                (Unix.write_substring sender frame 0 (String.length frame));
              Thread.delay 0.1)
            [ deref_frame ~query:{ Message.originator = 0; serial = 3 } closure oid Credit.zero;
              report ];
          eventually "the next frame is handled" (fun () -> reported site "probe.after")))

(* A connection to [site] that writes each of [frames] in turn. *)
let write_frames site frames =
  let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sender)
    (fun () ->
      Unix.connect sender (Tcp.address site);
      List.iter
        (fun frame ->
          check_int "written" (String.length frame)
            (Unix.write_substring sender frame 0 (String.length frame)))
        frames)

(* A Deref_request and then a Scatter for the same query, in one
   write(2), both on objects that spawn nothing and fail the filter:
   site 1 handles both frames before it drains, so the scatter lands
   while the banked item still waits.  The gather then carries no
   credit, and the one credit frame that follows carries both shares:
   the scatter's share goes home with the pending work's drain. *)
let test_scatter_reply_behind_pending_work () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let cold () =
        let oid = Store.fresh_oid store in
        Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "cold" ]);
        oid
      in
      let banked = cold () in
      let root = cold () in
      let program = parse_program "(Keyword, \"hot\", ?)" in
      let _, half = Credit.split Credit.one in
      let quarter, eighth = Credit.split half in
      let query = { Message.originator = 0; serial = 9 } in
      let scatter =
        Frame.frame
          (Codec.encode
             (Message.Scatter
                { query; body = program; roots = [ root ]; credit = Credit.atoms eighth }))
      in
      write_frames site [ deref_frame ~query program banked quarter ^ scatter ];
      let back = accept_within origin in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          match read_messages back with
          | [ Message.Gather_result { credit = gathered; _ }; Message.Credit_return { credit; _ } ]
            ->
            check_bool "the gather carries no credit" true (gathered = []);
            check_bool "the credit frame carries both shares" true
              (Credit.equal (Credit.of_atoms credit) (Credit.add quarter eighth))
          | messages ->
            Alcotest.failf "expected a Gather_result, then a Credit_return; got %a"
              Fmt.(list ~sep:comma Message.pp)
              messages))

(* A raising drain drops its query at the site, as a Query_done would:
   the context is evicted and the query tombstoned.  The same zero-credit
   frame as above raises the drain; within a second the site holds no
   context.  A later frame for that query, carrying half the credit for
   an object that fails the filter, opens no context and sends nothing
   back: the lost slice's credit must not complete the query at the
   origin.  Before, the context stayed with its drain marked under way,
   and every later item was banked and never drained. *)
let test_raising_drain_evicts_its_context () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let walker = Store.fresh_oid store in
      Store.insert store
        (Hf_data.Hobject.of_tuples walker
           [ Tuple.pointer ~key:"R" (Oid.make ~birth_site:0 ~serial:1) ]);
      let cold = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples cold [ Tuple.keyword "cold" ]);
      let query = { Message.originator = 0; serial = 3 } in
      write_frames site [ deref_frame ~query closure walker Credit.zero; probe_report "probe.raised" ];
      eventually "the raising frame is handled" (fun () -> reported site "probe.raised");
      eventually ~seconds:1.0 "the raising drain's context is evicted" (fun () ->
          Tcp.context_count site = 0);
      let _, half = Credit.split Credit.one in
      write_frames site [ deref_frame ~query closure cold half; probe_report "probe.late" ];
      eventually "the late frame is handled" (fun () -> reported site "probe.late");
      check_bool "nothing sent back" true
        (match Unix.select [ origin ] [] [] 0.5 with [], _, _ -> true | _ -> false);
      check_int "no context reopened" 0 (Tcp.context_count site))

(* The keyword the stall tests select on.  Every work frame carries the
   query body, so at 128 KiB a few dozen frames overrun any socket
   buffer, while the oracle still runs the same program. *)
let big_keyword = String.make 131_072 'k'

(* [fan] leaves in [leaf_store], every other one carrying [keyword],
   and a root in [root_store] pointing at each; returns the root. *)
let load_fan ~root_store ~leaf_store ~keyword fan =
  let leaves =
    List.init fan (fun i ->
        let oid = Store.fresh_oid leaf_store in
        Store.insert leaf_store
          (Hf_data.Hobject.of_tuples oid
             (if i mod 2 = 0 then [ Tuple.keyword keyword ] else [ Tuple.number ~key:"id" i ]));
        oid)
  in
  let root = Store.fresh_oid root_store in
  Store.insert root_store
    (Hf_data.Hobject.of_tuples root (List.map (fun leaf -> Tuple.pointer ~key:"R" leaf) leaves));
  root

let fan_program keyword =
  parse_program (Printf.sprintf "(Pointer, \"R\", ?X) ^^X (Keyword, \"%s\", ?)" keyword)

let oracle stores program initial =
  let store = Store.create ~site:0 in
  List.iter (fun s -> Store.iter s (Store.insert store)) stores;
  (Hf_engine.Local.run_store ~store program initial).Hf_engine.Local.result_set

(* Site 1 stops reading (a proxy in front of it holds its socket
   unread).  Site 0's frames for it must queue in site 0's buffers
   while site 0 keeps serving: registry reads and a query through
   site 2 complete.  Once the proxy reads again, every frame reaches
   site 1 in send order (reliable sequence numbers 1, 2, 3, ... with no
   gap), and the stalled query returns the oracle's answer. *)
let test_stalled_peer () =
  let slow_acks =
    (* no retransmission during the stall, so the sequence check is exact *)
    {
      Hf_proto.Reliable.ack_timeout = 30.0;
      backoff = 2.0;
      max_timeout = 60.0;
      max_retries = 3;
      ack_delay = 0.01;
    }
  in
  let sites = Array.init 3 (fun site -> Tcp.create ~site ~reliability:slow_acks ()) in
  let proxy = fake_site ~rcvbuf:4096 () in
  let addresses = Array.map Tcp.address sites in
  Tcp.set_peers sites.(0) [| addresses.(0); Unix.getsockname proxy; addresses.(2) |];
  Tcp.set_peers sites.(1) addresses;
  Tcp.set_peers sites.(2) addresses;
  let release = Atomic.make false in
  let seqs = ref [] in
  let forwarder =
    Thread.create
      (fun () ->
        match Unix.accept proxy with
        | exception Unix.Unix_error _ -> () (* the test gave up first *)
        | from_site0, _ ->
          while not (Atomic.get release) do
            Thread.delay 0.01
          done;
          let to_site1 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect to_site1 addresses.(1);
          let decoder = Frame.Decoder.create () in
          let chunk = Bytes.create 65536 in
          let rec pipe () =
            let n = Unix.read from_site0 chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              let (_ : int) = Unix.write to_site1 chunk 0 n in
              Frame.Decoder.feed_bytes decoder chunk 0 n;
              List.iter
                (fun payload ->
                  match Codec.decode_enveloped payload with
                  | Ok (_, _, Some { Codec.seq; _ }) when seq > 0 -> seqs := seq :: !seqs
                  | Ok _ -> ()
                  | Error err -> failwith err)
                (Frame.Decoder.drain decoder);
              pipe ()
            end
          in
          (try pipe () with Unix.Unix_error _ -> ());
          Unix.close to_site1;
          Unix.close from_site0)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Array.iter Tcp.shutdown sites;
      (* wakes the forwarder if site 0 never connected *)
      (try Unix.shutdown proxy Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join forwarder;
      Unix.close proxy)
    (fun () ->
      let program = fan_program big_keyword in
      let stalled_root =
        load_fan ~root_store:(Tcp.store sites.(0)) ~leaf_store:(Tcp.store sites.(1))
          ~keyword:big_keyword 48
      in
      let free_root =
        load_fan ~root_store:(Tcp.store sites.(0)) ~leaf_store:(Tcp.store sites.(2))
          ~keyword:"hot" 6
      in
      let stores = Array.to_list (Array.map Tcp.store sites) in
      let stalled = Tcp.submit_query sites.(0) program [ stalled_root ] in
      eventually "site 0 queues frames for the stalled peer" (fun () ->
          queued_bytes sites.(0) > 0);
      let free =
        within ~seconds:10.0 "a query through site 2" (fun () ->
            Tcp.run_query ~timeout:10.0 sites.(0) (fan_program "hot") [ free_root ])
      in
      check_bool "the other query completes" true (free.Tcp.status = Tcp.Complete);
      check_bool "with the oracle's answer" true
        (Oid.Set.equal free.Tcp.result_set (oracle stores (fan_program "hot") [ free_root ]));
      let still =
        within ~seconds:10.0 "await on the stalled query" (fun () ->
            Tcp.await ~timeout:0.1 sites.(0) stalled)
      in
      check_bool "the stalled query is still waiting" true (still.Tcp.status = Tcp.Timed_out);
      check_bool "its frames are still queued" true
        (within ~seconds:10.0 "a registry read" (fun () -> queued_bytes sites.(0)) > 0);
      Atomic.set release true;
      let outcome = Tcp.await ~timeout:30.0 sites.(0) stalled in
      check_bool "the stalled query completes" true (outcome.Tcp.status = Tcp.Complete);
      check_bool "with the oracle's answer" true
        (Oid.Set.equal outcome.Tcp.result_set (oracle stores program [ stalled_root ]));
      check_int "half the fan passes" 24 (Oid.Set.cardinal outcome.Tcp.result_set);
      eventually "the backlog drains" (fun () -> queued_bytes sites.(0) = 0);
      let seqs = List.rev !seqs in
      check_bool "at least one frame per remote item" true (List.length seqs >= 48);
      check_bool "frames arrived in send order, none missing" true
        (seqs = List.init (List.length seqs) (fun i -> i + 1)))

(* Site 0 with a query's 48 frames queued for a fake peer in slot 1
   that accepted the connection and does not read it. *)
let with_stalled_site f =
  let site = Tcp.create ~site:0 () in
  let peer = fake_site ~rcvbuf:4096 () in
  Tcp.set_peers site [| Tcp.address site; Unix.getsockname peer |];
  let leaves = Store.create ~site:1 in
  let root = load_fan ~root_store:(Tcp.store site) ~leaf_store:leaves ~keyword:big_keyword 48 in
  let (_ : Tcp.handle) = Tcp.submit_query site (fan_program big_keyword) [ root ] in
  let held = accept_within peer in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close held;
      Unix.close peer)
    (fun () ->
      eventually "frames queue for the stalled peer" (fun () -> queued_bytes site > 0);
      f site held)

(* [shutdown] while a peer has stopped reading returns promptly: the
   site gives up on the stalled socket instead of waiting on it. *)
let test_shutdown_during_stall () =
  with_stalled_site (fun site _ -> within ~seconds:5.0 "shutdown" (fun () -> Tcp.shutdown site))

(* A refused write resumes as soon as the peer reads again, with no
   other traffic to wake the site: every frame arrives whole. *)
let test_refused_write_resumes () =
  with_stalled_site (fun site held ->
      Thread.delay 0.1;
      check_int "every frame arrives" 48 (List.length (read_messages ~quiet:1.0 held));
      check_int "nothing left queued" 0 (queued_bytes site))

(* [set_peers] retires a connection whose peer stopped reading: the
   site gives it up after 50 ms without progress and closes it, so the
   old peer reads what its socket took, far less than was queued, and
   then EOF; queries then go to the live site now in that slot. *)
let test_retire_stalled_connection () =
  let sites = Array.init 2 (fun site -> Tcp.create ~site ()) in
  let addresses = Array.map Tcp.address sites in
  let peer = fake_site ~rcvbuf:4096 () in
  Tcp.set_peers sites.(0) [| addresses.(0); Unix.getsockname peer |];
  Tcp.set_peers sites.(1) addresses;
  Fun.protect
    ~finally:(fun () ->
      Array.iter Tcp.shutdown sites;
      Unix.close peer)
    (fun () ->
      let fan keyword n =
        load_fan ~root_store:(Tcp.store sites.(0)) ~leaf_store:(Tcp.store sites.(1)) ~keyword n
      in
      let stalled_root = fan big_keyword 48 in
      let (_ : Tcp.handle) = Tcp.submit_query sites.(0) (fan_program big_keyword) [ stalled_root ] in
      let held = accept_within peer in
      Fun.protect
        ~finally:(fun () -> Unix.close held)
        (fun () ->
          eventually "frames queue for the unread peer" (fun () -> queued_bytes sites.(0) > 0);
          let queued = queued_bytes sites.(0) in
          Tcp.set_peers sites.(0) addresses;
          (* past the 50 ms without progress *)
          Thread.delay 0.2;
          let chunk = Bytes.create 65536 in
          let deadline = Unix.gettimeofday () +. 2.0 in
          let rec read_to_eof got =
            match Unix.select [ held ] [] [] (Float.max 0.0 (deadline -. Unix.gettimeofday ())) with
            | [], _, _ -> Alcotest.failf "no EOF within 2 s (%d bytes read)" got
            | _ -> (
                match Unix.read held chunk 0 (Bytes.length chunk) with
                | 0 -> got
                | n -> read_to_eof (got + n))
          in
          let got = read_to_eof 0 in
          check_bool "the peer reads the bytes its socket took" true (got > 0);
          check_bool (Printf.sprintf "and not the rest (%d of %d)" got queued) true (got < queued));
      let free_root = fan "hot" 6 in
      let outcome = Tcp.run_query ~timeout:10.0 sites.(0) (fan_program "hot") [ free_root ] in
      check_bool "the query through the new site completes" true (outcome.Tcp.status = Tcp.Complete);
      check_bool "with the oracle's answer" true
        (Oid.Set.equal outcome.Tcp.result_set
           (oracle
              (Array.to_list (Array.map Tcp.store sites))
              (fan_program "hot") [ free_root ])))

let test_many_queries_stress () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      for _ = 1 to 10 do
        let outcome = Tcp.run_query sites.(0) closure [ oids.(0) ] in
        check_bool "terminated" true outcome.Tcp.terminated;
        check_int "stable" 4 (List.length outcome.Tcp.results)
      done)

(* The process's threads, or [None] without /proc. *)
let thread_count () =
  match Sys.readdir "/proc/self/task" with
  | tasks -> Some (Array.length tasks)
  | exception Sys_error _ -> None

let counter site name =
  match Hf_obs.Registry.find (Tcp.registry site) name with
  | Some (Hf_obs.Registry.Counter read) -> read ()
  | Some _ | None -> Alcotest.failf "%s counter missing" name

(* A site runs one thread, its event loop: three wired sites with
   reliability and a monitor listener hold 3 threads once their queries
   are done, and none once shut down.  Shutting a site down while it
   retransmits to a shut-down peer returns promptly. *)
let test_thread_inventory () =
  match thread_count () with
  | None -> () (* no /proc/self/task to count *)
  | Some _ ->
    (* the runtime starts its tick thread with the first thread, and
       threads of earlier cases may still be ending *)
    Thread.join (Thread.create ignore ());
    let rec settled n =
      Thread.delay 0.05;
      let m = Option.get (thread_count ()) in
      if m < n then settled m else m
    in
    let baseline = settled (Option.get (thread_count ())) in
    let above () = Option.get (thread_count ()) - baseline in
    let settles ~at_most =
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec go () =
        let n = above () in
        if n <= at_most || Unix.gettimeofday () > deadline then n
        else begin
          Thread.delay 0.01;
          go ()
        end
      in
      go ()
    in
    let sites =
      Array.init 3 (fun site ->
          Tcp.create ~site ~reliability:fast_reliability ~monitor_port:0 ())
    in
    let addresses = Array.map Tcp.address sites in
    Array.iter (fun site -> Tcp.set_peers site addresses) sites;
    Fun.protect
      ~finally:(fun () -> Array.iter Tcp.shutdown sites)
      (fun () ->
        (* every directed connection exists once each site has pulled *)
        Array.iter (fun site -> ignore (Tcp.pull_stats site)) sites;
        let oids = load_ring sites 12 in
        Array.iter
          (fun site ->
            check_bool "ring query complete" true
              ((Tcp.run_query site closure [ oids.(0) ]).Tcp.status = Tcp.Complete))
          sites;
        let n = settles ~at_most:3 in
        check_bool (Printf.sprintf "%d threads above the baseline: at most one per site" n)
          true (n <= 3);
        Tcp.shutdown sites.(2);
        (* ring object 2 lives on site 2, which answers nothing *)
        let (_ : Tcp.handle) = Tcp.submit_query sites.(0) closure [ oids.(2) ] in
        eventually "site 0 retransmits" (fun () -> counter sites.(0) "hf.net.retransmits" > 0);
        within ~seconds:5.0 "shutdown while retransmitting" (fun () -> Tcp.shutdown sites.(0));
        Tcp.shutdown sites.(1);
        let n = settles ~at_most:0 in
        check_bool (Printf.sprintf "%d threads above the baseline once all are shut down" n) true
          (n <= 0))

(* A shut-down site refuses new queries and answers every other call
   at once, since no loop is left to wait on.  Site 1 is shut down
   first, so the query site 0 submits can never finish. *)
let test_calls_after_shutdown () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      Tcp.shutdown sites.(1);
      let site = sites.(0) in
      let handle = Tcp.submit_query site closure [ oids.(0) ] in
      Tcp.shutdown site;
      let refused =
        within ~seconds:1.0 "submit_query" (fun () ->
            match Tcp.submit_query site closure [ oids.(0) ] with
            | (_ : Tcp.handle) -> false
            | exception Failure _ -> true)
      in
      check_bool "submit_query raises Failure" true refused;
      within ~seconds:1.0 "cancel" (fun () -> Tcp.cancel site handle);
      let outcome = within ~seconds:1.0 "await" (fun () -> Tcp.await site handle) in
      check_bool "the query never finished" false outcome.Tcp.terminated;
      check_int "the unfinished query's context" 1
        (within ~seconds:1.0 "context_count" (fun () -> Tcp.context_count site));
      check_int "its admission slot" 1
        (within ~seconds:1.0 "the admission gate" (fun () ->
             Tcp.admission_running site + Tcp.admission_queued site));
      check_bool "registry reads" true
        (within ~seconds:1.0 "a registry read" (fun () ->
             Hf_obs.Registry.snapshot (Tcp.registry site) <> []));
      ignore (within ~seconds:1.0 "known_peer_stats" (fun () -> Tcp.known_peer_stats site));
      Alcotest.(check (list int)) "pull_stats returns the site's own" [ 0 ]
        (List.map fst (within ~seconds:1.0 "pull_stats" (fun () -> Tcp.pull_stats site))))

(* Site 0 drains a purely local 100,000-object chain, and a one-hop
   query from site 1 through an object on site 0 is submitted right
   after it.  The loop reads and answers between the chain's slices, so
   the short query returns in well under half the chain's time. *)
let test_long_drain_interleaves () =
  with_sites 2 (fun sites ->
      let store = Tcp.store sites.(0) in
      let n = 100_000 in
      let chain = Array.init n (fun _ -> Store.fresh_oid store) in
      Array.iteri
        (fun i oid ->
          Store.insert store
            (Hf_data.Hobject.of_tuples oid
               (if i + 1 < n then [ Tuple.pointer ~key:"R" chain.(i + 1) ]
                else [ Tuple.keyword "hot" ])))
        chain;
      let target = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples target [ Tuple.keyword "hot" ]);
      let one_hop = parse_program "(Keyword, \"hot\", ?)" in
      let long = Tcp.submit_query sites.(0) closure [ chain.(0) ] in
      let short = Tcp.run_query sites.(1) one_hop [ target ] in
      let long = Tcp.await ~timeout:60.0 sites.(0) long in
      check_bool "the chain completes" true (long.Tcp.status = Tcp.Complete);
      check_bool "the one-hop query completes" true (short.Tcp.status = Tcp.Complete);
      check_bool "with the oracle's answer" true
        (Oid.Set.equal short.Tcp.result_set
           (oracle (Array.to_list (Array.map Tcp.store sites)) one_hop [ target ]));
      check_bool
        (Printf.sprintf "in under half the chain's time (%.3f s, chain %.3f s)"
           short.Tcp.response_time long.Tcp.response_time)
        true
        (short.Tcp.response_time < long.Tcp.response_time /. 2.0))

(* --- site ids from the wire --- *)

(* One reliable frame from fake site [src] (0 here), as [Tcp_site]
   would write it. *)
let rel_frame ?(src = 0) ~seq message =
  Frame.frame (Codec.encode ~rel:{ Codec.src; seq; ack = 0 } message)

(* A frame that names a site outside the cluster, or does not decode,
   is dropped at the door: the frame after it on the same connection is
   still handled, it leaves no context behind, and the site keeps
   acking.  Site 1 stands between a fake site 0 and itself; [bad]
   arrives first, then a [Stats_report] from site 0 that only a live
   connection can deliver. *)
let unknown_site_dropped bad () =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 ~reliability:fast_reliability () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let sender = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sender)
        (fun () ->
          Unix.connect sender (Tcp.address site);
          let write frame =
            check_int "written" (String.length frame)
              (Unix.write_substring sender frame 0 (String.length frame))
          in
          write bad;
          (* long enough for a bad frame to close the connection or stop the site *)
          Thread.delay 0.2;
          write
            (rel_frame ~seq:2
               (Message.Stats_report
                  {
                    src = 0;
                    token = 0;
                    stats = [ { Message.name = "probe.good"; value = Message.Stat_counter 1 } ];
                  }));
          eventually "the next frame is handled" (fun () ->
              match List.assoc_opt 0 (Tcp.known_peer_stats site) with
              | Some snap -> List.mem_assoc "probe.good" snap
              | None -> false);
          check_int "no context left behind" 0 (Tcp.context_count site);
          let back = accept_within origin in
          Fun.protect
            ~finally:(fun () -> Unix.close back)
            (fun () ->
              let decoder = Frame.Decoder.create () in
              let chunk = Bytes.create 4096 in
              let acked () =
                List.exists
                  (fun payload ->
                    match Codec.decode_enveloped payload with
                    | Ok (Message.Link_ack, _, Some { Codec.src = 1; _ }) -> true
                    | Ok _ | Error _ -> false)
                  (Frame.Decoder.drain decoder)
              in
              let rec wait_ack deadline =
                if Unix.gettimeofday () > deadline then Alcotest.fail "site 1 stopped acking"
                else
                  match Unix.select [ back ] [] [] 0.1 with
                  | [], _, _ -> wait_ack deadline
                  | _ ->
                    let n = Unix.read back chunk 0 (Bytes.length chunk) in
                    if n = 0 then Alcotest.fail "site 1 closed the link";
                    Frame.Decoder.feed_bytes decoder chunk 0 n;
                    if not (acked ()) then wait_ack deadline
              in
              wait_ack (Unix.gettimeofday () +. 5.0))))

let unknown = 9

let test_unknown_stats_pull_src =
  unknown_site_dropped (rel_frame ~seq:1 (Message.Stats_pull { src = unknown; token = 1 }))

let test_unknown_query_originator =
  let program = parse_program "(Keyword, \"hot\", ?)" in
  unknown_site_dropped
    (rel_frame ~seq:1
       (Message.Deref_request
          {
            query = { Message.originator = unknown; serial = 1 };
            body = program;
            oid = Oid.make ~birth_site:1 ~serial:1;
            start = 0;
            iters = [||];
            credit = Credit.atoms Credit.one;
          }))

let test_unknown_envelope_src =
  unknown_site_dropped
    (rel_frame ~src:unknown ~seq:1 (Message.Stats_report { src = 0; token = 0; stats = [] }))

(* Each of [ns] as a wire varint. *)
let varints ns =
  let buf = Buffer.create 32 in
  List.iter (Codec.write_varint buf) ns;
  Buffer.contents buf

(* A 19-byte Cache_answers message, behind a reliability envelope from
   site 0 (seq 1), whose one answer claims 2^55 iterator counters and
   carries one.  The decoder rejects the count; it once passed it to
   [Array.init], whose exception escaped [Codec.decode] and killed the
   reader. *)
let test_huge_iters_count_dropped =
  unknown_site_dropped
    (Frame.frame (varints [ 126; 0; 1; 0; 8; 0; 1; 0; 0; 1; 0; 1; 0; 0; 1 lsl 55; 0 ]))

(* --- roles from the wire --- *)

let foreign_query = { Message.originator = 0; serial = 7 }

(* Site 1's first query. *)
let next_query = { Message.originator = 1; serial = 0 }

let hot = parse_program "(Keyword, \"hot\", ?)"

(* A Work_batch group of [hot] for [query], shipping [oid] with [credit]. *)
let hot_group query oid credit =
  let wi = Hf_engine.Work_item.initial (Hf_engine.Plan.make hot) oid in
  {
    Message.query;
    body = hot;
    items = [ wi ];
    credit = Credit.atoms credit;
  }

(* Site 1 between a fake origin 0 and itself, holding one object that
   fails [(Keyword, "hot", ?)].  [frames oid half] is written to site 1
   and must leave it holding its one context for [foreign_query], with
   origin 0 hearing back exactly one Credit_return for it carrying
   [half], the credit of the work it shipped. *)
let with_foreign_origin frames =
  let origin = fake_site () in
  let site = Tcp.create ~site:1 () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close origin)
    (fun () ->
      Tcp.set_peers site [| Unix.getsockname origin; Tcp.address site |];
      let store = Tcp.store site in
      let oid = Store.fresh_oid store in
      Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "cold" ]);
      let _, half = Credit.split Credit.one in
      write_frames site (frames oid half);
      let back = accept_within origin in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          match read_messages back with
          | [ Message.Credit_return { query = q; credit } ] ->
            check_bool "for the query" true (Message.equal_query_id q foreign_query);
            check_bool "the half credit" true (Credit.equal (Credit.of_atoms credit) half)
          | messages ->
            Alcotest.failf "expected one Credit_return, got %d message(s): %a"
              (List.length messages)
              Fmt.(list ~sep:comma Message.pp)
              messages);
      check_int "site 1 keeps its context" 1 (Tcp.context_count site))

(* Answers go only to a query's originator.  Site 1 holds a context for
   query {0,7} of a fake origin 0 after a Deref_request carrying half
   the credit; an [answer] for {0,7} carrying all of it must not make
   site 1 declare the query terminated. *)
let foreign_answer_dropped answer () =
  with_foreign_origin (fun oid half ->
      [ deref_frame ~query:foreign_query hot oid half;
        Frame.frame (Codec.encode (answer (Credit.atoms Credit.one)));
      ])

let test_foreign_answer_dropped =
  foreign_answer_dropped (fun credit -> Message.Credit_return { query = foreign_query; credit })

let test_foreign_result_dropped =
  foreign_answer_dropped (fun credit ->
      Message.Result { query = foreign_query; payload = Message.Items []; bindings = []; credit })

let test_foreign_gather_dropped =
  foreign_answer_dropped (fun credit ->
      Message.Gather_result { query = foreign_query; src = 0; nodes = []; credit })

(* Of a [Work_batch], only the groups out of role are dropped: next to
   the group for {0,7}, which site 1 runs and answers, a group naming
   site 1's own next query {1,0} opens no context and sends nothing. *)
let test_batch_keeps_groups_in_role () =
  with_foreign_origin (fun oid half ->
      [ Frame.frame
          (Codec.encode
             (Message.Work_batch
                [ hot_group foreign_query oid half; hot_group next_query oid Credit.one ]));
      ])

(* A Deref_request for query {0,8} whose credit atom is 2^-(2^41), past
   [Credit.exponent_cap], is dropped at decode: it opens no context and
   sends no credit back, and the frame after it is handled.  Before the
   cap such an atom was banked; split at [max_int] it wrapped to a
   negative exponent, and the drain raised with its context stranded. *)
let test_atom_past_cap_dropped () =
  with_foreign_origin (fun oid half ->
      let wi = Hf_engine.Work_item.initial (Hf_engine.Plan.make hot) oid in
      [ Frame.frame
          (Codec.encode
             (Message.Deref_request
                {
                  query = { Message.originator = 0; serial = 8 };
                  body = hot;
                  oid;
                  start = Hf_engine.Work_item.start wi;
                  iters = Hf_engine.Work_item.iters wi;
                  credit = [ 1 lsl 41 ];
                }));
        deref_frame ~query:foreign_query hot oid half;
      ])

(* Only site 1 issues queries {1,_}.  A forged frame naming its next
   query, {1,0}, must neither run it here as if submitted (work or a
   Scatter, which would terminate it and tombstone {1,0}) nor close it
   (a Query_done, which would tombstone {1,0}): the real query {1,0}, a
   ring walk over both sites, would then lose its returning work and
   time out.  The Stats_report behind [bad] shows site 1 has handled
   it. *)
let forged_origin_frame bad () =
  with_sites 2 (fun sites ->
      let a = Store.fresh_oid (Tcp.store sites.(0)) in
      let b = Store.fresh_oid (Tcp.store sites.(1)) in
      Store.insert (Tcp.store sites.(0))
        (Hf_data.Hobject.of_tuples a [ Tuple.pointer ~key:"R" b; Tuple.keyword "hot" ]);
      Store.insert (Tcp.store sites.(1))
        (Hf_data.Hobject.of_tuples b [ Tuple.pointer ~key:"R" a; Tuple.keyword "hot" ]);
      write_frames sites.(1)
        [ bad b;
          Frame.frame
            (Codec.encode
               (Message.Stats_report
                  {
                    src = 0;
                    token = 0;
                    stats = [ { Message.name = "probe.good"; value = Message.Stat_counter 1 } ];
                  }));
        ];
      eventually "the forged frame is handled" (fun () ->
          match List.assoc_opt 0 (Tcp.known_peer_stats sites.(1)) with
          | Some snap -> List.mem_assoc "probe.good" snap
          | None -> false);
      let outcome = Tcp.run_query ~timeout:5.0 sites.(1) closure [ a ] in
      check_bool "complete" true (outcome.Tcp.status = Tcp.Complete);
      check_int "both objects" 2 (List.length outcome.Tcp.results))

let test_forged_work_for_own_query =
  forged_origin_frame (fun b -> deref_frame ~query:next_query hot b Credit.one)

let test_forged_batch_for_own_query =
  forged_origin_frame (fun b ->
      Frame.frame (Codec.encode (Message.Work_batch [ hot_group next_query b Credit.one ])))

let test_forged_scatter_for_own_query =
  forged_origin_frame (fun b ->
      Frame.frame
        (Codec.encode
           (Message.Scatter
              { query = next_query; body = hot; roots = [ b ]; credit = Credit.atoms Credit.one })))

let test_forged_done_for_own_query =
  forged_origin_frame (fun _ ->
      Frame.frame (Codec.encode (Message.Query_done { query = next_query; src = 0 })))

(* --- destinations outside the cluster --- *)

(* An oid born at site 9, outside every cluster here: a pointer to it
   dangles, as one to an object no store holds does. *)
let dangling = Oid.make ~birth_site:9 ~serial:1

(* Site 0 of two holds [a]: a pointer to [dangling], and "hot". *)
let load_dangling site =
  let a = Store.fresh_oid (Tcp.store site) in
  Store.insert (Tcp.store site)
    (Hf_data.Hobject.of_tuples a [ Tuple.pointer ~key:"R" dangling; Tuple.keyword "hot" ]);
  a

(* [initial]'s closure on [site] completes with the local engine's
   answer over [site]'s store. *)
let answers_locally site initial =
  let local = Hf_engine.Local.run_store ~store:(Tcp.store site) closure initial in
  let outcome = Tcp.run_query ~timeout:5.0 site closure initial in
  check_bool "complete" true (outcome.Tcp.status = Tcp.Complete);
  check_bool "the local answer" true
    (Oid.Set.equal local.Hf_engine.Local.result_set outcome.Tcp.result_set)

(* The spawn toward [dangling] is dropped before it reaches a batcher
   or a reliable link.  Past a few retransmission timeouts the site
   answers again: no frame for site 9 waits in a link, whose
   retransmission would end the event loop. *)
let test_dangling_pointer () =
  with_sites ~reliability:fast_reliability 2 (fun sites ->
      let a = load_dangling sites.(0) in
      answers_locally sites.(0) [ a ];
      Thread.delay 0.3;
      answers_locally sites.(0) [ a ])

(* A client seed born at site 9 is dropped like the pointer. *)
let test_dangling_seed () =
  with_sites 2 (fun sites ->
      let a = load_dangling sites.(0) in
      answers_locally sites.(0) [ a; dangling ])

(* The first frame that arrives on [fd], decoded. *)
let first_message fd =
  let decoder = Frame.Decoder.create () in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Frame.Decoder.next decoder with
    | Some payload -> Codec.decode_exn payload
    | None -> (
        match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.fail "no frame arrived"
        | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then Alcotest.fail "the connection closed";
          Frame.Decoder.feed_bytes decoder chunk 0 n;
          go ())
  in
  go ()

(* Site 0 scatters the closure to a fake site 1, which answers with a
   forged Gather_result: its one node, the seed [b], passes and spawns
   [dangling].  The stitch falls back to shipping that edge, and the
   pointer dangles: the query ends Complete over [a] and [b], and the
   site keeps serving. *)
let test_forged_gather_spawns_outside () =
  let fake = fake_site () in
  let site =
    Tcp.create ~site:0 ~reliability:fast_reliability ~exec:Tcp.Exec_scatter ()
  in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown site;
      Unix.close fake)
    (fun () ->
      Tcp.set_peers site [| Tcp.address site; Unix.getsockname fake |];
      let a = Store.fresh_oid (Tcp.store site) in
      Store.insert (Tcp.store site)
        (Hf_data.Hobject.of_tuples a [ Tuple.pointer ~key:"R" a; Tuple.keyword "hot" ]);
      let b = Oid.make ~birth_site:1 ~serial:1 in
      let handle = Tcp.submit_query site closure [ a; b ] in
      let back = accept_within fake in
      Fun.protect
        ~finally:(fun () -> Unix.close back)
        (fun () ->
          match first_message back with
          | Message.Scatter { query; credit; _ } ->
            let node =
              { Hf_engine.Scatter.oid = b; start = 0; passed = true; visited = [ 0 ];
                spawns = [ (dangling, 1) ]; bindings = [] }
            in
            write_frames site
              [ Frame.frame
                  (Codec.encode ~rel:{ Codec.src = 1; seq = 1; ack = 1 }
                     (Message.Gather_result { query; src = 1; nodes = [ node ]; credit }));
              ]
          | message -> Alcotest.failf "expected a Scatter, got %a" Message.pp message);
      let outcome = Tcp.await ~timeout:5.0 site handle in
      check_bool "complete" true (outcome.Tcp.status = Tcp.Complete);
      check_bool "a and b" true (Oid.Set.equal (Oid.Set.of_list [ a; b ]) outcome.Tcp.result_set);
      Thread.delay 0.3;
      let again = Tcp.run_query ~timeout:5.0 site hot [ a ] in
      check_bool "the site keeps serving" true (again.Tcp.status = Tcp.Complete))

(* Minor words per query of a cross-site walk: three sites with the
   noop tracer and a 12-object ring spread over them, the closure run 20
   times after one warm-up.  The sites' loops run on the test's domain,
   so [Gc.minor_words] counts their allocation too.  About 31,950 words
   when every frame formatted its span's query name, name and detail
   with tracing off, with credit as a map and marks as set nodes; about
   11,600 once a disabled tracer costs a branch, credit is an array and
   zero-counter marks are bits (x86-64, OCaml 5.1, five runs each).  The
   bound sits halfway. *)
let test_walk_allocation () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      let run () =
        check_bool "complete" true
          ((Tcp.run_query sites.(0) closure [ oids.(0) ]).Tcp.status = Tcp.Complete)
      in
      run ();
      let before = Gc.minor_words () in
      for _ = 1 to 20 do
        run ()
      done;
      let per_query = (Gc.minor_words () -. before) /. 20.0 in
      check_bool
        (Printf.sprintf "%.0f words per query, bound 21,800" per_query)
        true (per_query < 21_800.0))

(* The samples [hf.net.query_rtt_s] holds at [site]. *)
let rtt_samples site =
  match Hf_obs.Registry.find (Tcp.registry site) "hf.net.query_rtt_s" with
  | Some (Hf_obs.Registry.Histogram h) -> Hf_obs.Histogram.count h
  | Some _ | None -> Alcotest.fail "hf.net.query_rtt_s histogram missing"

(* [hf.net.query_rtt_s] holds one sample per query issued here that
   ends Complete or Partial, however often it is awaited: none for a
   timed-out await, none for a cancelled query. *)
let test_query_rtt_once_per_query () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 6 in
      let handle = Tcp.submit_query sites.(0) closure [ oids.(0) ] in
      for _ = 1 to 3 do
        check_bool "complete" true ((Tcp.await sites.(0) handle).Tcp.status = Tcp.Complete)
      done;
      check_int "one sample for three awaits" 1 (rtt_samples sites.(0));
      (* the ring runs 0 -> 1 -> 2: with site 2 gone the query is stuck *)
      Tcp.shutdown sites.(2);
      let stuck = Tcp.submit_query sites.(0) closure [ oids.(0) ] in
      check_bool "timed out" true
        ((Tcp.await ~timeout:0.3 sites.(0) stuck).Tcp.status = Tcp.Timed_out);
      Tcp.cancel sites.(0) stuck;
      check_bool "cancelled" true ((Tcp.await sites.(0) stuck).Tcp.status = Tcp.Cancelled);
      check_int "no sample for a timed-out or cancelled query" 1 (rtt_samples sites.(0)))

(* A query that ends Partial — retransmission to a dead site gave up —
   is answered, so it records its one sample too, however often it is
   awaited. *)
let test_query_rtt_partial () =
  with_sites ~reliability:fast_reliability 3 (fun sites ->
      let oids = load_ring sites 12 in
      Tcp.shutdown sites.(2);
      let handle = Tcp.submit_query sites.(0) closure [ oids.(0) ] in
      for _ = 1 to 2 do
        check_bool "partial naming site 2" true
          ((Tcp.await ~timeout:10.0 sites.(0) handle).Tcp.status = Tcp.Partial [ 2 ])
      done;
      check_int "one sample for the partial query" 1 (rtt_samples sites.(0)))

(* --- cluster-wide stats and profiles (DESIGN.md §4i) --- *)

(* [with_sites] plus the observability knobs. *)
let with_obs_sites ?tracer ?monitor_port n f =
  let sites = Array.init n (fun site -> Tcp.create ~site ?tracer ?monitor_port ()) in
  let addresses = Array.map Tcp.address sites in
  Array.iter (fun site -> Tcp.set_peers site addresses) sites;
  Fun.protect ~finally:(fun () -> Array.iter Tcp.shutdown sites) (fun () -> f sites)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* Acceptance: a [Stats_pull] broadcast from one site of a 3-site TCP
   cluster returns every peer's registry — including the gauges over
   previously-dark state (admission gate, reliable links, answer
   cache) — and the merged cluster view sums counters site-exactly. *)
let test_stats_pull_three_sites () =
  with_sites 3 (fun sites ->
      let oids = load_ring sites 12 in
      let (_ : Tcp.outcome) = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      let stats = Tcp.pull_stats sites.(0) in
      Alcotest.(check (list int)) "every site reports, ascending" [ 0; 1; 2 ]
        (List.map fst stats);
      let counter snap name =
        match List.assoc_opt name snap with
        | Some (Hf_obs.Registry.Counter_value n) -> n
        | Some _ -> Alcotest.failf "%s is not a counter" name
        | None -> Alcotest.failf "%s missing from a report" name
      in
      List.iter
        (fun (site, snap) ->
          List.iter
            (fun name ->
              match List.assoc_opt name snap with
              | Some (Hf_obs.Registry.Gauge_value _) -> ()
              | Some _ -> Alcotest.failf "site %d: %s is not a gauge" site name
              | None -> Alcotest.failf "site %d: %s missing from the report" site name)
            [
              "hf.net.sched_tenants";
              "hf.net.link_in_flight";
              "hf.net.link_ack_backlog";
              "hf.net.cache_entries";
              "hf.net.trace_sample_rate";
            ];
          (match List.assoc_opt "hf.net.admission_wait_s" snap with
           | Some (Hf_obs.Registry.Histogram_value _) -> ()
           | _ -> Alcotest.failf "site %d: admission_wait_s histogram missing" site);
          ignore (counter snap "hf.net.messages_sent"))
        stats;
      (* the ring query crossed the network, so some peer's own counter
         says so — proof the numbers are the peers', not defaults *)
      let per_site = List.map (fun (_, snap) -> counter snap "hf.net.messages_sent") stats in
      check_bool "query traffic visible in the reports" true
        (List.exists (fun n -> n > 0) per_site);
      (* merging the pulled snapshots sums counters exactly *)
      let merged = Hf_obs.Registry.merge_snapshots (List.map snd stats) in
      check_int "merged counter = sum over sites"
        (List.fold_left ( + ) 0 per_site)
        (counter merged "hf.net.messages_sent"))

(* The always-on monitoring surface: connect to the monitor port, read
   to EOF, get this site's registry as Prometheus text.  A lone site's
   [pull_stats] has no peer to wait for. *)
(* The Prometheus text [site]'s monitor port serves. *)
let monitor_text site =
  match Tcp.monitor_address site with
  | None -> Alcotest.fail "monitor_port 0 should bind an ephemeral port"
  | Some addr ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock addr;
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let n = Unix.read sock chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          end
        in
        (try drain () with End_of_file -> ());
        Buffer.contents buf)

let test_monitor_surface () =
  with_obs_sites ~monitor_port:0 1 (fun sites ->
      let oids = load_ring sites 6 in
      let (_ : Tcp.outcome) = Tcp.run_query sites.(0) closure [ oids.(0) ] in
      Alcotest.(check (list int)) "a lone site pulls its own stats at once" [ 0 ]
        (List.map fst (within ~seconds:1.0 "pull_stats" (fun () -> Tcp.pull_stats sites.(0))));
        let text = monitor_text sites.(0) in
        check_bool "TYPE line for the message counter" true
          (contains text "# TYPE hf_net_messages_sent counter");
        check_bool "series carry the site label" true (contains text "site=\"0\"");
        check_bool "sched gauge exposed" true (contains text "hf_net_sched_tenants");
        check_bool "admission-wait histogram exposed" true
          (contains text "hf_net_admission_wait_s_bucket"))

(* Queries running and queued and live contexts are levels that fall:
   a site's snapshot samples them as gauges, and its Prometheus dump
   types them so.  As counters, [Registry.diff] of one that fell read
   0. *)
let test_level_metrics_are_gauges () =
  with_obs_sites ~monitor_port:0 1 (fun sites ->
      let levels = [ "queries_running"; "queries_queued"; "contexts_live" ] in
      let snapshot = Hf_obs.Registry.snapshot (Tcp.registry sites.(0)) in
      List.iter
        (fun level ->
          check_bool (level ^ " sampled as a gauge") true
            (match List.assoc_opt ("hf.net." ^ level) snapshot with
             | Some (Hf_obs.Registry.Gauge_value _) -> true
             | Some _ | None -> false))
        levels;
      let text = monitor_text sites.(0) in
      List.iter
        (fun level ->
          check_bool (level ^ " typed gauge") true
            (contains text ("# TYPE hf_net_" ^ level ^ " gauge")))
        levels)

(* EXPLAIN ANALYZE over real sockets: the profile's scalars are the
   outcome's exact per-query counters, and the span-derived view is
   structurally consistent with it (TCP mirror of test_server's sim
   reconciliation differential). *)
let test_profile_reconciles_over_tcp () =
  let tracer = Hf_obs.Tracer.create ~clock:Unix.gettimeofday () in
  with_obs_sites ~tracer 3 (fun sites ->
      let oids = load_ring sites 12 in
      let handle = Tcp.submit_query sites.(0) closure [ oids.(0) ] in
      let outcome = Tcp.await sites.(0) handle in
      check_bool "terminated" true outcome.Tcp.terminated;
      let module P = Hf_obs.Profile in
      let p = Tcp.profile sites.(0) handle outcome in
      let scalar name =
        match P.scalar_int p name with
        | Some n -> n
        | None -> Alcotest.failf "scalar %s missing" name
      in
      check_int "messages scalar = outcome" outcome.Tcp.messages_sent (scalar "messages_sent");
      check_int "bytes scalar = outcome" outcome.Tcp.bytes_sent (scalar "bytes_sent");
      check_int "results scalar = outcome" (List.length outcome.Tcp.results) (scalar "results");
      (match P.scalar_float p "response_time_s" with
       | Some rt ->
         Alcotest.(check (float 1e-9)) "response time pinned" outcome.Tcp.response_time rt
       | None -> Alcotest.fail "response_time_s scalar missing");
      (* the root Query span opens inside submit and closes inside
         await, so its duration brackets the measured response time —
         real clocks, so a coarse envelope rather than the sim's exact
         tie *)
      check_bool "span total brackets the response time" true
        (p.P.total_s > 0.0 && Float.abs (p.P.total_s -. outcome.Tcp.response_time) < 0.5);
      check_bool "cross-site rounds observed" true (p.P.rounds >= 1);
      check_int "all three sites appear" 3 (List.length p.P.sites);
      check_bool "some site shipped work" true
        (List.exists (fun r -> r.P.ships > 0) p.P.sites);
      check_int "no dropped spans" 0 p.P.dropped_spans)

let () =
  Alcotest.run "hf_net"
    [
      ( "tcp protocol",
        [
          Alcotest.test_case "single site" `Quick test_single_site_query;
          Alcotest.test_case "three sites over TCP" `Quick test_three_sites_over_tcp;
          Alcotest.test_case "matches the local engine" `Quick test_matches_local_engine;
          Alcotest.test_case "a program past 62 filters matches" `Quick
            test_padded_program_matches;
          Alcotest.test_case "retrieve over TCP" `Quick test_retrieve_over_tcp;
          Alcotest.test_case "sequential queries" `Quick test_sequential_queries;
          Alcotest.test_case "dead peer: timeout + partial results" `Quick
            test_dead_peer_times_out_with_partial_results;
          Alcotest.test_case "reliable delivery matches plain" `Quick test_reliable_matches_plain;
          Alcotest.test_case "dead peer with reliability: explicit partial" `Quick
            test_dead_peer_partial_with_reliability;
          Alcotest.test_case "remote initial set" `Quick test_concurrent_remote_seeds;
          Alcotest.test_case "batched fan-out" `Quick test_batched_fan_out;
          Alcotest.test_case "batched ring matches local engine" `Quick
            test_batched_matches_local_engine;
          Alcotest.test_case "repeated queries" `Quick test_many_queries_stress;
          Alcotest.test_case "thread inventory, shutdown while retransmitting" `Quick
            test_thread_inventory;
          Hf_test_harness.qtest
            (prop_tcp_matches_local "TCP = local engine on random datasets");
          Hf_test_harness.qtest
            (prop_tcp_matches_local ~reliability:fast_reliability
               "TCP = local engine on random datasets, reliability on");
          Alcotest.test_case "calls on a shut-down site return at once" `Quick
            test_calls_after_shutdown;
          Alcotest.test_case "a long drain does not hold back other traffic" `Quick
            test_long_drain_interleaves;
          Alcotest.test_case "a pointer outside the cluster dangles" `Quick
            test_dangling_pointer;
          Alcotest.test_case "a seed outside the cluster dangles" `Quick test_dangling_seed;
        ] );
      ( "frame path",
        [
          Alcotest.test_case "a scatter behind pending work: its share goes home with the work"
            `Quick test_scatter_reply_behind_pending_work;
          Alcotest.test_case "one credit return per read" `Quick
            test_one_credit_return_per_read;
          Alcotest.test_case "oversized header closes the connection" `Quick
            test_oversized_header_closes_connection;
          Alcotest.test_case "oversized header first: nothing handled" `Quick
            test_oversized_header_first;
          Alcotest.test_case "frames after an oversized header dropped" `Quick
            test_frames_after_oversized_header_dropped;
          Alcotest.test_case "oversized header split across reads" `Quick
            test_oversized_header_split_across_reads;
          Alcotest.test_case "stalled peer: frames queue, lock stays free" `Quick
            test_stalled_peer;
          Alcotest.test_case "shutdown during a stall does not hang" `Quick
            test_shutdown_during_stall;
          Alcotest.test_case "refused write resumes when the peer reads" `Quick
            test_refused_write_resumes;
          Alcotest.test_case "retired stalled connection is given up" `Quick
            test_retire_stalled_connection;
          Alcotest.test_case "unknown Stats_pull src dropped" `Quick
            test_unknown_stats_pull_src;
          Alcotest.test_case "unknown query originator dropped" `Quick
            test_unknown_query_originator;
          Alcotest.test_case "unknown envelope src dropped" `Quick test_unknown_envelope_src;
          Alcotest.test_case "huge iterator count dropped" `Quick test_huge_iters_count_dropped;
          Alcotest.test_case "misfit work item dropped, credit kept" `Quick
            test_misfit_item_dropped;
          Alcotest.test_case "a raising drain spares the site" `Quick
            test_raising_drain_spares_the_site;
          Alcotest.test_case "a raising drain evicts its context" `Quick
            test_raising_drain_evicts_its_context;
          Alcotest.test_case "answers for another origin's query dropped" `Quick
            test_foreign_answer_dropped;
          Alcotest.test_case "forged work for an own query dropped" `Quick
            test_forged_work_for_own_query;
          Alcotest.test_case "forged Query_done for an own query dropped" `Quick
            test_forged_done_for_own_query;
          Alcotest.test_case "a Result for another origin's query dropped" `Quick
            test_foreign_result_dropped;
          Alcotest.test_case "a Gather_result for another origin's query dropped" `Quick
            test_foreign_gather_dropped;
          Alcotest.test_case "a Work_batch keeps its groups in role" `Quick
            test_batch_keeps_groups_in_role;
          Alcotest.test_case "forged Work_batch for an own query dropped" `Quick
            test_forged_batch_for_own_query;
          Alcotest.test_case "forged Scatter for an own query dropped" `Quick
            test_forged_scatter_for_own_query;
          Alcotest.test_case "a credit atom past the cap dropped" `Quick
            test_atom_past_cap_dropped;
          Alcotest.test_case "a gathered spawn outside the cluster dangles" `Quick
            test_forged_gather_spawns_outside;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats pull across three sites" `Quick test_stats_pull_three_sites;
          Alcotest.test_case "monitor surface serves Prometheus text" `Quick
            test_monitor_surface;
          Alcotest.test_case "level metrics are gauges" `Quick test_level_metrics_are_gauges;
          Alcotest.test_case "profile reconciles with outcome" `Quick
            test_profile_reconciles_over_tcp;
          Alcotest.test_case "query_rtt: one sample per query" `Quick
            test_query_rtt_once_per_query;
          Alcotest.test_case "query_rtt: a Partial query counts once" `Quick
            test_query_rtt_partial;
          Alcotest.test_case "a walk's allocation with tracing off" `Quick test_walk_allocation;
        ] );
    ]
