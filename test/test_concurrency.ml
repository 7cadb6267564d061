(* Concurrent-query tests (DESIGN.md §4h): the admission/scheduling
   layer itself, and the end-to-end guarantees it must preserve on both
   engines — N in-flight queries return exactly the solo answers, every
   per-site table returns to empty at terminal status, per-query metrics
   never bleed across overlapping queries, shutdown under load is clean,
   and the admission gate caps / queues / rejects / cancels as
   documented.

   Set HF_STRESS=1 to extend the churn test to a ~20 s soak (CI runs it
   as a separate job). *)

module Oid = Hf_data.Oid
module Store = Hf_data.Store
module Cluster = Hf_server.Cluster
module Sched = Hf_server.Sched
module Tcp = Hf_net.Tcp_site

(* the ring corpus and the TCP site scaffolding live in the shared
   harness ([ring_tuples], [with_tcp_sites], [load_tcp_ring]) *)
open Hf_test_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse_program = Hf_query.Parser.parse_program

let stress = Sys.getenv_opt "HF_STRESS" = Some "1"

(* ------------------------------------------------------------------ *)
(* Sched unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_rr_single_tenant_fifo () =
  let q = Sched.Rr.create () in
  List.iter (fun i -> Sched.Rr.push q ~tenant:0 i) [ 1; 2; 3; 4 ];
  check_int "length" 4 (Sched.Rr.length q);
  check_int "tenants" 1 (Sched.Rr.tenants q);
  let drained = List.init 4 (fun _ -> Option.get (Sched.Rr.pop q)) in
  (* single tenant = exact FIFO: the pre-concurrency queue order *)
  check_bool "FIFO order" true (drained = [ 1; 2; 3; 4 ]);
  check_bool "empty" true (Sched.Rr.is_empty q);
  check_bool "pop on empty" true (Sched.Rr.pop q = None)

let test_rr_round_robin_across_tenants () =
  let q = Sched.Rr.create () in
  (* tenant 1 enters the ring first with two items, tenant 2 with three *)
  Sched.Rr.push q ~tenant:1 "a1";
  Sched.Rr.push q ~tenant:1 "a2";
  Sched.Rr.push q ~tenant:2 "b1";
  Sched.Rr.push q ~tenant:2 "b2";
  Sched.Rr.push q ~tenant:2 "b3";
  check_int "tenants" 2 (Sched.Rr.tenants q);
  let drained = List.init 5 (fun _ -> Option.get (Sched.Rr.pop q)) in
  (* alternating until tenant 1 drains, then tenant 2's tail: one
     chatty tenant cannot starve another *)
  check_bool "fair interleaving" true (drained = [ "a1"; "b1"; "a2"; "b2"; "b3" ]);
  check_bool "empty" true (Sched.Rr.is_empty q)

let test_rr_remove () =
  let q = Sched.Rr.create () in
  Sched.Rr.push q ~tenant:0 10;
  Sched.Rr.push q ~tenant:0 11;
  Sched.Rr.push q ~tenant:1 20;
  check_bool "removes matching item" true (Sched.Rr.remove q (fun x -> x = 11) = Some 11);
  check_bool "no match" true (Sched.Rr.remove q (fun x -> x = 99) = None);
  check_int "two left" 2 (Sched.Rr.length q);
  let drained = List.init 2 (fun _ -> Option.get (Sched.Rr.pop q)) in
  check_bool "others untouched" true (List.sort compare drained = [ 10; 20 ])

let test_gate_cap_queue_reject () =
  let g =
    Sched.create { Sched.in_flight_cap = Some 2; max_queued = Some 1; link_window = None }
  in
  check_bool "first runs" true (Sched.admit g ~tenant:0 "a" = Sched.Run);
  check_bool "second runs" true (Sched.admit g ~tenant:0 "b" = Sched.Run);
  check_bool "third queues" true (Sched.admit g ~tenant:0 "c" = Sched.Queued);
  check_bool "fourth rejected" true (Sched.admit g ~tenant:0 "d" = Sched.Rejected);
  check_int "running" 2 (Sched.running g);
  check_int "queued" 1 (Sched.queued g);
  (* a finished query's slot goes straight to the queued job *)
  check_bool "release hands slot over" true (Sched.release g = Some "c");
  check_int "still two running" 2 (Sched.running g);
  check_int "queue drained" 0 (Sched.queued g);
  check_bool "release with empty queue" true (Sched.release g = None);
  check_int "one running" 1 (Sched.running g)

let test_gate_cancel_queued () =
  let g =
    Sched.create { Sched.in_flight_cap = Some 1; max_queued = None; link_window = None }
  in
  check_bool "admitted" true (Sched.admit g ~tenant:0 "run" = Sched.Run);
  check_bool "queued" true (Sched.admit g ~tenant:0 "wait" = Sched.Queued);
  check_bool "cancel finds it" true (Sched.cancel_queued g (fun x -> x = "wait") = Some "wait");
  check_int "queue empty" 0 (Sched.queued g);
  (* the cancelled job must not take the freed slot *)
  check_bool "nothing waiting" true (Sched.release g = None);
  check_int "idle" 0 (Sched.running g)

let test_gate_unlimited_and_validate () =
  let g = Sched.create Sched.unlimited in
  for i = 1 to 100 do
    check_bool "always runs" true (Sched.admit g ~tenant:(i mod 7) i = Sched.Run)
  done;
  check_int "all running" 100 (Sched.running g);
  (try
     Sched.validate { Sched.in_flight_cap = Some 0; max_queued = None; link_window = None };
     Alcotest.fail "cap 0 must be rejected"
   with Invalid_argument _ -> ());
  try
    Sched.validate { Sched.in_flight_cap = None; max_queued = None; link_window = Some 0 };
    Alcotest.fail "window 0 must be rejected"
  with Invalid_argument _ -> ()

let programs =
  [
    "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X ]^3 (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X ]* (Number, \"id\", 0..4)";
    "(Pointer, \"R\", ?X) ^^X (?, ?, ?)";
  ]
  |> List.map parse_program

(* ------------------------------------------------------------------ *)
(* Simulated cluster: per-detector battery                             *)
(* ------------------------------------------------------------------ *)

module Sim_battery (D : Hf_termination.Detector.S) = struct
  module C = Cluster.Make (D)

  let make ?(config = Cluster.default_config) ~n_sites n =
    let cluster = C.create ~config ~n_sites () in
    let oids = Array.init n (fun i -> Store.fresh_oid (C.store cluster (i mod n_sites))) in
    Array.iteri
      (fun i oid ->
        Store.insert (C.store cluster (i mod n_sites))
          (Hf_data.Hobject.of_tuples oid (ring_tuples oids n i)))
      oids;
    (cluster, oids)

  (* Satellite 1: every context and buffered-item entry is evicted at
     terminal status — a long run of queries leaves the per-site tables
     exactly empty, without any [forget_query] help. *)
  let leak_regression () =
    let n_queries = 1000 in
    let cluster, oids = make ~n_sites:3 12 in
    let queries = ref [] in
    for i = 0 to n_queries - 1 do
      let program = List.nth programs (i mod List.length programs) in
      let handle = C.submit cluster ~origin:(i mod 3) program [ oids.(i mod 12) ] in
      C.await_quiescence cluster;
      queries := C.query_id handle :: !queries;
      check_bool "terminated" true (C.outcome cluster handle).Cluster.terminated
    done;
    check_int "contexts evicted" 0 (C.context_count cluster);
    check_int "out_pending drained" 0 (C.buffered_count cluster);
    (* retained result sets survive eviction (Section 5 re-querying)
       until the client forgets the query *)
    check_bool "retained survive" true (C.retained_count cluster > 0);
    List.iter (C.forget_query cluster) !queries;
    check_int "retained freed on forget" 0 (C.retained_count cluster)

  (* Concurrent submissions return exactly the solo answers, for this
     detector, with and without loss (reliability recovers drops).  The
     termination detector converging — [terminated] — is precisely
     "recovered credit = 1" at the origin. *)
  let concurrent_matches_solo ~loss () =
    let n_sites = 3 and n = 12 in
    let config =
      { Cluster.default_config with
        loss;
        reliability = (if loss > 0.0 then Some Hf_proto.Reliable.default else None) }
    in
    let solo_cluster, solo_oids = make ~n_sites n in
    let solo =
      List.mapi
        (fun i program ->
          let outcome =
            C.run_query solo_cluster ~origin:(i mod n_sites) program [ solo_oids.(i mod n) ]
          in
          check_bool "solo terminated" true outcome.Cluster.terminated;
          outcome.Cluster.result_set)
        programs
    in
    let cluster, oids = make ~config ~n_sites n in
    let handles =
      List.mapi
        (fun i program -> C.submit cluster ~origin:(i mod n_sites) program [ oids.(i mod n) ])
        programs
    in
    C.await_quiescence cluster;
    List.iteri
      (fun i handle ->
        let outcome = C.outcome cluster handle in
        check_bool
          (Fmt.str "query %d recovered its credit (loss %.2f)" i loss)
          true outcome.Cluster.terminated;
        check_bool
          (Fmt.str "query %d matches its solo run (loss %.2f)" i loss)
          true
          (Oid.Set.equal outcome.Cluster.result_set (List.nth solo i)))
      handles;
    check_int "contexts evicted" 0 (C.context_count cluster);
    check_int "out_pending drained" 0 (C.buffered_count cluster)
end

module Sim_weighted = Sim_battery (Hf_termination.Weighted)
module Sim_ds = Sim_battery (Hf_termination.Dijkstra_scholten)
module Sim_fc = Sim_battery (Hf_termination.Four_counter)
module SW = Sim_weighted.C

(* Satellite 3 on the sim: per-query metrics are attributed to their
   own query under overlap — each concurrent submission reports exactly
   the work-message count its solo run reports. *)
let test_sim_metrics_no_bleed () =
  let solo_cluster, solo_oids = Sim_weighted.make ~n_sites:3 12 in
  let solo_counts =
    List.mapi
      (fun i program ->
        let outcome =
          SW.run_query solo_cluster ~origin:(i mod 3) program [ solo_oids.(i mod 12) ]
        in
        outcome.Cluster.metrics.Hf_server.Metrics.work_messages)
      programs
  in
  let cluster, oids = Sim_weighted.make ~n_sites:3 12 in
  let handles =
    List.mapi (fun i program -> SW.submit cluster ~origin:(i mod 3) program [ oids.(i mod 12) ]) programs
  in
  SW.await_quiescence cluster;
  List.iteri
    (fun i handle ->
      let outcome = SW.outcome cluster handle in
      check_int
        (Fmt.str "query %d work messages unchanged by neighbors" i)
        (List.nth solo_counts i)
        outcome.Cluster.metrics.Hf_server.Metrics.work_messages)
    handles

(* The differential suites re-run under concurrency: batching and the
   remote cache must stay result-transparent when queries overlap. *)
let test_sim_differential_under_concurrency () =
  let run config =
    let cluster, oids = Sim_weighted.make ~config ~n_sites:3 12 in
    let handles =
      List.mapi (fun i program -> SW.submit cluster ~origin:(i mod 3) program [ oids.(i mod 12) ]) programs
    in
    SW.await_quiescence cluster;
    List.map
      (fun handle ->
        let outcome = SW.outcome cluster handle in
        check_bool "terminated" true outcome.Cluster.terminated;
        outcome.Cluster.result_set)
      handles
  in
  let base = run Cluster.default_config in
  let batched = run { Cluster.default_config with batch = Hf_proto.Batch.Flush_at 4 } in
  let cached = run { Cluster.default_config with cache = Some Hf_index.Remote_cache.default } in
  List.iteri
    (fun i (b, p) ->
      check_bool (Fmt.str "batched query %d transparent" i) true (Oid.Set.equal b p))
    (List.combine base batched);
  List.iteri
    (fun i (b, p) ->
      check_bool (Fmt.str "cached query %d transparent" i) true (Oid.Set.equal b p))
    (List.combine base cached)

(* Admission gate end-to-end on the sim: cap, fair queueing, rejection,
   and cancellation of both queued and running submissions. *)
let test_sim_admission_gate () =
  let config =
    { Cluster.default_config with
      admission = { Sched.in_flight_cap = Some 2; max_queued = Some 2; link_window = None } }
  in
  let cluster, oids = Sim_weighted.make ~config ~n_sites:3 12 in
  let program = List.hd programs in
  let submit () = SW.submit cluster ~origin:0 program [ oids.(0) ] in
  let handles = List.init 4 (fun _ -> submit ()) in
  check_int "two admitted" 2 (SW.admission_running cluster ~origin:0);
  check_int "two queued" 2 (SW.admission_queued cluster ~origin:0);
  (try
     ignore (submit ());
     Alcotest.fail "fifth submission must be rejected"
   with Failure _ -> ());
  (* cancel one queued submission; the remaining three run to completion *)
  let victim = List.nth handles 3 in
  SW.cancel cluster victim;
  check_bool "cancelled flag" true (SW.cancelled victim);
  check_int "one queued" 1 (SW.admission_queued cluster ~origin:0);
  SW.await_quiescence cluster;
  List.iteri
    (fun i handle ->
      if i < 3 then begin
        let outcome = SW.outcome cluster handle in
        check_bool (Fmt.str "query %d terminated" i) true outcome.Cluster.terminated
      end)
    handles;
  check_int "gate idle" 0 (SW.admission_running cluster ~origin:0);
  check_int "queue empty" 0 (SW.admission_queued cluster ~origin:0);
  check_int "contexts evicted" 0 (SW.context_count cluster)

let test_sim_cancel_running () =
  let cluster, oids = Sim_weighted.make ~n_sites:3 12 in
  let program = List.hd programs in
  let keep = SW.submit cluster ~origin:0 program [ oids.(0) ] in
  let victim = SW.submit cluster ~origin:1 program [ oids.(1) ] in
  SW.cancel cluster victim;
  SW.cancel cluster victim;
  (* idempotent *)
  check_bool "cancelled" true (SW.cancelled victim);
  SW.await_quiescence cluster;
  let outcome = SW.outcome cluster keep in
  check_bool "neighbor unaffected" true outcome.Cluster.terminated;
  check_int "results" 4 (List.length outcome.Cluster.results);
  check_int "contexts evicted" 0 (SW.context_count cluster);
  check_int "out_pending drained" 0 (SW.buffered_count cluster)

(* ------------------------------------------------------------------ *)
(* TCP engine                                                          *)
(* ------------------------------------------------------------------ *)

(* Peer-side eviction rides the [Query_done] broadcast, which arrives a
   beat after the origin's [await] returns — poll briefly instead of
   asserting instantly. *)
let eventually ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let total_contexts sites = Array.fold_left (fun acc s -> acc + Tcp.context_count s) 0 sites

(* On TCP, queries leave every site's context table empty and keep no
   memory per query.  The live heap is compared across a
   window of queries run after the 1024-entry tombstone tables have
   filled, so even a few words kept per query (a thread handle in a
   list, say) show up as growth.  Every query originates at site 0, so
   its per-query histogram reservoirs, which grow by doubling, stay at
   2048 samples for the whole window (1041 to 2040 samples). *)
let test_tcp_leak_regression () =
  let clients = 8 and warm_up = 1040 and window = 1000 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  with_tcp_sites 2 (fun sites ->
      let oids = load_tcp_ring sites 6 in
      let program = List.hd programs in
      let unfinished = Atomic.make 0 in
      let run count =
        let client c () =
          let i = ref c in
          while !i < count do
            let outcome = Tcp.run_query sites.(0) program [ oids.(!i mod 6) ] in
            if not outcome.Tcp.terminated then Atomic.incr unfinished;
            i := !i + clients
          done
        in
        List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
        check_bool "all contexts evicted" true
          (eventually (fun () -> total_contexts sites = 0))
      in
      run warm_up;
      let before = live_words () in
      run window;
      let after = live_words () in
      check_int "every query terminated" 0 (Atomic.get unfinished);
      let per_query = float_of_int (after - before) /. float_of_int window in
      check_bool
        (Fmt.str "live heap flat across the window (%.2f words per query)" per_query)
        true (per_query < 2.0))

(* Shutdown with queries mid-flight (and the reliable links polling)
   must neither hang nor crash, whatever the interleaving. *)
let test_tcp_shutdown_under_load () =
  let fast =
    { Hf_proto.Reliable.ack_timeout = 0.05; backoff = 2.0; max_timeout = 0.2;
      max_retries = 5; ack_delay = 0.01 }
  in
  for round = 0 to 7 do
    let reliability = if round mod 2 = 0 then Some fast else None in
    let sites = Array.init 3 (fun site -> Tcp.create ~site ?reliability ()) in
    let addresses = Array.map Tcp.address sites in
    Array.iter (fun site -> Tcp.set_peers site addresses) sites;
    let oids = load_tcp_ring sites 12 in
    let handles =
      List.init 3 (fun i -> Tcp.submit_query sites.(i) (List.hd programs) [ oids.(i) ])
    in
    ignore handles;
    (* vary how far the queries get before the axe falls *)
    if round mod 3 > 0 then Thread.delay (0.002 *. float_of_int round);
    Array.iter Tcp.shutdown sites;
    (* idempotent *)
    Array.iter Tcp.shutdown sites
  done;
  check_bool "survived shutdown churn" true true

(* Satellite 3 on TCP: [outcome.messages_sent] is per-query.  The ring
   walk is a deterministic chain, so a query overlapped by three
   concurrent copies must report exactly its solo message count —
   any cross-query bleed shows up as a diff. *)
let test_tcp_metrics_no_bleed () =
  with_tcp_sites 3 (fun sites ->
      let oids = load_tcp_ring sites 12 in
      let program = List.hd programs in
      let solo = Tcp.run_query sites.(0) program [ oids.(0) ] in
      check_bool "solo terminated" true solo.Tcp.terminated;
      check_bool "solo crossed the network" true (solo.Tcp.messages_sent > 0);
      let handles = List.init 4 (fun _ -> Tcp.submit_query sites.(0) program [ oids.(0) ]) in
      let outcomes = List.map (Tcp.await sites.(0)) handles in
      List.iteri
        (fun i outcome ->
          check_bool (Fmt.str "copy %d terminated" i) true outcome.Tcp.terminated;
          check_int
            (Fmt.str "copy %d messages = solo messages" i)
            solo.Tcp.messages_sent outcome.Tcp.messages_sent;
          check_int
            (Fmt.str "copy %d bytes = solo bytes" i)
            solo.Tcp.bytes_sent outcome.Tcp.bytes_sent)
        outcomes)

(* Satellite 4 on TCP: K concurrent queries (mixed programs, several
   origins) return byte-identical result sets to their solo runs.  The
   TCP transport has no loss-injection hook, so only the loss = 0 point
   runs here; the lossy points run on the sim battery above. *)
let test_tcp_concurrent_matches_solo () =
  with_tcp_sites 3 (fun sites ->
      let oids = load_tcp_ring sites 12 in
      let solo =
        List.mapi
          (fun i program ->
            let o = Tcp.run_query sites.(i mod 3) program [ oids.(i mod 12) ] in
            check_bool "solo terminated" true o.Tcp.terminated;
            o.Tcp.result_set)
          programs
      in
      let handles =
        List.mapi
          (fun i program -> (i, Tcp.submit_query sites.(i mod 3) program [ oids.(i mod 12) ]))
          programs
      in
      List.iter
        (fun (i, handle) ->
          let outcome = Tcp.await sites.(i mod 3) handle in
          check_bool (Fmt.str "query %d terminated" i) true outcome.Tcp.terminated;
          check_bool
            (Fmt.str "query %d matches its solo run" i)
            true
            (Oid.Set.equal outcome.Tcp.result_set (List.nth solo i)))
        handles;
      check_bool "all contexts evicted" true
        (eventually (fun () -> total_contexts sites = 0)))

(* Same property with batching on: concurrent queries share the
   per-destination batcher, and the answers must not change. *)
let test_tcp_concurrent_batched_matches_solo () =
  with_tcp_sites ~batch:(Hf_proto.Batch.Flush_at 4) 3 (fun sites ->
      let oids = load_tcp_ring sites 12 in
      let solo =
        List.mapi
          (fun i program ->
            (Tcp.run_query sites.(i mod 3) program [ oids.(i mod 12) ]).Tcp.result_set)
          programs
      in
      let handles =
        List.mapi
          (fun i program -> (i, Tcp.submit_query sites.(i mod 3) program [ oids.(i mod 12) ]))
          programs
      in
      List.iter
        (fun (i, handle) ->
          let outcome = Tcp.await sites.(i mod 3) handle in
          check_bool (Fmt.str "batched query %d terminated" i) true outcome.Tcp.terminated;
          check_bool
            (Fmt.str "batched query %d matches its solo run" i)
            true
            (Oid.Set.equal outcome.Tcp.result_set (List.nth solo i)))
        handles)

let test_tcp_admission_gate () =
  let admission = { Sched.in_flight_cap = Some 1; max_queued = Some 1; link_window = None } in
  with_tcp_sites ~admission 3 (fun sites ->
      (* a long ring keeps the first query busy while we stack up more *)
      let oids = load_tcp_ring sites 60 in
      let program = List.hd programs in
      let first = Tcp.submit_query sites.(0) program [ oids.(0) ] in
      let second = Tcp.submit_query sites.(0) program [ oids.(0) ] in
      check_int "one admitted" 1 (Tcp.admission_running sites.(0));
      check_int "one queued" 1 (Tcp.admission_queued sites.(0));
      (try
         ignore (Tcp.submit_query sites.(0) program [ oids.(0) ]);
         Alcotest.fail "third submission must be rejected"
       with Failure _ -> ());
      let o1 = Tcp.await sites.(0) first in
      let o2 = Tcp.await sites.(0) second in
      check_bool "first terminated" true o1.Tcp.terminated;
      check_bool "queued query ran after it" true o2.Tcp.terminated;
      check_bool "same answer" true (Oid.Set.equal o1.Tcp.result_set o2.Tcp.result_set);
      check_int "gate idle" 0 (Tcp.admission_running sites.(0));
      check_int "queue empty" 0 (Tcp.admission_queued sites.(0)))

(* The running query cannot finish before it is cancelled: its seed on
   site 0 points at an object on site 2, which is shut down first, and
   with reliability off the refused frame's credit never comes home.
   The queued and fresh queries walk a ring over the live sites. *)
let test_tcp_cancel () =
  let admission = { Sched.in_flight_cap = Some 1; max_queued = Some 2; link_window = None } in
  with_tcp_sites ~admission 3 (fun sites ->
      Tcp.shutdown sites.(2);
      let oids = load_tcp_ring [| sites.(0); sites.(1) |] 60 in
      let program = List.hd programs in
      let lost = Oid.make ~birth_site:2 ~serial:1 in
      let held = Store.fresh_oid (Tcp.store sites.(0)) in
      Store.insert (Tcp.store sites.(0))
        (Hf_data.Hobject.of_tuples held [ Hf_data.Tuple.pointer ~key:"R" lost ]);
      let running = Tcp.submit_query sites.(0) program [ held ] in
      let queued = Tcp.submit_query sites.(0) program [ oids.(0) ] in
      (* cancelling the queued one never lets it take the slot *)
      Tcp.cancel sites.(0) queued;
      Tcp.cancel sites.(0) queued;
      (* idempotent *)
      check_int "queue empty after cancel" 0 (Tcp.admission_queued sites.(0));
      let oq = Tcp.await sites.(0) queued in
      check_bool "queued one reports cancelled" true (oq.Tcp.status = Tcp.Cancelled);
      (* cancelling the running one frees its slot and evicts everywhere *)
      Tcp.cancel sites.(0) running;
      let orun = Tcp.await sites.(0) running in
      check_bool "running one reports cancelled" true (orun.Tcp.status = Tcp.Cancelled);
      check_bool "not terminated" false orun.Tcp.terminated;
      check_int "gate idle" 0 (Tcp.admission_running sites.(0));
      check_bool "contexts evicted at every site" true
        (eventually (fun () -> total_contexts sites = 0));
      (* the site is still healthy for the next query *)
      let after = Tcp.run_query sites.(0) program [ oids.(0) ] in
      check_bool "fresh query unaffected" true after.Tcp.terminated)

(* Many queries churning through a capped gate from several origins at
   once; under HF_STRESS=1 this soaks for ~20 s. *)
let test_tcp_churn () =
  let admission = { Sched.in_flight_cap = Some 4; max_queued = None; link_window = None } in
  with_tcp_sites ~admission 3 (fun sites ->
      let oids = load_tcp_ring sites 12 in
      let duration = if stress then 20.0 else 0.6 in
      let deadline = Unix.gettimeofday () +. duration in
      let rounds = ref 0 in
      while Unix.gettimeofday () < deadline do
        let handles =
          List.concat_map
            (fun origin ->
              List.mapi
                (fun i program ->
                  (origin, Tcp.submit_query sites.(origin) program [ oids.(i mod 12) ]))
                programs)
            [ 0; 1; 2 ]
        in
        List.iteri
          (fun i (origin, handle) ->
            let outcome = Tcp.await sites.(origin) handle in
            if i mod 5 = 4 then Tcp.cancel sites.(origin) handle;
            (* cancel after the fact is a no-op *)
            check_bool "terminated" true outcome.Tcp.terminated)
          handles;
        incr rounds
      done;
      check_bool "made progress" true (!rounds > 0);
      check_bool "all contexts evicted" true
        (eventually (fun () -> total_contexts sites = 0));
      Array.iter
        (fun site ->
          check_int "gate idle" 0 (Tcp.admission_running site);
          check_int "queue empty" 0 (Tcp.admission_queued site))
        sites)

let () =
  Alcotest.run "hf_concurrency"
    [
      ( "sched",
        [
          Alcotest.test_case "Rr: single tenant is FIFO" `Quick test_rr_single_tenant_fifo;
          Alcotest.test_case "Rr: round-robin across tenants" `Quick
            test_rr_round_robin_across_tenants;
          Alcotest.test_case "Rr: remove" `Quick test_rr_remove;
          Alcotest.test_case "gate: cap, queue, reject, release" `Quick
            test_gate_cap_queue_reject;
          Alcotest.test_case "gate: cancel queued" `Quick test_gate_cancel_queued;
          Alcotest.test_case "gate: unlimited + validate" `Quick
            test_gate_unlimited_and_validate;
        ] );
      ( "sim cluster",
        [
          Alcotest.test_case "1000 queries leak nothing" `Quick Sim_weighted.leak_regression;
          Alcotest.test_case "concurrent = solo (weighted)" `Quick
            (Sim_weighted.concurrent_matches_solo ~loss:0.0);
          Alcotest.test_case "concurrent = solo (weighted, lossy)" `Quick
            (Sim_weighted.concurrent_matches_solo ~loss:0.05);
          Alcotest.test_case "concurrent = solo (Dijkstra-Scholten)" `Quick
            (Sim_ds.concurrent_matches_solo ~loss:0.0);
          Alcotest.test_case "concurrent = solo (Dijkstra-Scholten, lossy)" `Quick
            (Sim_ds.concurrent_matches_solo ~loss:0.05);
          Alcotest.test_case "concurrent = solo (four-counter)" `Quick
            (Sim_fc.concurrent_matches_solo ~loss:0.0);
          Alcotest.test_case "concurrent = solo (four-counter, lossy)" `Quick
            (Sim_fc.concurrent_matches_solo ~loss:0.05);
          Alcotest.test_case "metrics do not bleed" `Quick test_sim_metrics_no_bleed;
          Alcotest.test_case "batch/cache differentials hold under concurrency" `Quick
            test_sim_differential_under_concurrency;
          Alcotest.test_case "admission gate" `Quick test_sim_admission_gate;
          Alcotest.test_case "cancel a running query" `Quick test_sim_cancel_running;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "1000 queries leak nothing" `Quick test_tcp_leak_regression;
          Alcotest.test_case "shutdown under load" `Quick test_tcp_shutdown_under_load;
          Alcotest.test_case "metrics do not bleed" `Quick test_tcp_metrics_no_bleed;
          Alcotest.test_case "concurrent = solo" `Quick test_tcp_concurrent_matches_solo;
          Alcotest.test_case "concurrent = solo (batched)" `Quick
            test_tcp_concurrent_batched_matches_solo;
          Alcotest.test_case "admission gate" `Quick test_tcp_admission_gate;
          Alcotest.test_case "cancel" `Quick test_tcp_cancel;
          Alcotest.test_case "churn" `Quick test_tcp_churn;
        ] );
    ]
