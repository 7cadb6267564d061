(* Tests for the distributed server.  The central property — the paper's
   correctness claim — is that distributed processing with query
   shipping returns exactly the same result set as single-site
   processing, for every termination detector, any placement, and any
   query from the supported shapes.  Plus: the distributed-set (counts)
   mode, failure injection (partial results), the local-vs-global mark
   table ablation, and message accounting. *)

open Hf_test_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hf_query.Parser.parse_body

(* Materialize on the cluster: oids are born at their placement site. *)
module Load (C : sig
  type t

  val store : t -> int -> Store.t
end) =
struct
  let load cluster ds =
    let oids = Array.init ds.n (fun i -> Store.fresh_oid (C.store cluster ds.placement.(i))) in
    Array.iteri
      (fun i oid ->
        Store.insert (C.store cluster ds.placement.(i)) (Hf_data.Hobject.of_tuples oid (tuples_of ds oids i)))
      oids;
    oids
end

let queries =
  [
    "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X ]^3 (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^X ]* (?, ?, ?)";
    "(Pointer, \"S\", ?X) ^^X (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X (Pointer, \"S\", ?Y) ^^Y ]^2 (Number, \"id\", 0..9)";
    "[ (Pointer, \"R\", ?X) ^^X ]* (Number, \"id\", ->ids)";
  ]

(* Functor: the same battery for every termination detector. *)
module Battery (D : Hf_termination.Detector.S) = struct
  module C = Hf_server.Cluster.Make (D)
  module L = Load (C)

  let run_once ~seed =
    let prng = Hf_util.Prng.create seed in
    let n_sites = 1 + Hf_util.Prng.next_int prng 5 in
    let ds = random_dataset prng ~n_sites in
    let cluster = C.create ~n_sites () in
    let oids = L.load cluster ds in
    let query = parse (List.nth queries (Hf_util.Prng.next_int prng (List.length queries))) in
    let origin = Hf_util.Prng.next_int prng n_sites in
    let n_initial = 1 + Hf_util.Prng.next_int prng 3 in
    let initial_logical =
      List.sort_uniq compare (List.init n_initial (fun _ -> Hf_util.Prng.next_int prng ds.n))
    in
    let outcome =
      C.run_query cluster ~origin (Hf_query.Compile.compile query)
        (List.map (fun i -> oids.(i)) initial_logical)
    in
    let got = logical_results oids outcome.Cluster.result_set in
    let got_bindings = sorted_bindings outcome.Cluster.bindings in
    let expected, expected_bindings = local_oracle ds query initial_logical in
    outcome.Cluster.terminated && got = expected && got_bindings = expected_bindings

  let prop name =
    QCheck2.Test.make ~name ~count:120 QCheck2.Gen.int (fun seed -> run_once ~seed)
end

module Weighted_battery = Battery (Hf_termination.Weighted)
module Ds_battery = Battery (Hf_termination.Dijkstra_scholten)
module Fc_battery = Battery (Hf_termination.Four_counter)

(* The same battery under heavy message reordering: every message gets
   up to 200 ms of extra random transit, so work, result and control
   messages overtake each other freely.  Under Dijkstra–Scholten a
   site's result goes home bare while its ack climbs the tree, so a
   result can land after termination; it still joins the answer, which
   is read once the run is quiescent. *)
module Jitter_battery (D : Hf_termination.Detector.S) = struct
  module C = Hf_server.Cluster.Make (D)
  module L = Load (C)

  let run_once ~seed =
    let prng = Hf_util.Prng.create seed in
    let n_sites = 2 + Hf_util.Prng.next_int prng 4 in
    let ds = random_dataset prng ~n_sites in
    let config =
      { Cluster.default_config with Cluster.jitter = 0.2; jitter_seed = seed }
    in
    let cluster = C.create ~config ~n_sites () in
    let oids = L.load cluster ds in
    let query = parse (List.nth queries (Hf_util.Prng.next_int prng (List.length queries))) in
    let origin = Hf_util.Prng.next_int prng n_sites in
    let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
    let outcome =
      C.run_query cluster ~origin (Hf_query.Compile.compile query)
        (List.map (fun i -> oids.(i)) initial_logical)
    in
    let got = logical_results oids outcome.Cluster.result_set in
    let expected, expected_bindings = local_oracle ds query initial_logical in
    outcome.Cluster.terminated && got = expected
    && sorted_bindings outcome.Cluster.bindings = expected_bindings

  let prop name =
    QCheck2.Test.make ~name:(name ^ " under message reordering") ~count:120
      QCheck2.Gen.int (fun seed -> run_once ~seed)

  (* The same runs over fixed seeds, so a result dropped after
     termination shows on every run: under Dijkstra–Scholten about one
     seed in 150 delivers one that late, too rare for 120 random
     seeds to catch every time. *)
  let sweep () =
    Alcotest.(check (list int))
      "seeds whose answer differs from the oracle" []
      (List.filter (fun seed -> not (run_once ~seed)) (List.init 1000 succ))
end

module Weighted_jitter = Jitter_battery (Hf_termination.Weighted)
module Ds_jitter = Jitter_battery (Hf_termination.Dijkstra_scholten)
module Fc_jitter = Jitter_battery (Hf_termination.Four_counter)

(* Message loss: results are never wrong, only possibly incomplete, and
   lost credit shows up as non-termination rather than a false claim of
   completeness. *)
module Loss_battery = struct
  module C = Hf_server.Cluster.Make (Hf_termination.Weighted)
  module L = Load (C)

  let run_once ~seed =
    let prng = Hf_util.Prng.create seed in
    let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
    let ds = random_dataset prng ~n_sites in
    let config = { Cluster.default_config with Cluster.loss = 0.3; jitter_seed = seed } in
    let cluster = C.create ~config ~n_sites () in
    let oids = L.load cluster ds in
    let query = parse (List.hd queries) in
    let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
    let outcome =
      C.run_query cluster ~origin:0 (Hf_query.Compile.compile query)
        (List.map (fun i -> oids.(i)) initial_logical)
    in
    let got = logical_results oids outcome.Cluster.result_set in
    let expected, _ = local_oracle ds query initial_logical in
    let subset = List.for_all (fun i -> List.mem i expected) got in
    (* soundness always; completeness only when the detector declared *)
    subset && ((not outcome.Cluster.terminated) || got = expected)

  let prop =
    QCheck2.Test.make ~name:"message loss: sound, incomplete only when undetected" ~count:120
      QCheck2.Gen.int (fun seed -> run_once ~seed)
end

(* A work message's shipping span, opened by the sender and named after
   the destination. *)
let is_work_ship (s : Hf_obs.Span.t) =
  s.phase = Hf_obs.Span.Ship && String.starts_with ~prefix:"work->" s.name

let count_spans p tracer = List.length (List.filter p (Hf_obs.Tracer.spans tracer))

(* Every work message reached a handler at most once: each [work->N]
   Ship span parents at most one arrival, the receiving context's
   [site-eval] span or a [work-recv] instant when the context already
   existed. *)
let work_handled_at_most_once spans =
  let arrivals = Hashtbl.create 64 in
  List.iter
    (fun (s : Hf_obs.Span.t) ->
      let arrival =
        match s.phase with
        | Hf_obs.Span.Eval -> s.name = "site-eval"
        | Hf_obs.Span.Recv -> String.starts_with ~prefix:"work-recv" s.name
        | _ -> false
      in
      if arrival then
        Hashtbl.replace arrivals s.parent
          (1 + Option.value ~default:0 (Hashtbl.find_opt arrivals s.parent)))
    spans;
  List.for_all
    (fun (s : Hf_obs.Span.t) ->
      (not (is_work_ship s)) || Option.value ~default:0 (Hashtbl.find_opt arrivals s.id) <= 1)
    spans

(* Reliability: with the ack/retransmit layer underneath, a lossy
   network yields EXACTLY the lossless answer — same result set,
   termination detected, recovered credit 1 (run_query asserts this
   internally), no peer declared unreachable — and nothing is evaluated
   twice: receiver-side dedup drops a retransmitted copy before any
   handler sees it.  A retransmission carries the original span id, so
   [work_handled_at_most_once] on the lossy run's trace checks exactly
   that.  (objects_processed is no oracle here: under local marks it
   depends on arrival order.) *)
module Reliable_battery = struct
  module C = Hf_server.Cluster.Make (Hf_termination.Weighted)
  module L = Load (C)

  let run_at ~seed ~loss =
    let prng = Hf_util.Prng.create seed in
    let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
    let ds = random_dataset prng ~n_sites in
    let query = parse (List.nth queries (Hf_util.Prng.next_int prng (List.length queries))) in
    let origin = Hf_util.Prng.next_int prng n_sites in
    let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
    let run ?tracer config =
      let cluster = C.create ~config ?tracer ~n_sites () in
      let oids = L.load cluster ds in
      let outcome =
        C.run_query cluster ~origin (Hf_query.Compile.compile query)
          (List.map (fun i -> oids.(i)) initial_logical)
      in
      (outcome, logical_results oids outcome.Cluster.result_set)
    in
    let tracer = Hf_obs.Tracer.create () in
    let lossy, got =
      run ~tracer { Cluster.default_config with Cluster.loss; jitter_seed = seed; reliability }
    in
    let lossless, expected = run { Cluster.default_config with Cluster.jitter_seed = seed } in
    lossy.Cluster.terminated && lossless.Cluster.terminated
    && lossy.Cluster.unreachable_sites = []
    && got = expected
    && work_handled_at_most_once (Hf_obs.Tracer.spans tracer)

  let prop ~loss =
    QCheck2.Test.make
      ~name:(Fmt.str "retransmit at p=%.2f: lossless answer, nothing evaluated twice" loss)
      ~count:80 QCheck2.Gen.int (fun seed -> run_at ~seed ~loss)
end

(* --- Focused scenarios on the weighted cluster --- *)

module WC = Hf_server.Instances.Weighted
module WL = Load (WC)

let ring_dataset ~n ~n_sites =
  {
    n;
    placement = Array.init n (fun i -> i mod n_sites);
    edges = List.init n (fun i -> (i, "R", (i + 1) mod n));
    hot = Array.init n (fun i -> i mod 4 = 0);
  }

let closure_query = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"

let test_ring_basics () =
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let cluster = WC.create ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "results" 3 (List.length outcome.Cluster.results);
  check_bool "response time positive" true (outcome.Cluster.response_time > 0.0);
  (* ring alternating sites: every hop remote *)
  check_int "work messages = ring hops" 12 outcome.Cluster.metrics.Hf_server.Metrics.work_messages

let test_single_site_no_messages () =
  let ds = ring_dataset ~n:8 ~n_sites:1 in
  let cluster = WC.create ~n_sites:1 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "no work messages" 0 outcome.Cluster.metrics.Hf_server.Metrics.work_messages;
  check_int "no result messages" 0 outcome.Cluster.metrics.Hf_server.Metrics.result_messages

let test_empty_initial_set () =
  let cluster = WC.create ~n_sites:3 () in
  let outcome = WC.run_query cluster ~origin:1 (Hf_query.Compile.compile closure_query) [] in
  check_bool "terminates immediately" true outcome.Cluster.terminated;
  check_int "no results" 0 (List.length outcome.Cluster.results)

let test_sequential_queries_reuse_cluster () =
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let cluster = WC.create ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let program = Hf_query.Compile.compile closure_query in
  let o1 = WC.run_query cluster ~origin:0 program [ oids.(0) ] in
  let o2 = WC.run_query cluster ~origin:1 program [ oids.(0) ] in
  check_bool "both terminate" true (o1.Cluster.terminated && o2.Cluster.terminated);
  check_bool "same results" true (Oid.Set.equal o1.Cluster.result_set o2.Cluster.result_set)

let test_remote_initial_set () =
  (* Initial objects on other sites: the query ships to them. *)
  let ds = ring_dataset ~n:6 ~n_sites:3 in
  let cluster = WC.create ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let program = Hf_query.Compile.compile (parse "(Keyword, \"hot\", ?)") in
  let outcome = WC.run_query cluster ~origin:0 program [ oids.(1); oids.(4) ] in
  (* logical 4 is hot (4 mod 4 = 0), logical 1 is not *)
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "one result" 1 (List.length outcome.Cluster.results);
  check_int "two work messages for remote seeds" 2
    outcome.Cluster.metrics.Hf_server.Metrics.work_messages

let test_kill_site_partial_results () =
  (* Paper, introduction: "If Node A is down, one should still be able
     to pose a query to Node B.  This may not produce a complete answer
     to the query, but it may be adequate." *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let cluster = WC.create ~n_sites:3 () in
  let oids = WL.load cluster ds in
  WC.kill_site cluster 2;
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "not terminated (credit lost with the dead site)" false outcome.Cluster.terminated;
  (* ring 0->1->2(dead): only logical 0's hotness observable *)
  check_bool "partial results delivered" true (List.length outcome.Cluster.results >= 1)

let test_dead_site_partial_with_reliability () =
  (* Same dead site, but with the reliability layer: instead of hanging
     with lost credit, retransmission exhausts its retries, the credit
     aboard the undeliverable messages is reclaimed, and the query
     TERMINATES with the dead site reported — an explicit partial
     answer rather than a timeout. *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config =
    { Cluster.default_config with
      Cluster.reliability = Some Hf_proto.Reliable.default;
      jitter_seed = 7;
    }
  in
  let cluster = WC.create ~config ~n_sites:3 () in
  let oids = WL.load cluster ds in
  WC.kill_site cluster 2;
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated (credit reclaimed from the dead link)" true outcome.Cluster.terminated;
  check_bool "dead site reported" true (outcome.Cluster.unreachable_sites = [ 2 ]);
  check_bool "give-ups counted" true (outcome.Cluster.metrics.Hf_server.Metrics.give_ups > 0);
  (* ring 0->1->2(dead): only logical 0's hotness observable *)
  check_bool "partial results delivered" true (List.length outcome.Cluster.results >= 1)

(* The site that gives up on the dead one sends the originator a
   [Site_unreachable] notice, then the credit it unwound.  Under jitter
   and loss the credit can overtake the notice (or its retransmission)
   and end the query first; the notice still marks the answer partial. *)
let test_late_notice_still_partial () =
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  List.iter
    (fun seed ->
      let config =
        { Cluster.default_config with
          Cluster.jitter = 0.2;
          loss = 0.2;
          jitter_seed = seed;
          reliability = Some Hf_proto.Reliable.default;
        }
      in
      let cluster = WC.create ~config ~n_sites:3 () in
      let oids = WL.load cluster ds in
      WC.kill_site cluster 2;
      let outcome =
        WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ]
      in
      check_bool (Fmt.str "seed %d: terminated" seed) true outcome.Cluster.terminated;
      Alcotest.(check (list int))
        (Fmt.str "seed %d: dead site reported" seed)
        [ 2 ] outcome.Cluster.unreachable_sites)
    (List.init 20 succ)

let test_reliable_ring_under_loss () =
  (* Deterministic heavy loss on the ring: with retransmission the
     answer is exactly the lossless one, and the loss actually bit
     (retransmits and dup-drops observable). *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config =
    { Cluster.default_config with
      Cluster.loss = 0.3;
      jitter_seed = 42;
      reliability = Some Hf_proto.Reliable.default;
    }
  in
  let cluster = WC.create ~config ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_bool "no site given up on" true (outcome.Cluster.unreachable_sites = []);
  check_int "full answer despite loss" 3 (List.length outcome.Cluster.results);
  check_bool "losses actually happened" true
    (outcome.Cluster.metrics.Hf_server.Metrics.dropped_messages > 0);
  check_bool "retransmissions happened" true
    (outcome.Cluster.metrics.Hf_server.Metrics.retransmits > 0)

(* A copy retransmitted after its ack was lost arrives as a duplicate,
   and dedup must drop it before any handler runs.  On this lossy ring
   duplicates really arrive, so the at-most-once check on the trace is
   not vacuous. *)
let test_duplicates_reach_no_handler () =
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config =
    { Cluster.default_config with
      Cluster.loss = 0.3;
      jitter_seed = 42;
      reliability = Some Hf_proto.Reliable.default;
    }
  in
  let tracer = Hf_obs.Tracer.create () in
  let cluster = WC.create ~config ~tracer ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "full answer despite loss" 3 (List.length outcome.Cluster.results);
  check_bool "duplicates arrived" true (outcome.Cluster.metrics.Hf_server.Metrics.dup_drops > 0);
  check_bool "each work message handled at most once" true
    (work_handled_at_most_once (Hf_obs.Tracer.spans tracer))

(* A query whose termination is never detected still returns: the
   four-counter detector polls every 0.25 s of virtual time, but only
   for the hour after the query began.  Every message is lost here, so
   the first remote hop never arrives and no wave can balance. *)
let test_polling_stops_at_window () =
  let module FC = Hf_server.Instances.Four_counter in
  let module FL = Load (FC) in
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config = { Cluster.default_config with Cluster.loss = 1.0 } in
  let cluster = FC.create ~config ~n_sites:3 () in
  let oids = FL.load cluster ds in
  let outcome = FC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "never detected" false outcome.Cluster.terminated;
  check_bool "work was lost" true (outcome.Cluster.metrics.Hf_server.Metrics.dropped_messages > 0);
  let stopped = Hf_sim.Sim.now (FC.sim cluster) in
  check_bool "polled through the hour" true (stopped >= 3600.0);
  check_bool "then stopped" true (stopped <= 3601.0)

let test_counts_mode () =
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config = { Cluster.default_config with Cluster.result_mode = Cluster.Ship_counts } in
  let cluster = WC.create ~config ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  (* members stay server-side *)
  check_int "no shipped members" 0 outcome.Cluster.metrics.Hf_server.Metrics.results_shipped;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.Cluster.counts in
  check_int "counts add up to the result-set size" 3 total

let test_threshold_mode () =
  (* The paper: the count-only method "would probably be employed only
     when the size of the results exceeded some threshold". *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let run threshold =
    let config =
      { Cluster.default_config with Cluster.result_mode = Cluster.Ship_threshold threshold }
    in
    let cluster = WC.create ~config ~n_sites:3 () in
    let oids = WL.load cluster ds in
    WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ]
  in
  (* ring has 1 result per remote site: a high threshold ships members *)
  let low = run 1 in
  let high = run 100 in
  check_bool "both terminate" true (low.Cluster.terminated && high.Cluster.terminated);
  check_int "high threshold ships members" 2
    high.Cluster.metrics.Hf_server.Metrics.results_shipped;
  check_int "members arrive at the originator" 3 (List.length high.Cluster.results);
  check_int "low threshold ships counts" 0 low.Cluster.metrics.Hf_server.Metrics.results_shipped;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 low.Cluster.counts in
  check_int "counts cover the whole result set" 3 total

let test_distributed_set_requery () =
  (* Section 5's optimisation: re-query over the retained distributed
     set; compare against running the composed query directly. *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let config = { Cluster.default_config with Cluster.result_mode = Cluster.Ship_counts } in
  let cluster = WC.create ~config ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let q1 = Hf_query.Compile.compile (parse "[ (Pointer, \"R\", ?X) ^^X ]* (?, ?, ?)") in
  let o1 = WC.run_query cluster ~origin:0 q1 [ oids.(0) ] in
  check_bool "first query terminated" true o1.Cluster.terminated;
  let q1_id = Option.get (WC.last_query_id cluster) in
  let q2 = Hf_query.Compile.compile (parse "(Keyword, \"hot\", ?)") in
  let o2 = WC.run_query_on_distributed cluster ~origin:0 ~from:q1_id q2 in
  check_bool "second query terminated" true o2.Cluster.terminated;
  let counts_total = List.fold_left (fun acc (_, n) -> acc + n) 0 o2.Cluster.counts in
  check_int "refined counts" 3 counts_total;
  (* one seed message per remote site *)
  check_int "seed messages" 2 o2.Cluster.metrics.Hf_server.Metrics.work_messages

let test_duplicate_work_accounting () =
  (* Two sites pointing at the same remote object: the second deref
     message is sent (local mark tables!) and ignored on arrival. *)
  let ds =
    {
      n = 3;
      placement = [| 0; 0; 1 |];
      edges = [ (0, "R", 2); (1, "R", 2) ];
      hot = [| true; true; true |];
    }
  in
  let cluster = WC.create ~n_sites:2 () in
  let oids = WL.load cluster ds in
  let program = Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)") in
  let outcome = WC.run_query cluster ~origin:0 program [ oids.(0); oids.(1) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "both messages sent" 2 outcome.Cluster.metrics.Hf_server.Metrics.work_messages;
  check_int "one was duplicate work" 1
    outcome.Cluster.metrics.Hf_server.Metrics.duplicate_work_messages;
  check_int "all three pass" 3 (List.length outcome.Cluster.results)

(* Dataset where the duplicate dereference is discovered long after the
   remote site first processed the target (a 20-object local chain
   separates the two pointers in time), so a global mark table gets the
   chance to suppress the second message. *)
let late_duplicate_dataset =
  let chain = 20 in
  let n = chain + 2 in
  let target = n - 1 in
  {
    n;
    placement = Array.init n (fun i -> if i = target then 1 else 0);
    edges =
      ((0, "R", target) :: List.init chain (fun i -> (i, "R", i + 1)))
      @ [ (chain, "R", target) ];
    hot = Array.make n true;
  }

let late_duplicate_query =
  Hf_query.Compile.compile (parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)")

let test_global_marks_suppress_duplicates () =
  let run mark_scope =
    let config = { Cluster.default_config with Cluster.mark_scope } in
    let cluster = WC.create ~config ~n_sites:2 () in
    let oids = WL.load cluster late_duplicate_dataset in
    WC.run_query cluster ~origin:0 late_duplicate_query [ oids.(0) ]
  in
  let local = run Cluster.Local_marks in
  let global = run Cluster.Global_marks in
  check_bool "both terminated" true (local.Cluster.terminated && global.Cluster.terminated);
  check_bool "same results" true
    (List.length local.Cluster.results = List.length global.Cluster.results);
  check_int "local marks: duplicate message sent" 2
    local.Cluster.metrics.Hf_server.Metrics.work_messages;
  check_int "global marks: duplicate suppressed" 1
    global.Cluster.metrics.Hf_server.Metrics.work_messages

let test_trace_events () =
  let ds = ring_dataset ~n:6 ~n_sites:3 in
  let tracer = Hf_obs.Tracer.create () in
  let cluster = WC.create ~tracer ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "sends recorded" outcome.Cluster.metrics.Hf_server.Metrics.work_messages
    (count_spans is_work_ship tracer)

let test_response_time_single_site_formula () =
  (* With the paper's costs, single-site time = objects * 8ms + results
     * 20ms (the E2 calibration). *)
  let n = 20 in
  let ds = ring_dataset ~n ~n_sites:1 in
  let cluster = WC.create ~n_sites:1 () in
  let oids = WL.load cluster ds in
  let outcome = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  let results = List.length outcome.Cluster.results in
  (* n objects at 8 ms, results at 20 ms, plus one mark-table skip when
     the ring closes back on the root *)
  let expected =
    (float_of_int n *. 0.008) +. (float_of_int results *. 0.020) +. 0.0005
  in
  Alcotest.(check (float 1e-6)) "calibrated formula" expected outcome.Cluster.response_time

let test_deref_goes_to_birth_site () =
  (* Section 4: an object lives at its birth site, so a dereference
     ships there even when another site's store holds a copy of the
     object: site 0's keyword-free copy of b is never consulted. *)
  let cluster = WC.create ~n_sites:2 () in
  let a = Store.fresh_oid (WC.store cluster 0) in
  let b = Store.fresh_oid (WC.store cluster 1) in
  Store.insert (WC.store cluster 0)
    (Hf_data.Hobject.of_tuples a [ Tuple.pointer ~key:"R" b; Tuple.keyword "hot" ]);
  Store.insert (WC.store cluster 1) (Hf_data.Hobject.of_tuples b [ Tuple.keyword "hot" ]);
  Store.insert (WC.store cluster 0) (Hf_data.Hobject.of_tuples b []);
  let program = Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)") in
  let outcome = WC.run_query cluster ~origin:0 program [ a ] in
  check_bool "b answers from site 1" true
    (Oid.Set.equal (Oid.Set.of_list [ a; b ]) outcome.Cluster.result_set);
  check_int "one remote message" 1 outcome.Cluster.metrics.Hf_server.Metrics.work_messages

(* Site 0 of two holds [a]: a pointer to an object born at site 9,
   outside the cluster, and "hot".  That pointer dangles, as one to an
   object no store holds does, so the closure from [a] gives the local
   engine's answer, and so does a seed born at site 9, on every path a
   remote-bound item takes: the batcher, the cache's validation, the
   reliable link, and a scatter's stray seeds and stitch fallbacks. *)
let dangling = Oid.make ~birth_site:9 ~serial:1

let test_dangling_destination () =
  let program = Hf_query.Compile.compile closure_query in
  List.iter
    (fun (name, config) ->
      let cluster = WC.create ~config ~n_sites:2 () in
      let store = WC.store cluster 0 in
      let a = Store.fresh_oid store in
      Store.insert store
        (Hf_data.Hobject.of_tuples a [ Tuple.pointer ~key:"R" dangling; Tuple.keyword "hot" ]);
      List.iter
        (fun initial ->
          let local = Hf_engine.Local.run_store ~store program initial in
          let outcome = WC.run_query cluster ~origin:0 program initial in
          let name = Printf.sprintf "%s, %d seed(s)" name (List.length initial) in
          check_bool (name ^ ": terminated") true outcome.Cluster.terminated;
          check_bool (name ^ ": the local answer") true
            (Oid.Set.equal local.Hf_engine.Local.result_set outcome.Cluster.result_set);
          check_int (name ^ ": no context left") 0 (WC.context_count cluster))
        [ [ a ]; [ a; dangling ] ])
    [
      ("plain", Cluster.default_config);
      ( "reliable",
        { Cluster.default_config with Cluster.reliability = Some Hf_proto.Reliable.default } );
      ( "cache",
        { Cluster.default_config with Cluster.cache = Some Hf_index.Remote_cache.default } );
      ("scatter", { Cluster.default_config with Cluster.exec = Cluster.Exec_scatter });
    ]

let test_concurrent_queries () =
  (* Two queries submitted together execute concurrently, contending for
     the same site CPUs: answers match solo runs, and the shared-site
     contention shows up as response time. *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  (* solo reference *)
  let solo =
    let cluster = WC.create ~n_sites:3 () in
    let oids = WL.load cluster ds in
    WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ]
  in
  let cluster = WC.create ~n_sites:3 () in
  let oids = WL.load cluster ds in
  let program = Hf_query.Compile.compile closure_query in
  let h1 = WC.submit cluster ~origin:0 program [ oids.(0) ] in
  let h2 = WC.submit cluster ~origin:1 program [ oids.(3) ] in
  WC.await_quiescence cluster;
  let o1 = WC.outcome cluster h1 and o2 = WC.outcome cluster h2 in
  check_bool "both terminated" true (o1.Cluster.terminated && o2.Cluster.terminated);
  check_bool "distinct query ids" true
    (not (Hf_proto.Message.equal_query_id (WC.query_id h1) (WC.query_id h2)));
  check_bool "q1 matches solo" true (Oid.Set.equal o1.Cluster.result_set solo.Cluster.result_set);
  check_bool "q2 matches solo (same ring closure)" true
    (Oid.Set.equal o2.Cluster.result_set solo.Cluster.result_set);
  check_bool "contention slows at least one query" true
    (o1.Cluster.response_time >= solo.Cluster.response_time -. 1e-9
    || o2.Cluster.response_time >= solo.Cluster.response_time -. 1e-9)

let test_forget_query () =
  let ds = ring_dataset ~n:6 ~n_sites:2 in
  let cluster = WC.create ~n_sites:2 () in
  let oids = WL.load cluster ds in
  let _ = WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ] in
  let qid = Option.get (WC.last_query_id cluster) in
  WC.forget_query cluster qid;
  check_bool "gone" true (WC.last_query_id cluster = None)

(* --- Batching: coalesced work messages must not change answers --- *)

let random_policy prng =
  match Hf_util.Prng.next_int prng 4 with
  | 0 -> Hf_proto.Batch.Flush_at 1
  | 1 -> Hf_proto.Batch.Flush_at (2 + Hf_util.Prng.next_int prng 5)
  | 2 -> Hf_proto.Batch.Flush_at 16
  | _ -> Hf_proto.Batch.Flush_on_drain

(* A convoy of concurrent queries (shapes drawn from [seed]) under a
   given flush policy; returns per-query (terminated, logical result
   set) plus aggregate work-message/item counts. *)
let run_convoy ?(loss = 0.0) ~policy ~seed () =
  let prng = Hf_util.Prng.create seed in
  let n_sites = 2 + Hf_util.Prng.next_int prng 4 in
  let ds = random_dataset prng ~n_sites in
  let config =
    { Cluster.default_config with Cluster.batch = policy; loss; jitter_seed = seed }
  in
  let cluster = WC.create ~config ~n_sites () in
  let oids = WL.load cluster ds in
  let n_queries = 1 + Hf_util.Prng.next_int prng 4 in
  let specs =
    List.init n_queries (fun _ ->
        let query = List.nth queries (Hf_util.Prng.next_int prng (List.length queries)) in
        let origin = Hf_util.Prng.next_int prng n_sites in
        let initial = [ Hf_util.Prng.next_int prng ds.n ] in
        (query, origin, initial))
  in
  let handles =
    List.map
      (fun (query, origin, initial) ->
        WC.submit cluster ~origin
          (Hf_query.Compile.compile (parse query))
          (List.map (fun i -> oids.(i)) initial))
      specs
  in
  WC.await_quiescence cluster;
  let outcomes = List.map (WC.outcome cluster) handles in
  let per_query =
    List.map
      (fun o -> (o.Cluster.terminated, logical_results oids o.Cluster.result_set))
      outcomes
  in
  let total f =
    List.fold_left (fun acc o -> acc + f o.Cluster.metrics) 0 outcomes
  in
  ( ds,
    specs,
    per_query,
    total (fun m -> m.Hf_server.Metrics.work_messages),
    total (fun m -> m.Hf_server.Metrics.work_items) )

let prop_batched_equals_unbatched =
  QCheck2.Test.make ~name:"batched = unbatched = oracle (any policy)" ~count:120
    QCheck2.Gen.int (fun seed ->
      let policy =
        random_policy (Hf_util.Prng.create (seed lxor 0x5f5f5f))
      in
      let ds, specs, batched, _, _ = run_convoy ~policy ~seed () in
      let _, _, unbatched, _, _ = run_convoy ~policy:Hf_proto.Batch.unbatched ~seed () in
      (* every query terminates and matches the single-store oracle... *)
      List.for_all2
        (fun (query, _origin, initial) (terminated, got) ->
          let expected, _ = local_oracle ds (parse query) initial in
          terminated && got = expected)
        specs batched
      (* ...and the batched run answers exactly what the unbatched one does *)
      && List.map snd batched = List.map snd unbatched)

let prop_batched_loss_sound =
  QCheck2.Test.make ~name:"batching under message loss stays sound" ~count:120
    QCheck2.Gen.int (fun seed ->
      let policy = random_policy (Hf_util.Prng.create (seed lxor 0x2a2a2a)) in
      let ds, specs, per_query, _, _ = run_convoy ~loss:0.3 ~policy ~seed () in
      List.for_all2
        (fun (query, _origin, initial) (terminated, got) ->
          let expected, _ = local_oracle ds (parse query) initial in
          let subset = List.for_all (fun i -> List.mem i expected) got in
          (* results are never wrong; complete whenever termination was
             actually detected *)
          subset && ((not terminated) || got = expected))
        specs per_query)

let test_convoy_coalesces () =
  (* Six concurrent ring closures at K=4: identical answers, strictly
     fewer wire messages carrying the same items, and the trace still
     shows exactly one work Ship span per wire message. *)
  let ds = ring_dataset ~n:12 ~n_sites:3 in
  let run ?tracer policy =
    let config = { Cluster.default_config with Cluster.batch = policy } in
    let cluster = WC.create ~config ?tracer ~n_sites:3 () in
    let oids = WL.load cluster ds in
    let program = Hf_query.Compile.compile closure_query in
    let handles =
      List.init 6 (fun i -> WC.submit cluster ~origin:(i mod 3) program [ oids.(i) ])
    in
    WC.await_quiescence cluster;
    List.map (WC.outcome cluster) handles
  in
  let plain = run Hf_proto.Batch.unbatched in
  let tracer = Hf_obs.Tracer.create () in
  let batched = run ~tracer (Hf_proto.Batch.Flush_at 4) in
  List.iter (fun o -> check_bool "terminated" true o.Cluster.terminated) (plain @ batched);
  List.iter2
    (fun p b ->
      check_bool "same results" true (Oid.Set.equal p.Cluster.result_set b.Cluster.result_set))
    plain batched;
  let total f outcomes =
    List.fold_left (fun acc o -> acc + f o.Cluster.metrics) 0 outcomes
  in
  let msgs = total (fun m -> m.Hf_server.Metrics.work_messages) in
  check_int "same items aboard" (total (fun m -> m.Hf_server.Metrics.work_items) plain)
    (total (fun m -> m.Hf_server.Metrics.work_items) batched);
  check_bool
    (Printf.sprintf "fewer messages (%d < %d)" (msgs batched) (msgs plain))
    true
    (msgs batched < msgs plain);
  check_bool "some messages actually batched" true
    (total (fun m -> m.Hf_server.Metrics.work_batches) batched > 0);
  check_int "one work Ship span per wire message" (msgs batched) (count_spans is_work_ship tracer)

let test_drop_metrics () =
  (* Total loss: the query cannot terminate, and every swallowed message
     is visible in the metrics and the trace (regression: drops used to
     be silent). *)
  let ds = ring_dataset ~n:6 ~n_sites:2 in
  let tracer = Hf_obs.Tracer.create () in
  let config = { Cluster.default_config with Cluster.loss = 1.0 } in
  let cluster = WC.create ~config ~tracer ~n_sites:2 () in
  let oids = WL.load cluster ds in
  let outcome =
    WC.run_query cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ]
  in
  check_bool "cannot terminate" false outcome.Cluster.terminated;
  let dropped = outcome.Cluster.metrics.Hf_server.Metrics.dropped_messages in
  check_bool (Printf.sprintf "drops counted (%d)" dropped) true (dropped >= 1);
  check_int "every drop traced" dropped
    (count_spans (fun s -> String.equal s.Hf_obs.Span.detail "dropped") tracer);
  (* only the origin's local portion of the ring can answer *)
  check_bool "results are partial" true
    (List.length outcome.Cluster.results
    < List.length (fst (local_oracle ds closure_query [ 0 ])))


(* --- EXPLAIN ANALYZE reconciliation (DESIGN.md Â§4i) ---------------------

   The profile is two views of one query: span-derived time (where did
   it go) and engine-attributed counters (what did it cost).  Where the
   views overlap they must agree exactly, on every termination engine. *)

module Profile_reconciliation (D : Hf_termination.Detector.S) = struct
  module C = Hf_server.Cluster.Make (D)
  module L = Load (C)
  module M = Hf_server.Metrics
  module P = Hf_obs.Profile

  let run () =
    let ds = ring_dataset ~n:12 ~n_sites:3 in
    let tracer = Hf_obs.Tracer.create () in
    let cluster = C.create ~tracer ~n_sites:3 () in
    let oids = L.load cluster ds in
    let handle =
      C.submit cluster ~origin:0 (Hf_query.Compile.compile closure_query) [ oids.(0) ]
    in
    C.await_quiescence cluster;
    let o = C.outcome cluster handle in
    check_bool "terminated" true o.Cluster.terminated;
    let p = C.profile cluster handle in
    let m = o.Cluster.metrics in
    (* the engine scalars pinned into the profile are the outcome's own *)
    check_bool "messages" true (P.scalar_int p "messages" = Some (M.total_messages m));
    check_bool "bytes" true (P.scalar_int p "bytes" = Some (M.total_bytes m));
    check_bool "work_messages" true (P.scalar_int p "work_messages" = Some m.M.work_messages);
    check_bool "work_items" true (P.scalar_int p "work_items" = Some m.M.work_items);
    check_bool "results" true (P.scalar_int p "results" = Some (List.length o.Cluster.results));
    (match P.scalar_float p "response_time_s" with
    | Some rt -> Alcotest.(check (float 1e-9)) "response_time scalar" o.Cluster.response_time rt
    | None -> Alcotest.fail "response_time_s scalar missing");
    (match P.scalar_float p "busy_total_s" with
    | Some b -> Alcotest.(check (float 1e-9)) "busy scalar" (M.total_busy m) b
    | None -> Alcotest.fail "busy_total_s scalar missing");
    (* the differential core: the root Query span's duration — a
       span-derived quantity — equals the engine's own response-time
       accounting, to the last bit of float *)
    Alcotest.(check (float 1e-9)) "profile total = response time" o.Cluster.response_time
      p.P.total_s;
    (* span-side internal consistency: site residency fits inside the
       query, and each row's busy/wait equal its phase entries *)
    List.iter
      (fun (r : P.site_row) ->
        check_bool "site residency within the query" true (r.P.busy_s <= p.P.total_s +. 1e-9);
        let phase ph =
          match List.find_opt (fun (q, _, _) -> q = ph) r.P.phases with
          | Some (_, secs, _) -> secs
          | None -> 0.0
        in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "site %d busy = Eval phase" r.P.site)
          (phase Hf_obs.Span.Eval) r.P.busy_s;
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "site %d wait = Wait phase" r.P.site)
          (phase Hf_obs.Span.Wait) r.P.wait_s)
      p.P.sites;
    check_int "nothing dropped" 0 p.P.dropped_spans;
    (* the ring alternates sites, so the query ships and rounds nest *)
    check_bool "at least one ship round" true (p.P.rounds >= 1);
    check_int "every site appears" 3 (List.length p.P.sites);
    check_bool "ships recorded" true
      (List.exists (fun (r : P.site_row) -> r.P.ships > 0) p.P.sites)
end

module Weighted_profile = Profile_reconciliation (Hf_termination.Weighted)
module Ds_profile = Profile_reconciliation (Hf_termination.Dijkstra_scholten)
module Fc_profile = Profile_reconciliation (Hf_termination.Four_counter)

let () =
  Alcotest.run "hf_server"
    [
      ( "distributed = local",
        [
          qtest (Weighted_battery.prop "weighted detector");
          qtest (Ds_battery.prop "dijkstra-scholten detector");
          qtest (Fc_battery.prop "four-counter detector");
          qtest (Weighted_jitter.prop "weighted detector");
          Alcotest.test_case "dijkstra-scholten under message reordering" `Quick
            Ds_jitter.sweep;
          qtest (Fc_jitter.prop "four-counter detector");
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "ring across 3 sites" `Quick test_ring_basics;
          Alcotest.test_case "single site has no messages" `Quick test_single_site_no_messages;
          Alcotest.test_case "empty initial set" `Quick test_empty_initial_set;
          Alcotest.test_case "sequential queries" `Quick test_sequential_queries_reuse_cluster;
          Alcotest.test_case "remote initial set" `Quick test_remote_initial_set;
          Alcotest.test_case "response-time calibration" `Quick
            test_response_time_single_site_formula;
          Alcotest.test_case "a destination outside the cluster dangles" `Quick
            test_dangling_destination;
          Alcotest.test_case "dereference goes to the birth site" `Quick
            test_deref_goes_to_birth_site;
          Alcotest.test_case "concurrent queries" `Quick test_concurrent_queries;
          Alcotest.test_case "forget query" `Quick test_forget_query;
        ] );
      ( "profile reconciliation",
        [
          Alcotest.test_case "weighted engine" `Quick Weighted_profile.run;
          Alcotest.test_case "dijkstra-scholten engine" `Quick Ds_profile.run;
          Alcotest.test_case "four-counter engine" `Quick Fc_profile.run;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "dead site yields partial results" `Quick
            test_kill_site_partial_results;
          Alcotest.test_case "dropped messages are counted and traced" `Quick test_drop_metrics;
          qtest Loss_battery.prop;
          Alcotest.test_case "undetected query stops polling" `Quick
            test_polling_stops_at_window;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "dead site: explicit partial answer" `Quick
            test_dead_site_partial_with_reliability;
          Alcotest.test_case "ring under heavy loss: exact answer" `Quick
            test_reliable_ring_under_loss;
          Alcotest.test_case "a notice overtaken by its credit still counts" `Quick
            test_late_notice_still_partial;
          qtest (Reliable_battery.prop ~loss:0.0);
          qtest (Reliable_battery.prop ~loss:0.05);
          qtest (Reliable_battery.prop ~loss:0.2);
          Alcotest.test_case "duplicate copies reach no handler" `Quick
            test_duplicates_reach_no_handler;
        ] );
      ( "batching",
        [
          Alcotest.test_case "convoy coalesces work messages" `Quick test_convoy_coalesces;
          qtest prop_batched_equals_unbatched;
          qtest prop_batched_loss_sound;
        ] );
      ( "distributed sets",
        [
          Alcotest.test_case "counts mode" `Quick test_counts_mode;
          Alcotest.test_case "threshold mode" `Quick test_threshold_mode;
          Alcotest.test_case "re-query over distributed set" `Quick test_distributed_set_requery;
        ] );
      ( "mark-table ablation",
        [
          Alcotest.test_case "local marks allow duplicate messages" `Quick
            test_duplicate_work_accounting;
          Alcotest.test_case "global marks suppress them" `Quick
            test_global_marks_suppress_duplicates;
        ] );
      ( "tracing",
        [ Alcotest.test_case "trace events match metrics" `Quick test_trace_events ] );
    ]
