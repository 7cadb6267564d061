(* Tests for the cross-site acceleration layer (DESIGN.md §4g): the
   remote-answer cache and Bloom ship pruning.

   The central property is differential: a cluster with the cache ON
   returns exactly the single-store oracle's answer, across the whole
   configuration cube {batching} x {reliability} x {loss} x {cache},
   including after interleaved object updates — stale entries must
   revalidate, never serve.  Plus: Bloom filter properties (no false
   negatives by construction, measured false-positive rate within 2x of
   the configured budget), credit-safety regressions on all three
   termination detectors (a pruned ship or a cache hit must leave
   recovered credit exactly 1), and the TCP transport's cache layer. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Store = Hf_data.Store
module Cluster = Hf_server.Cluster
module Metrics = Hf_server.Metrics
module Bloom = Hf_index.Bloom
module Rc = Hf_index.Remote_cache

(* random corpora, the single-store oracle, the configuration cube and
   the cluster loaders live in the shared harness *)
open Hf_test_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hf_query.Parser.parse_body


(* --- Answer-cache keys -------------------------------------------------- *)

(* An entry is keyed by (destination, program suffix, counters, target
   oid), the oid by its identity: an equal oid built again shares the
   key, and another object or another destination is another key. *)
let test_entry_key_identity () =
  let plan = Hf_engine.Plan.make (Hf_query.Compile.compile (parse "(Keyword, \"hot\", ?)")) in
  let key ?(dst = 1) oid = Rc.entry_key ~dst ~plan ~start:0 ~iters:[||] ~oid in
  let a = Oid.make ~birth_site:1 ~serial:4 in
  check_bool "an equal oid shares the key" true
    (String.equal (key a) (key (Oid.make ~birth_site:1 ~serial:4)));
  check_bool "another serial" false (String.equal (key a) (key (Oid.make ~birth_site:1 ~serial:5)));
  check_bool "another birth site" false
    (String.equal (key a) (key (Oid.make ~birth_site:2 ~serial:4)));
  check_bool "another destination" false (String.equal (key a) (key ~dst:2 a))

(* --- Bloom filter properties ------------------------------------------- *)

(* Absence answers are proofs: anything inserted is always a member. *)
let prop_bloom_no_false_negatives =
  QCheck2.Test.make ~name:"bloom: no false negatives under arbitrary inserts" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 200) string_small) (float_range 0.001 0.3))
    (fun (keys, fp_rate) ->
      let bloom = Bloom.create ~expected:(max 1 (List.length keys)) ~fp_rate in
      List.iter (Bloom.add bloom) keys;
      List.for_all (Bloom.mem bloom) keys)

let test_bloom_fp_rate_within_budget () =
  (* Deterministic: insert exactly the sized-for population, then probe
     a disjoint key space.  The measured rate must stay within 2x the
     configured budget (the standard sizing formula plus integer
     rounding keeps it near 1x; 2x allows for hash imperfection). *)
  List.iter
    (fun fp_rate ->
      let n = 2_000 in
      let bloom = Bloom.create ~expected:n ~fp_rate in
      for i = 0 to n - 1 do
        Bloom.add bloom (Printf.sprintf "member-%d" i)
      done;
      let probes = 20_000 in
      let fp = ref 0 in
      for i = 0 to probes - 1 do
        if Bloom.mem bloom (Printf.sprintf "absent-%d" i) then incr fp
      done;
      let measured = float_of_int !fp /. float_of_int probes in
      check_bool
        (Printf.sprintf "fp %.4f within 2x of budget %.3f" measured fp_rate)
        true
        (measured <= 2.0 *. fp_rate);
      (* and the analytic estimate agrees with the budget at full fill *)
      check_bool "fp_estimate near budget" true (Bloom.fp_estimate bloom <= 2.0 *. fp_rate))
    [ 0.01; 0.05 ]

let prop_bloom_wire_roundtrip =
  QCheck2.Test.make ~name:"bloom: wire form round-trips" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) string_small)
    (fun keys ->
      let bloom = Bloom.create ~expected:(max 1 (List.length keys)) ~fp_rate:0.02 in
      List.iter (Bloom.add bloom) keys;
      match Bloom.of_string (Bloom.to_string bloom) with
      | None -> false
      | Some back -> Bloom.equal bloom back && List.for_all (Bloom.mem back) keys)

let test_bloom_of_string_garbage () =
  List.iter
    (fun s ->
      match Bloom.of_string s with
      | Some _ | None -> ())
    [ ""; "x"; "\xff\xff\xff\xff"; String.make 64 '\x00'; "not a bloom filter" ]

(* OR-merge (the Bloofi inner-node operation): a member of either
   operand is a member of the union — no false negatives survive the
   fold, whatever geometries [create] sized the two filters to. *)
let prop_bloom_union_no_false_negatives =
  QCheck2.Test.make ~name:"bloom: union preserves both operands' members" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 100) string_small)
        (list_size (int_range 0 100) string_small)
        (pair (int_range 1 300) (int_range 1 300)))
    (fun (xs, ys, (ex, ey)) ->
      let a = Bloom.create ~expected:ex ~fp_rate:0.02 in
      let b = Bloom.create ~expected:ey ~fp_rate:0.05 in
      List.iter (Bloom.add a) xs;
      List.iter (Bloom.add b) ys;
      match Bloom.union a b with
      | None -> true (* incompatible geometry: union declines, never lies *)
      | Some u -> List.for_all (Bloom.mem u) (xs @ ys))

(* [plan]ned geometries are always power-of-two wide, so any two planned
   filters fold: union is total on what the cache layer actually builds. *)
let prop_bloom_union_planned_total =
  QCheck2.Test.make ~name:"bloom: union total on planned geometries" ~count:200
    QCheck2.Gen.(pair (int_range 1 5_000) (int_range 1 5_000))
    (fun (ex, ey) ->
      let a = Bloom.create ~expected:ex ~fp_rate:0.01 in
      let b = Bloom.create ~expected:ey ~fp_rate:0.02 in
      Bloom.union a b <> None)

(* A merged filter survives the wire like any other: to_string/of_string
   round-trips the folded geometry bit-exactly. *)
let prop_bloom_union_wire_roundtrip =
  QCheck2.Test.make ~name:"bloom: merged filter round-trips the wire" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 0 50) string_small) (list_size (int_range 0 50) string_small))
    (fun (xs, ys) ->
      let a = Bloom.create ~expected:(max 1 (List.length xs)) ~fp_rate:0.02 in
      let b = Bloom.create ~expected:(max 1 (List.length ys)) ~fp_rate:0.02 in
      List.iter (Bloom.add a) xs;
      List.iter (Bloom.add b) ys;
      match Bloom.union a b with
      | None -> false (* planned geometries must fold *)
      | Some u -> (
          match Bloom.of_string (Bloom.to_string u) with
          | None -> false
          | Some back -> Bloom.equal u back && List.for_all (Bloom.mem back) (xs @ ys)))

(* A store's summary covers its content and changes when the content
   does — the version-gated rebuild in the cluster relies on both. *)
let test_summary_tracks_store () =
  let store = Store.create ~site:0 in
  let oid = Store.fresh_oid store in
  Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "alpha" ]);
  let v0 = Store.version store in
  let s0 = Rc.summary_of_store Rc.default store in
  check_bool "present type" true (Bloom.mem s0 (Rc.type_probe "Keyword"));
  check_bool "present pair" true
    (Bloom.mem s0 (Rc.pair_probe "Keyword" (Hf_data.Value.str "alpha")));
  check_bool "absent pair is a miss" true
    (Rc.summary_misses s0 [ Rc.pair_probe "Keyword" (Hf_data.Value.str "beta") ]);
  (* mutate: version must bump and a rebuilt summary must cover the
     new tuple the old one proved absent *)
  Store.replace store
    (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "alpha"; Tuple.keyword "beta" ]);
  check_bool "version bumped" true (Store.version store > v0);
  let s1 = Rc.summary_of_store Rc.default store in
  check_bool "rebuilt summary covers the update" false
    (Rc.summary_misses s1 [ Rc.pair_probe "Keyword" (Hf_data.Value.str "beta") ])

(* --- The differential cube --------------------------------------------- *)

(* One corpus, one query, one cube cell, cache on: repeat the query
   several times on the same cluster (so later runs face a warm cache)
   and hold every run to the oracle.  Lossy fire-and-forget runs may
   time out with a partial answer; they must still be sound, and exact
   whenever termination was detected. *)
let run_cell ~seed ~repeats cell =
  let prng = Hf_util.Prng.create seed in
  let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
  let ds = random_dataset prng ~n_sites in
  let query =
    parse (List.nth cache_queries (Hf_util.Prng.next_int prng (List.length cache_queries)))
  in
  let origin = Hf_util.Prng.next_int prng n_sites in
  let initial_logical =
    List.sort_uniq compare
      (List.init (1 + Hf_util.Prng.next_int prng 3) (fun _ -> Hf_util.Prng.next_int prng ds.n))
  in
  let expected, expected_bindings = local_oracle ds query initial_logical in
  let config = config_of ~seed ~cache:true cell in
  let _, reliable, loss = cell in
  let exact_regime = loss = 0.0 || reliable in
  let cluster = C.create ~config ~n_sites () in
  let oids = load_sim cluster ds in
  let program = Hf_query.Compile.compile query in
  let initial = List.map (fun i -> oids.(i)) initial_logical in
  let ok = ref true in
  for _ = 1 to repeats do
    let outcome = C.run_query cluster ~origin program initial in
    let got = logical_results oids outcome.Cluster.result_set in
    if exact_regime then
      ok :=
        !ok && outcome.Cluster.terminated && got = expected
        && sorted_bindings outcome.Cluster.bindings = expected_bindings
        && outcome.Cluster.unreachable_sites = []
    else begin
      (* unreliable loss: sound always, exact when declared terminated *)
      let subset = List.for_all (fun i -> List.mem i expected) got in
      ok := !ok && subset && ((not outcome.Cluster.terminated) || got = expected)
    end
  done;
  !ok

let cube_props =
  List.map
    (fun cell ->
      let name = Fmt.str "cache ≡ oracle: %s" (cell_name cell) in
      QCheck2.Test.make ~name ~count:40 ~print:string_of_int QCheck2.Gen.int (fun seed ->
          run_cell ~seed ~repeats:3 cell))
    cube

(* Cache on vs cache off on the same corpus and query sequence: the
   runs must agree outcome-for-outcome (lossless regime, where both are
   deterministic and exact). *)
let prop_cache_transparent =
  QCheck2.Test.make ~name:"cache on ≡ cache off, repeated queries" ~count:60 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
      let ds = random_dataset prng ~n_sites in
      let query =
        parse
          (List.nth cache_queries (Hf_util.Prng.next_int prng (List.length cache_queries)))
      in
      let origin = Hf_util.Prng.next_int prng n_sites in
      let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
      let run ~cache =
        let config =
          { Cluster.default_config with
            Cluster.cache = (if cache then Some Rc.default else None) }
        in
        let cluster = C.create ~config ~n_sites () in
        let oids = load_sim cluster ds in
        let program = Hf_query.Compile.compile query in
        let initial = List.map (fun i -> oids.(i)) initial_logical in
        List.init 3 (fun _ ->
            let o = C.run_query cluster ~origin program initial in
            ( o.Cluster.terminated,
              logical_results oids o.Cluster.result_set,
              sorted_bindings o.Cluster.bindings ))
      in
      run ~cache:true = run ~cache:false)

(* --- Interleaved updates: stale entries revalidate, never serve -------- *)

(* Flip an object's "hot" keyword between repeats of a cacheable query:
   the destination's store version bumps, so every cached verdict for
   that site must invalidate, and the next answer reflects the update.
   A cache serving stale verdicts fails this immediately. *)
let prop_updates_invalidate =
  QCheck2.Test.make ~name:"interleaved updates: revalidated, never stale" ~count:60
    QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
      let ds = random_dataset prng ~n_sites in
      let query = parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
      let origin = Hf_util.Prng.next_int prng n_sites in
      let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
      let config = { Cluster.default_config with Cluster.cache = Some Rc.default } in
      let cluster = C.create ~config ~n_sites () in
      let oids = load_sim cluster ds in
      let program = Hf_query.Compile.compile query in
      let initial = List.map (fun i -> oids.(i)) initial_logical in
      let ok = ref true in
      for round = 0 to 3 do
        (* warm the cache, then mutate before every later round *)
        if round > 0 then begin
          let victim = Hf_util.Prng.next_int prng ds.n in
          ds.hot.(victim) <- not ds.hot.(victim);
          Store.replace
            (C.store cluster ds.placement.(victim))
            (Hf_data.Hobject.of_tuples oids.(victim) (tuples_of ds oids victim))
        end;
        let expected, expected_bindings = local_oracle ds query initial_logical in
        let outcome = C.run_query cluster ~origin program initial in
        ok :=
          !ok && outcome.Cluster.terminated
          && logical_results oids outcome.Cluster.result_set = expected
          && sorted_bindings outcome.Cluster.bindings = expected_bindings
      done;
      !ok)

(* Deterministic single-scenario version with the counters visible:
   hits occur, then an update invalidates rather than serves. *)
let test_update_invalidation_counters () =
  let ds =
    {
      n = 4;
      placement = [| 0; 1; 1; 1 |];
      edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3) ];
      hot = [| false; true; false; true |];
    }
  in
  let config = { Cluster.default_config with Cluster.cache = Some Rc.default } in
  let cluster = C.create ~config ~n_sites:2 () in
  let oids = load_sim cluster ds in
  let program = Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)") in
  let o1 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run1 terminated" true o1.Cluster.terminated;
  check_int "run1: all three ship (cold cache)" 3 o1.Cluster.metrics.Metrics.cache_misses;
  check_int "run1: verdicts flowed back" 3 o1.Cluster.metrics.Metrics.cache_fills;
  check_int "run1 results" 2 (List.length o1.Cluster.results);
  let o2 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_int "run2: all three hit" 3 o2.Cluster.metrics.Metrics.cache_hits;
  check_int "run2: nothing shipped" 0 o2.Cluster.metrics.Metrics.work_items;
  check_bool "run2 same answer" true (Oid.Set.equal o1.Cluster.result_set o2.Cluster.result_set);
  (* update: logical 2 becomes hot; its site's version bumps *)
  ds.hot.(2) <- true;
  Store.replace (C.store cluster 1) (Hf_data.Hobject.of_tuples oids.(2) (tuples_of ds oids 2));
  let o3 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run3 terminated" true o3.Cluster.terminated;
  check_int "run3: stale entries invalidated" 3 o3.Cluster.metrics.Metrics.cache_invalidations;
  check_int "run3: fresh answer includes the update" 3 (List.length o3.Cluster.results);
  check_int "run3: no stale hits" 0 o3.Cluster.metrics.Metrics.cache_hits

(* Bloom prune must also yield to updates: a site summary that proved a
   keyword absent is stale once the keyword appears there. *)
let test_prune_respects_updates () =
  let ds =
    {
      n = 3;
      placement = [| 0; 1; 1 |];
      edges = [ (0, "R", 1); (0, "R", 2) ];
      hot = [| false; false; false |];
    }
  in
  let config = { Cluster.default_config with Cluster.cache = Some Rc.default } in
  let cluster = C.create ~config ~n_sites:2 () in
  let oids = load_sim cluster ds in
  let program = Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)") in
  let o1 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run1 terminated" true o1.Cluster.terminated;
  check_int "run1: both ships pruned (no hot tuples on site 1)" 2
    o1.Cluster.metrics.Metrics.cache_prunes;
  check_int "run1: empty answer" 0 (List.length o1.Cluster.results);
  ds.hot.(1) <- true;
  Store.replace (C.store cluster 1) (Hf_data.Hobject.of_tuples oids.(1) (tuples_of ds oids 1));
  let o2 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run2 terminated" true o2.Cluster.terminated;
  check_int "run2 finds the new hot object" 1 (List.length o2.Cluster.results)

(* --- Credit safety on every detector ----------------------------------- *)

(* Hits and prunes keep the item's credit at the origin; the weighted
   run_query already asserts recovered credit is exactly 1 on
   termination, and the other detectors' own invariants hold through
   their [terminated] flag.  The scenario forces both a warm-cache hit
   pass and a pruned pass on each detector. *)
module Credit_battery (D : Hf_termination.Detector.S) = struct
  module CD = Hf_server.Cluster.Make (D)

  let load cluster ds =
    let oids =
      Array.init ds.n (fun i -> Store.fresh_oid (CD.store cluster ds.placement.(i)))
    in
    Array.iteri
      (fun i oid ->
        Store.insert (CD.store cluster ds.placement.(i))
          (Hf_data.Hobject.of_tuples oid (tuples_of ds oids i)))
      oids;
    oids

  let run name =
    let ds =
      {
        n = 5;
        placement = [| 0; 1; 1; 2; 2 |];
        edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3); (0, "R", 4) ];
        hot = [| false; true; false; false; false |];
      }
    in
    let config = { Cluster.default_config with Cluster.cache = Some Rc.default } in
    let cluster = CD.create ~config ~n_sites:3 () in
    let oids = load cluster ds in
    let program =
      Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)")
    in
    (* pass 1: site 1 ships (misses), site 2 prunes (no hot tuples) *)
    let o1 = CD.run_query cluster ~origin:0 program [ oids.(0) ] in
    check_bool (name ^ ": pass1 terminated") true o1.Cluster.terminated;
    check_int (name ^ ": pass1 prunes") 2 o1.Cluster.metrics.Metrics.cache_prunes;
    check_int (name ^ ": pass1 misses") 2 o1.Cluster.metrics.Metrics.cache_misses;
    check_int (name ^ ": pass1 results") 1 (List.length o1.Cluster.results);
    (* pass 2: warm — site 1 hits, site 2 prunes again; zero ships *)
    let o2 = CD.run_query cluster ~origin:0 program [ oids.(0) ] in
    check_bool (name ^ ": pass2 terminated") true o2.Cluster.terminated;
    check_int (name ^ ": pass2 hits") 2 o2.Cluster.metrics.Metrics.cache_hits;
    check_int (name ^ ": pass2 prunes") 2 o2.Cluster.metrics.Metrics.cache_prunes;
    check_int (name ^ ": pass2 nothing shipped") 0 o2.Cluster.metrics.Metrics.work_items;
    check_bool (name ^ ": answers agree") true
      (Oid.Set.equal o1.Cluster.result_set o2.Cluster.result_set)
end

module Credit_weighted = Credit_battery (Hf_termination.Weighted)
module Credit_ds = Credit_battery (Hf_termination.Dijkstra_scholten)
module Credit_fc = Credit_battery (Hf_termination.Four_counter)

let test_credit_weighted () = Credit_weighted.run "weighted"
let test_credit_ds () = Credit_ds.run "dijkstra-scholten"
let test_credit_fc () = Credit_fc.run "four-counter"

(* A parked validation round trip must not wedge termination when the
   destination dies: the reliability layer gives the Cache_validate up,
   parked items fall back to plain shipping, those ships fail too, and
   the reclaimed credit still converges — an explicit partial answer. *)
let test_validate_giveup_partial () =
  let ds =
    {
      n = 4;
      placement = [| 0; 1; 1; 0 |];
      edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3) ];
      hot = [| true; true; true; true |];
    }
  in
  let config =
    { Cluster.default_config with
      Cluster.cache = Some Rc.default;
      reliability = Some Hf_proto.Reliable.default;
    }
  in
  let cluster = C.create ~config ~n_sites:2 () in
  let oids = load_sim cluster ds in
  C.kill_site cluster 1;
  let program = Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)") in
  let outcome = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "terminated (credit reclaimed through the give-up chain)" true
    outcome.Cluster.terminated;
  check_bool "dead site reported" true (outcome.Cluster.unreachable_sites = [ 1 ]);
  (* the local portion still answered *)
  check_bool "local results delivered" true (List.length outcome.Cluster.results >= 1)

(* Cache hits must not disturb the counts modes' per-site attribution:
   verdicts are only applied locally in Ship_items mode, so counts runs
   with the cache on still equal their cache-off twins. *)
let prop_counts_mode_unaffected =
  QCheck2.Test.make ~name:"counts mode: cache on ≡ cache off" ~count:40 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
      let ds = random_dataset prng ~n_sites in
      let query = parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
      let origin = Hf_util.Prng.next_int prng n_sites in
      let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
      let run ~cache =
        let config =
          { Cluster.default_config with
            Cluster.result_mode = Cluster.Ship_counts;
            Cluster.cache = (if cache then Some Rc.default else None);
          }
        in
        let cluster = C.create ~config ~n_sites () in
        let oids = load_sim cluster ds in
        let program = Hf_query.Compile.compile query in
        let initial = List.map (fun i -> oids.(i)) initial_logical in
        List.init 3 (fun _ ->
            let o = C.run_query cluster ~origin program initial in
            (o.Cluster.terminated, List.sort compare o.Cluster.counts))
      in
      run ~cache:true = run ~cache:false)

(* --- TCP transport ------------------------------------------------------ *)

module Tcp = Hf_net.Tcp_site

let tcp_counter t name =
  match Hf_obs.Registry.find (Tcp.registry t) name with
  | Some (Hf_obs.Registry.Counter read) -> read ()
  | Some _ | None -> Alcotest.failf "counter %s not registered" name

let test_tcp_cache_repeat () =
  let ds =
    {
      n = 4;
      placement = [| 0; 1; 1; 1 |];
      edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3) ];
      hot = [| false; true; false; true |];
    }
  in
  with_tcp_sites ~cache:Rc.default 2 (fun sites ->
      let oids = load_tcp sites ds in
      let program =
        Hf_query.Compile.compile (parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)")
      in
      let o1 = Tcp.run_query sites.(0) program [ oids.(0) ] in
      check_bool "run1 terminated" true o1.Tcp.terminated;
      check_int "run1 results" 2 (List.length o1.Tcp.results);
      let o2 = Tcp.run_query sites.(0) program [ oids.(0) ] in
      check_bool "run2 terminated" true o2.Tcp.terminated;
      check_bool "run2 same answer" true (Oid.Set.equal o1.Tcp.result_set o2.Tcp.result_set);
      check_int "warm run hit all three" 3 (tcp_counter sites.(0) "hf.net.cache_hits");
      check_bool "validations happened" true
        (tcp_counter sites.(0) "hf.net.cache_validations" >= 1);
      check_bool "fills recorded" true (tcp_counter sites.(0) "hf.net.cache_fills" >= 3);
      (* update at site 1: next run must revalidate, not serve stale *)
      ds.hot.(2) <- true;
      Store.replace (Tcp.store sites.(1))
        (Hf_data.Hobject.of_tuples oids.(2) (tuples_of ds oids 2));
      let o3 = Tcp.run_query sites.(0) program [ oids.(0) ] in
      check_bool "run3 terminated" true o3.Tcp.terminated;
      check_int "run3 sees the update" 3 (List.length o3.Tcp.results);
      check_bool "stale entries invalidated" true
        (tcp_counter sites.(0) "hf.net.cache_invalidations" >= 1))

(* Every hf.net counter a site keeps in its metrics record, over one
   scripted run on three sites with the cache, batching (K = 4),
   scatter and reliability on.  Site 0 holds the root, pointing at a
   "hot" and a cold object on site 1 and a cold one on site 2, whose
   summary therefore rules "hot" out.  The script: a one-hop query with
   a finite iterator (so it ships) three times — cold, warm, and after
   site 1's store moved — then its scatter-eligible twin, whose chain
   to site 2 falls back, then a frame site 2 already delivered,
   replayed, then the shipped query again with site 2 dead.  The script
   fixes every count but those timing decides: retransmits, duplicates
   dropped and give-ups. *)
let test_tcp_counters () =
  let ds =
    {
      n = 4;
      placement = [| 0; 1; 1; 2 |];
      edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3) ];
      hot = [| false; true; false; false |];
    }
  in
  let reliability =
    { Hf_proto.Reliable.ack_timeout = 0.05; backoff = 2.0; max_timeout = 0.2; max_retries = 5;
      ack_delay = 0.01 }
  in
  with_tcp_sites ~cache:Rc.default ~batch:(Hf_proto.Batch.Flush_at 4) ~reliability
    ~exec:Tcp.Exec_scatter 3 (fun sites ->
      let oids = load_tcp sites ds in
      let compile text = Hf_query.Compile.compile (parse text) in
      let shipped = compile "(Pointer, \"R\", ?X) ^^X [ (Keyword, \"hot\", ?) ]^1" in
      let scattered = compile "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
      let run program = Tcp.run_query sites.(0) program [ oids.(0) ] in
      let results o = List.sort compare (logical_results oids o.Tcp.result_set) in
      let complete what o expected =
        check_bool (what ^ ": complete") true (o.Tcp.status = Tcp.Complete);
        Alcotest.(check (list int)) (what ^ ": results") expected (results o)
      in
      complete "cold" (run shipped) [ 1 ];
      complete "warm" (run shipped) [ 1 ];
      ds.hot.(2) <- true;
      Store.replace (Tcp.store sites.(1)) (Hf_data.Hobject.of_tuples oids.(2) (tuples_of ds oids 2));
      complete "after the update" (run shipped) [ 1; 2 ];
      let o = run scattered in
      complete "scattered" o [ 1; 2 ];
      check_bool "it scattered" true (o.Tcp.mode = Hf_query.Plan.Scatter);
      (* a frame from site 2 with a sequence number site 0 has had *)
      let replay = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close replay)
        (fun () ->
          Unix.connect replay (Tcp.address sites.(0));
          let frame =
            Hf_proto.Frame.frame
              (Hf_proto.Codec.encode
                 ~rel:{ Hf_proto.Codec.src = 2; seq = 1; ack = 0 }
                 (Hf_proto.Message.Stats_report { src = 2; token = 0; stats = [] }))
          in
          ignore (Unix.write_substring replay frame 0 (String.length frame));
          let deadline = Unix.gettimeofday () +. 5.0 in
          while tcp_counter sites.(0) "hf.net.dup_drops" = 0 && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done);
      Tcp.shutdown sites.(2);
      let o = run shipped in
      check_bool "site 2 dead: partial" true (o.Tcp.status = Tcp.Partial [ 2 ]);
      Alcotest.(check (list int)) "site 2 dead: site 1's results" [ 1; 2 ] (results o);
      let pinned site expected =
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "site %d" site) expected
          (List.map (fun (name, _) -> (name, tcp_counter sites.(site) ("hf.net." ^ name))) expected)
      in
      pinned 0
        [
          (* four ships validate each destination once, and the
             fallback's validation of site 2 *)
          ("cache_validations", 9);
          (* warm: both; dead peer: both again, at the moved version *)
          ("cache_hits", 4);
          (* cold: both; after the update: both, each an invalidation *)
          ("cache_misses", 4);
          ("cache_invalidations", 2);
          (* every item for site 2 but the one its give-up released *)
          ("cache_prunes", 4);
          (* site 1's verdicts, cold and after the update *)
          ("cache_fills", 4);
          ("scatter_messages", 1);
          ("gather_messages", 1);
          ("gather_nodes", 2);
          ("scatter_fallbacks", 1);
          ("planner_scatter", 1);
          ("planner_ship", 4);
        ];
      pinned 1
        [
          ("cache_validations", 0); ("cache_hits", 0); ("cache_misses", 0);
          ("cache_invalidations", 0); ("cache_prunes", 0); ("cache_fills", 0);
          ("scatter_messages", 0); ("gather_messages", 0); ("gather_nodes", 0);
          ("scatter_fallbacks", 0); ("planner_scatter", 0); ("planner_ship", 0);
        ];
      List.iter
        (fun name -> check_bool (name ^ " at least once") true (tcp_counter sites.(0) name >= 1))
        [ "hf.net.retransmits"; "hf.net.give_ups"; "hf.net.dup_drops" ])

let () =
  Alcotest.run "hf_cache"
    [
      ( "bloom",
        [
          qtest prop_bloom_no_false_negatives;
          Alcotest.test_case "fp rate within 2x budget" `Quick test_bloom_fp_rate_within_budget;
          qtest prop_bloom_wire_roundtrip;
          qtest prop_bloom_union_no_false_negatives;
          qtest prop_bloom_union_planned_total;
          qtest prop_bloom_union_wire_roundtrip;
          Alcotest.test_case "of_string total on garbage" `Quick test_bloom_of_string_garbage;
          Alcotest.test_case "summary tracks the store" `Quick test_summary_tracks_store;
        ] );
      ("differential cube", List.map qtest cube_props);
      ( "differential",
        [
          qtest prop_cache_transparent;
          qtest prop_updates_invalidate;
          qtest prop_counts_mode_unaffected;
          Alcotest.test_case "update invalidates, with counters" `Quick
            test_update_invalidation_counters;
          Alcotest.test_case "prune respects updates" `Quick test_prune_respects_updates;
        ] );
      ( "credit safety",
        [
          Alcotest.test_case "weighted: hit and prune leave credit 1" `Quick test_credit_weighted;
          Alcotest.test_case "dijkstra-scholten: hit and prune leave credit 1" `Quick
            test_credit_ds;
          Alcotest.test_case "four-counter: hit and prune leave credit 1" `Quick test_credit_fc;
          Alcotest.test_case "validate give-up yields explicit partial" `Quick
            test_validate_giveup_partial;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "repeat query over TCP with cache" `Quick test_tcp_cache_repeat;
          Alcotest.test_case "every counter of a scripted three-site run" `Quick test_tcp_counters;
        ] );
      ("keys", [ Alcotest.test_case "entry keys follow oid identity" `Quick test_entry_key_identity ]);
    ]
