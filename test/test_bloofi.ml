(* Property tests for the Bloofi hierarchical cross-site index
   (DESIGN.md §4k) and its wiring into both engines.

   Four classes, per the design contract:

   (a) the tree itself never loses a member: under arbitrary
       insert/update/remove interleavings, a probe for a key held by a
       live site always returns that site — and the probe result is
       EXACTLY the flat per-filter scan's may-match set, which is what
       makes the planner's descent answer-preserving by construction;
   (b) the OR-invariant holds structurally after every mutation
       ([invariant_ok]: each inner filter is the union of its live
       children, or absent exactly when children were incompatible);
   (c) differential: on the simulator, bloofi on ≡ bloofi off,
       byte-identical results across exec modes × batching ×
       reliability × loss; on TCP, which always runs the tree, results
       equal the single-store oracle — the index only ever changes the
       cost of a plan;
   (d) staleness is sound: a stale tree may over-ship, it never
       wrongly prunes — updates landing after a summary was learned
       are still found, on the planner path, the [Seed_from] re-query
       broadcast, and across a TCP peer restart (epoch regression). *)

module Oid = Hf_data.Oid
module Store = Hf_data.Store
module Cluster = Hf_server.Cluster
module Bloom = Hf_index.Bloom
module Bloofi = Hf_index.Bloofi
module Rc = Hf_index.Remote_cache
module Tcp = Hf_net.Tcp_site

open Hf_test_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hf_query.Parser.parse_body
let compile q = Hf_query.Compile.compile (parse q)


(* --- (a) + (b): the tree against a model ---------------------------- *)

let fresh_filter ?(expected = 1) keys =
  let bloom = Bloom.create ~expected:(max expected (List.length keys)) ~fp_rate:0.01 in
  List.iter (Bloom.add bloom) keys;
  bloom

(* Random insert/update/remove interleavings against a trivial model
   (site -> keys).  After EVERY mutation the OR-invariant must hold;
   at the end, membership matches the model and probing for any key a
   live site holds finds that site — no false negatives through the
   union path, whatever shape the mutations left the tree in. *)
let prop_tree_model =
  QCheck2.Test.make ~name:"bloofi: model agreement under mutation interleavings" ~count:150
    QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let order = 2 + Hf_util.Prng.next_int prng 4 in
      let tree = Bloofi.create ~order () in
      let model : (int, string list) Hashtbl.t = Hashtbl.create 16 in
      let ops = 1 + Hf_util.Prng.next_int prng 80 in
      let ok = ref true in
      for step = 0 to ops - 1 do
        let site = Hf_util.Prng.next_int prng 24 in
        (match Hf_util.Prng.next_int prng 3 with
        | 0 | 1 ->
            (* insert fresh, or replace (the Cache_version churn path) *)
            let nk = Hf_util.Prng.next_int prng 6 in
            let keys = List.init nk (fun k -> Printf.sprintf "s%d-v%d-%d" site step k) in
            Bloofi.insert tree ~site (fresh_filter keys);
            Hashtbl.replace model site keys
        | _ ->
            Bloofi.remove tree ~site;
            Hashtbl.remove model site);
        ok := !ok && Bloofi.invariant_ok tree
      done;
      ok := !ok && Bloofi.cardinal tree = Hashtbl.length model;
      Hashtbl.iter
        (fun site keys ->
          ok := !ok && Bloofi.mem tree ~site;
          List.iter
            (fun key ->
              let r = Bloofi.probe tree [ [ key ] ] in
              ok := !ok && List.mem site r.Bloofi.sites)
            keys)
        model;
      !ok)

(* The descent is EXACTLY the flat scan: for random filters and random
   probe groups, [probe] returns precisely the sites whose own filter
   may match the disjunction-of-conjunctions — the equality the engines
   rely on for byte-identical answers. *)
let prop_probe_equals_flat_scan =
  QCheck2.Test.make ~name:"bloofi: probe ≡ flat per-filter scan" ~count:200 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let tree = Bloofi.create ~order:(2 + Hf_util.Prng.next_int prng 3) () in
      let n = 1 + Hf_util.Prng.next_int prng 20 in
      let filters =
        List.init n (fun site ->
            let nk = Hf_util.Prng.next_int prng 5 in
            let keys = List.init nk (fun k -> Printf.sprintf "s%d-%d" site k) in
            let bloom = fresh_filter keys in
            Bloofi.insert tree ~site bloom;
            (site, bloom))
      in
      (* probes drawn from both present and absent key spaces *)
      let any_key () =
        if Hf_util.Prng.next_bool prng 0.5 then
          Printf.sprintf "s%d-%d" (Hf_util.Prng.next_int prng n) (Hf_util.Prng.next_int prng 5)
        else Printf.sprintf "absent-%d" (Hf_util.Prng.next_int prng 10)
      in
      let groups =
        List.init (Hf_util.Prng.next_int prng 4) (fun _ ->
            List.init (Hf_util.Prng.next_int prng 4) (fun _ -> any_key ()))
      in
      let flat_may bloom =
        groups = [] || List.exists (fun g -> List.for_all (Bloom.mem bloom) g) groups
      in
      let expected =
        List.sort Int.compare
          (List.filter_map (fun (site, bloom) -> if flat_may bloom then Some site else None) filters)
      in
      let r = Bloofi.probe tree groups in
      r.Bloofi.sites = expected)

(* Deterministic growth: pushing past leaf capacity rebuilds one level
   deeper, keeps every site, and sheds removed sites' bits (exact
   recomputation, not grow-only OR). *)
let test_tree_growth_and_shrink () =
  let tree = Bloofi.create ~order:3 () in
  (* filters sized so the inner ORs don't saturate: sublinear descent
     is only observable when the union of 50 leaves still discriminates *)
  for site = 0 to 49 do
    Bloofi.insert tree ~site (fresh_filter ~expected:64 [ Printf.sprintf "key-%d" site ]);
    check_bool (Printf.sprintf "invariant after insert %d" site) true (Bloofi.invariant_ok tree)
  done;
  check_int "all indexed" 50 (Bloofi.cardinal tree);
  check_bool "grew at least twice" true (Bloofi.rebuilds tree >= 2);
  (* a probe for one site's key touches far fewer nodes than one per
     leaf: the whole point of the hierarchy *)
  let r = Bloofi.probe tree [ [ "key-17" ] ] in
  check_bool "finds the site" true (List.mem 17 r.Bloofi.sites);
  check_bool "descent is sublinear" true (r.Bloofi.touched < 50);
  (* removal really sheds bits: after dropping site 17, its key prunes
     the whole tree (modulo Bloom false positives on 1-key filters,
     which the 0.01 budget makes vanishingly unlikely here) *)
  Bloofi.remove tree ~site:17;
  check_bool "invariant after remove" true (Bloofi.invariant_ok tree);
  check_int "one fewer" 49 (Bloofi.cardinal tree);
  check_bool "removed site unindexed" false (Bloofi.mem tree ~site:17);
  for site = 0 to 49 do
    Bloofi.remove tree ~site
  done;
  check_int "empty" 0 (Bloofi.cardinal tree);
  check_bool "invariant on empty" true (Bloofi.invariant_ok tree);
  let r = Bloofi.probe tree [ [ "anything" ] ] in
  check_int "empty tree prunes nothing into existence" 0 (List.length r.Bloofi.sites)

(* --- (c) differential: bloofi on ≡ bloofi off ------------------------ *)

let exec_modes = [ Cluster.Exec_ship; Cluster.Exec_scatter; Cluster.Exec_auto ]

let all_queries = cache_queries @ scatter_queries

(* One cube cell: same corpus, same query, same seed — a bloofi-on and
   a bloofi-off cluster, each asked three times (so later runs face a
   warm tree), with a random exec mode.  In the deterministic regime
   (lossless, or lossy with reliability) the outcome streams must be
   byte-identical; under fire-and-forget loss both runs must be sound
   against the oracle and exact whenever they declared termination. *)
let bloofi_cell ~seed cell =
  let prng = Hf_util.Prng.create seed in
  let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
  let ds = random_dataset prng ~n_sites in
  let query = List.nth all_queries (Hf_util.Prng.next_int prng (List.length all_queries)) in
  let exec = List.nth exec_modes (Hf_util.Prng.next_int prng (List.length exec_modes)) in
  let origin = Hf_util.Prng.next_int prng n_sites in
  let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
  let expected, _ = local_oracle ds (parse query) initial_logical in
  let _, reliable, loss = cell in
  let exact_regime = loss = 0.0 || reliable in
  let run ~bloofi =
    let config = { (config_of ~bloofi ~seed ~cache:true cell) with Cluster.exec } in
    let cluster = C.create ~config ~n_sites () in
    let oids = load_sim cluster ds in
    let program = compile query in
    let initial = List.map (fun i -> oids.(i)) initial_logical in
    List.init 3 (fun _ ->
        let o = C.run_query cluster ~origin program initial in
        ( o.Cluster.terminated,
          logical_results oids o.Cluster.result_set,
          sorted_bindings o.Cluster.bindings,
          o.Cluster.unreachable_sites ))
  in
  let on = run ~bloofi:true in
  let off = run ~bloofi:false in
  if exact_regime then List.for_all (fun (t, _, _, _) -> t) on && on = off
  else
    List.for_all
      (fun (terminated, got, _, _) ->
        List.for_all (fun i -> List.mem i expected) got
        && ((not terminated) || got = expected))
      (on @ off)

let cube_props =
  List.map
    (fun cell ->
      let name = Fmt.str "bloofi on ≡ off (sim): %s" (cell_name cell) in
      QCheck2.Test.make ~name ~count:30 QCheck2.Gen.int (fun seed -> bloofi_cell ~seed cell))
    cube

(* The planner's verdicts are the SAME set either way — only the probe
   cost differs, and the decision says how it was computed. *)
let test_sim_plan_index_stats () =
  let prng = Hf_util.Prng.create 11 in
  let n_sites = 3 in
  let ds = random_dataset prng ~n_sites in
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  let run ~bloofi =
    let config =
      { Cluster.default_config with
        Cluster.cache = Some Rc.default;
        exec = Cluster.Exec_auto;
        bloofi;
      }
    in
    let cluster = C.create ~config ~n_sites () in
    let oids = load_sim cluster ds in
    let o = C.run_query cluster ~origin:0 (compile (List.hd scatter_queries)) [ oids.(0) ] in
    check_bool "terminated" true o.Cluster.terminated;
    Option.get o.Cluster.plan_decision
  in
  let d_on = run ~bloofi:true in
  let d_off = run ~bloofi:false in
  check_bool "same predicted sites" true
    (d_on.Hf_query.Plan.predicted = d_off.Hf_query.Plan.predicted);
  check_bool "same remainder" true (d_on.Hf_query.Plan.remainder = d_off.Hf_query.Plan.remainder);
  check_bool "flat scan carries no index stats" true (d_off.Hf_query.Plan.index = None);
  match d_on.Hf_query.Plan.index with
  | None -> Alcotest.fail "bloofi run must carry index stats"
  | Some stats ->
      check_int "every peer indexed" (n_sites - 1) stats.Hf_query.Plan.indexed;
      check_bool "descent touched nodes" true (stats.Hf_query.Plan.touched >= 1);
      check_bool "pruned within range" true
        (stats.Hf_query.Plan.pruned >= 0 && stats.Hf_query.Plan.pruned <= stats.Hf_query.Plan.indexed)

(* TCP engine: the tree-backed planner against the single-store oracle
   across exec modes, plain and batched+reliable, each query asked twice
   so the second run faces the tree the Cache_version replies built.
   Also pins the hf.index.bloofi_* counters: the planner really did
   probe the tree, and pruned counts stay consistent. *)
let test_tcp_bloofi_differential () =
  let n_sites = 3 in
  let prng = Hf_util.Prng.create 91 in
  let ds = random_dataset prng ~n_sites in
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  let counter site name =
    match Hf_obs.Registry.find (Tcp.registry site) name with
    | Some (Hf_obs.Registry.Counter read) -> read ()
    | Some _ | None -> Alcotest.failf "counter %s not registered" name
  in
  List.iter
    (fun (exec, batch, reliability) ->
      with_tcp_sites ~cache:Rc.default ?batch ?reliability ~exec n_sites (fun sites ->
          let oids = load_tcp sites ds in
          List.iteri
            (fun i query ->
              let expected, expected_bindings = local_oracle ds (parse query) [ 0 ] in
              for _ = 1 to 2 do
                let o = Tcp.run_query sites.(0) (compile query) [ oids.(0) ] in
                check_bool "terminated" true o.Tcp.terminated;
                check_bool (Fmt.str "result set %d" i) true
                  (logical_results oids o.Tcp.result_set = expected);
                check_bool (Fmt.str "bindings %d" i) true
                  (sorted_bindings o.Tcp.bindings = expected_bindings)
              done)
            all_queries;
          check_bool "pruned only what was indexed" true
            (counter sites.(0) "hf.index.bloofi_pruned_sites" >= 0);
          (* under a planning mode the warm runs must actually have probed *)
          if exec <> Tcp.Exec_ship then
            check_bool (Fmt.str "tree probed under %b" (exec = Tcp.Exec_auto)) true
              (counter sites.(0) "hf.index.bloofi_probes" > 0)))
    [
      (Tcp.Exec_ship, None, None);
      (Tcp.Exec_scatter, None, None);
      (Tcp.Exec_auto, None, None);
      (Tcp.Exec_auto, Some (Hf_proto.Batch.Flush_at 4), Some Hf_proto.Reliable.default);
    ]

(* --- (d) staleness: over-ship maybe, wrongly prune never ------------- *)

(* An update landing AFTER the origin learned the destination's summary
   must still be found: the learned filter proves absence only at the
   version it was built for. *)
let test_sim_update_after_learning () =
  let ds =
    {
      n = 4;
      placement = [| 0; 1; 1; 2 |];
      edges = [ (0, "R", 1); (0, "R", 2); (0, "R", 3) ];
      hot = [| false; false; false; false |];
    }
  in
  let config = { Cluster.default_config with Cluster.cache = Some Rc.default } in
  let cluster = C.create ~config ~n_sites:3 () in
  let oids = load_sim cluster ds in
  let program = compile "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
  let o1 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run1 terminated" true o1.Cluster.terminated;
  check_int "run1: nothing hot yet" 0 (List.length o1.Cluster.results);
  (* site 2's object becomes hot; origin 0's learned summary of site 2
     now proves the wrong thing *)
  ds.hot.(3) <- true;
  Store.replace (C.store cluster 2) (Hf_data.Hobject.of_tuples oids.(3) (tuples_of ds oids 3));
  let o2 = C.run_query cluster ~origin:0 program [ oids.(0) ] in
  check_bool "run2 terminated" true o2.Cluster.terminated;
  check_int "run2: the update is found, not pruned away" 1 (List.length o2.Cluster.results)

(* The [Seed_from] re-query broadcast prune consults the tree before
   any validation round trip can refresh it — the one place a stale
   leaf could silently lose a site's whole contribution.  An update
   between the first query and the re-query must still be found, and
   the bloofi-on cluster must agree with its bloofi-off twin. *)
let test_sim_requery_broadcast_sound () =
  let n = 6 in
  let run ~bloofi =
    let ds =
      {
        n;
        placement = Array.init n (fun i -> i mod 3);
        edges = List.init n (fun i -> (i, "R", (i + 1) mod n));
        hot = Array.make n false;
      }
    in
    let config = { Cluster.default_config with Cluster.cache = Some Rc.default; bloofi } in
    let cluster = C.create ~config ~n_sites:3 () in
    let oids = load_sim cluster ds in
    let q1 = compile "[ (Pointer, \"R\", ?X) ^^X ]* (?, ?, ?)" in
    let o1 = C.run_query cluster ~origin:0 q1 [ oids.(0) ] in
    check_bool "q1 terminated" true o1.Cluster.terminated;
    check_int "q1 reaches the whole ring" n (Oid.Set.cardinal o1.Cluster.result_set);
    let q1_id = Option.get (C.last_query_id cluster) in
    (* the update lands after q1's validations populated the tree *)
    ds.hot.(4) <- true;
    Store.replace
      (C.store cluster ds.placement.(4))
      (Hf_data.Hobject.of_tuples oids.(4) (tuples_of ds oids 4));
    let o2 = C.run_query_on_distributed cluster ~origin:0 ~from:q1_id (compile "(Keyword, \"hot\", ?)") in
    check_bool "re-query terminated" true o2.Cluster.terminated;
    check_bool "the fresh hot object is found" true (Oid.Set.mem oids.(4) o2.Cluster.result_set);
    Oid.Set.cardinal o2.Cluster.result_set
  in
  check_int "bloofi on ≡ off on the re-query" (run ~bloofi:false) (run ~bloofi:true)

(* TCP peer restart: push the peer's summary epoch up, replace the
   process (same site id, fresh store and epoch counter), and make the
   restarted peer's store version COLLIDE with the old lineage's — the
   epoch regression is then the only signal that everything learned
   about the peer is dead.  The hot object the new lineage holds must
   be found. *)
let test_tcp_epoch_regression_sound () =
  let a = Tcp.create ~site:0 ~cache:Rc.default () in
  let b = Tcp.create ~site:1 ~cache:Rc.default () in
  Fun.protect
    ~finally:(fun () ->
      Tcp.shutdown a;
      Tcp.shutdown b)
    (fun () ->
      let wire sites =
        let addresses = Array.map Tcp.address sites in
        Array.iter (fun s -> Tcp.set_peers s addresses) sites
      in
      wire [| a; b |];
      (* b's first oid, deterministically the same for the restarted
         lineage's fresh store *)
      let b_oid = Store.fresh_oid (Tcp.store b) in
      Store.insert (Tcp.store b)
        (Hf_data.Hobject.of_tuples b_oid [ Hf_data.Tuple.number ~key:"id" 1 ]);
      let a_oid = Store.fresh_oid (Tcp.store a) in
      Store.insert (Tcp.store a)
        (Hf_data.Hobject.of_tuples a_oid [ Hf_data.Tuple.pointer ~key:"R" b_oid ]);
      let program = compile "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
      let o1 = Tcp.run_query a program [ a_oid ] in
      check_bool "run1 terminated" true o1.Tcp.terminated;
      check_int "run1: not hot" 0 (List.length o1.Tcp.results);
      (* two update+query rounds push b's summary epoch to 3 *)
      for i = 2 to 3 do
        let junk = Store.fresh_oid (Tcp.store b) in
        Store.insert (Tcp.store b)
          (Hf_data.Hobject.of_tuples junk [ Hf_data.Tuple.number ~key:"id" (10 + i) ]);
        let o = Tcp.run_query a program [ a_oid ] in
        check_bool (Fmt.str "warm run %d terminated" i) true o.Tcp.terminated
      done;
      (* restart: same site id, fresh lineage whose version will collide
         with the old one (3 inserts each) but whose content is HOT *)
      Tcp.shutdown b;
      let b2 = Tcp.create ~site:1 ~cache:Rc.default () in
      Fun.protect
        ~finally:(fun () -> Tcp.shutdown b2)
        (fun () ->
          let b2_oid = Store.fresh_oid (Tcp.store b2) in
          check_bool "restarted lineage reuses the oid" true (Oid.equal b_oid b2_oid);
          Store.insert (Tcp.store b2)
            (Hf_data.Hobject.of_tuples b2_oid [ Hf_data.Tuple.keyword "hot" ]);
          for i = 0 to 1 do
            let junk = Store.fresh_oid (Tcp.store b2) in
            Store.insert (Tcp.store b2)
              (Hf_data.Hobject.of_tuples junk [ Hf_data.Tuple.number ~key:"id" (20 + i) ])
          done;
          wire [| a; b2 |];
          let o2 = Tcp.run_query a program [ a_oid ] in
          check_bool "post-restart terminated" true o2.Tcp.terminated;
          check_int "the new lineage's hot object is found, not pruned" 1
            (List.length o2.Tcp.results)))

let () =
  Alcotest.run "hf_bloofi"
    [
      ( "tree",
        [
          qtest prop_tree_model;
          qtest prop_probe_equals_flat_scan;
          Alcotest.test_case "growth, sublinear descent, shrink" `Quick
            test_tree_growth_and_shrink;
        ] );
      ("differential cube", List.map qtest cube_props);
      ( "engines",
        [
          Alcotest.test_case "planner index stats, same verdicts" `Quick
            test_sim_plan_index_stats;
          Alcotest.test_case "tcp differential + counters" `Quick test_tcp_bloofi_differential;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "update after learning is found (sim)" `Quick
            test_sim_update_after_learning;
          Alcotest.test_case "re-query broadcast prune is sound (sim)" `Quick
            test_sim_requery_broadcast_sound;
          Alcotest.test_case "epoch regression on restart (tcp)" `Quick
            test_tcp_epoch_regression_sound;
        ] );
    ]
