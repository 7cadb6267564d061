(* Differential tests for the scatter-gather execution mode
   (doc/execution_modes.md).  The contract under test: [Exec_scatter]
   and [Exec_auto] return exactly the answer of classic [Exec_ship] —
   same result set, same bindings — across both engines (simulated
   cluster and TCP sites), message loss with reliability, the remote
   cache on or off, and concurrent submissions.  The planner only ever
   changes the cost of a query, never its answer.

   Plus the planner-prediction property: when the predicted site set
   covers every site any pointer chain can reach, no stitched chain
   falls back to classic shipping ([scatter_fallbacks] = 0); when
   prediction misses, fallbacks fire and the answer is still
   byte-identical (covered by the cube). *)

module Oid = Hf_data.Oid
module Cluster = Hf_server.Cluster
module Metrics = Hf_server.Metrics
module Tcp = Hf_net.Tcp_site

(* the random dataset, query list, cluster loaders and TCP scaffolding
   live in the shared harness; [queries] here are its scatter shapes *)
open Hf_test_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hf_query.Parser.parse_body

let queries = scatter_queries

(* --- Simulated cluster: the loss × cache × mode cube ---------------- *)

type sim_run = {
  outcome : Cluster.outcome;
  results : int list; (* logical ids, sorted *)
  bindings : (string * Hf_data.Value.t list) list;
}

let run_sim ~seed ~loss ~cache_on ~exec ~ds ~query ~origin ~initial_logical =
  let config =
    {
      Cluster.default_config with
      Cluster.loss;
      jitter_seed = seed;
      reliability = reliability_for loss;
      cache = (if cache_on then Some Hf_index.Remote_cache.default else None);
      exec;
    }
  in
  let n_sites = 1 + Array.fold_left max 0 ds.placement in
  let cluster = C.create ~config ~n_sites () in
  let oids = load_sim cluster ds in
  let outcome =
    C.run_query cluster ~origin (Hf_query.Compile.compile query)
      (List.map (fun i -> oids.(i)) initial_logical)
  in
  let logical oid =
    let found = ref (-1) in
    Array.iteri (fun i o -> if Oid.equal o oid then found := i) oids;
    !found
  in
  {
    outcome;
    results = List.sort compare (List.map logical (Oid.Set.elements outcome.Cluster.result_set));
    bindings = sorted_bindings outcome.Cluster.bindings;
  }

let cube_cell ~seed ~loss ~cache_on =
  let prng = Hf_util.Prng.create seed in
  let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
  let ds = random_dataset prng ~n_sites in
  (* pin the placement range so every run builds the same cluster size *)
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  ds.placement.(0) <- n_sites - 1;
  let query = parse (List.nth queries (Hf_util.Prng.next_int prng (List.length queries))) in
  let origin = Hf_util.Prng.next_int prng n_sites in
  let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
  let run exec = run_sim ~seed ~loss ~cache_on ~exec ~ds ~query ~origin ~initial_logical in
  let ship = run Cluster.Exec_ship in
  let scatter = run Cluster.Exec_scatter in
  let auto = run Cluster.Exec_auto in
  ship.outcome.Cluster.terminated
  && scatter.outcome.Cluster.terminated
  && auto.outcome.Cluster.terminated
  && ship.outcome.Cluster.unreachable_sites = []
  && scatter.outcome.Cluster.unreachable_sites = []
  && auto.outcome.Cluster.unreachable_sites = []
  && scatter.results = ship.results
  && auto.results = ship.results
  && scatter.bindings = ship.bindings
  && auto.bindings = ship.bindings
  (* under Exec_ship the planner never runs *)
  && ship.outcome.Cluster.mode = Hf_query.Plan.Ship
  && ship.outcome.Cluster.plan_decision = None

let prop_cube ~loss ~cache_on =
  QCheck2.Test.make
    ~name:
      (Fmt.str "scatter ≡ shipping (sim, loss=%.2f, cache=%s)" loss
         (if cache_on then "on" else "off"))
    ~count:60 QCheck2.Gen.int
    (fun seed -> cube_cell ~seed ~loss ~cache_on)

(* Planner prediction: [predicted] (plus the origin) overapproximating
   every site reachable through ANY pointer edge from the seeds implies
   no chain can escape the scattered set, so [scatter_fallbacks] must be
   0 — prediction was sufficient and the single round really was single.
   (The converse — prediction misses, fallbacks fire, answer unchanged —
   is what the cube above keeps honest.) *)
let reachable_sites ds initial_logical =
  let seen = Array.make ds.n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun (src, _, dst) -> if src = i then visit dst) ds.edges
    end
  in
  List.iter visit initial_logical;
  let sites = ref [] in
  Array.iteri (fun i reached -> if reached && not (List.mem ds.placement.(i) !sites) then sites := ds.placement.(i) :: !sites) seen;
  List.sort compare !sites

let prop_planner_prediction =
  QCheck2.Test.make ~name:"sufficient prediction means zero fallbacks (sim)" ~count:120
    QCheck2.Gen.int (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n_sites = 2 + Hf_util.Prng.next_int prng 3 in
      let ds = random_dataset prng ~n_sites in
      let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
      ds.placement.(0) <- n_sites - 1;
      let query = parse (List.hd queries) in
      let origin = Hf_util.Prng.next_int prng n_sites in
      let initial_logical = [ Hf_util.Prng.next_int prng ds.n ] in
      let r =
        run_sim ~seed ~loss:0.0 ~cache_on:false ~exec:Cluster.Exec_scatter ~ds ~query ~origin
          ~initial_logical
      in
      match (r.outcome.Cluster.mode, r.outcome.Cluster.plan_decision) with
      | Hf_query.Plan.Ship, _ -> true (* planner declined; cube covers this *)
      | Hf_query.Plan.Scatter, None -> false (* scatter without a decision is a bug *)
      | Hf_query.Plan.Scatter, Some d ->
          let touched = reachable_sites ds initial_logical in
          let covered =
            List.for_all (fun s -> s = origin || List.mem s d.Hf_query.Plan.predicted) touched
          in
          (not covered)
          || r.outcome.Cluster.metrics.Metrics.scatter_fallbacks = 0)

(* Concurrency: several scatter-mode queries in flight on one cluster at
   once must each match their own solo Exec_ship answer. *)
let test_sim_concurrent_scatter () =
  let prng = Hf_util.Prng.create 7 in
  let n_sites = 3 in
  let ds = random_dataset prng ~n_sites in
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  let programs = List.map (fun q -> Hf_query.Compile.compile (parse q)) queries in
  let seeds = List.mapi (fun i _ -> i mod ds.n) programs in
  let solo =
    List.map2
      (fun program seed ->
        let cluster = C.create ~n_sites () in
        let oids = load_sim cluster ds in
        let o = C.run_query cluster ~origin:(seed mod n_sites) program [ oids.(seed) ] in
        Oid.Set.cardinal o.Cluster.result_set)
      programs seeds
  in
  let config = { Cluster.default_config with Cluster.exec = Cluster.Exec_scatter } in
  let cluster = C.create ~config ~n_sites () in
  let oids = load_sim cluster ds in
  let handles =
    List.map2
      (fun program seed -> C.submit cluster ~origin:(seed mod n_sites) program [ oids.(seed) ])
      programs seeds
  in
  C.await_quiescence cluster;
  List.iteri
    (fun i (handle, expected) ->
      let o = C.outcome cluster handle in
      check_bool (Fmt.str "query %d terminated" i) true o.Cluster.terminated;
      check_int (Fmt.str "query %d result count" i) expected
        (Oid.Set.cardinal o.Cluster.result_set))
    (List.combine handles solo)

(* --- TCP sites: mode × cache, sequential and concurrent ------------- *)

let tcp_differential ~cache_on () =
  let n_sites = 3 in
  let prng = Hf_util.Prng.create 23 in
  let ds = random_dataset prng ~n_sites in
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  let cache = if cache_on then Some Hf_index.Remote_cache.default else None in
  let programs = List.map (fun q -> Hf_query.Compile.compile (parse q)) queries in
  let run exec =
    with_tcp_sites ?cache ~exec n_sites (fun sites ->
        let oids = load_tcp sites ds in
        List.mapi
          (fun i program ->
            let o = Tcp.run_query sites.(i mod n_sites) program [ oids.(i mod ds.n) ] in
            check_bool (Fmt.str "terminated %d" i) true o.Tcp.terminated;
            (o.Tcp.result_set, sorted_bindings o.Tcp.bindings, o.Tcp.mode))
          programs)
  in
  let ship = run Tcp.Exec_ship in
  let scatter = run Tcp.Exec_scatter in
  let auto = run Tcp.Exec_auto in
  List.iteri
    (fun i ((sh, shb, _), ((sc, scb, _), (au, aub, _))) ->
      check_bool (Fmt.str "scatter set %d" i) true (Oid.Set.equal sh sc);
      check_bool (Fmt.str "auto set %d" i) true (Oid.Set.equal sh au);
      check_bool (Fmt.str "scatter bindings %d" i) true (shb = scb);
      check_bool (Fmt.str "auto bindings %d" i) true (shb = aub))
    (List.combine ship (List.combine scatter auto));
  (* Exec_ship never consults the planner *)
  List.iter (fun (_, _, mode) -> check_bool "ship mode" true (mode = Hf_query.Plan.Ship)) ship

let test_tcp_differential_nocache () = tcp_differential ~cache_on:false ()
let test_tcp_differential_cache () = tcp_differential ~cache_on:true ()

let test_tcp_concurrent_scatter () =
  (* several in-flight scatter queries against the answers of their solo
     ship runs — concurrency leg of the cube on real sockets *)
  let n_sites = 3 in
  let prng = Hf_util.Prng.create 41 in
  let ds = random_dataset prng ~n_sites in
  let ds = { ds with placement = Array.map (fun s -> s mod n_sites) ds.placement } in
  let programs = List.map (fun q -> Hf_query.Compile.compile (parse q)) queries in
  let expected =
    with_tcp_sites ~exec:Tcp.Exec_ship n_sites (fun sites ->
        let oids = load_tcp sites ds in
        List.mapi
          (fun i program ->
            (Tcp.run_query sites.(i mod n_sites) program [ oids.(i mod ds.n) ]).Tcp.result_set)
          programs)
  in
  with_tcp_sites ~exec:Tcp.Exec_scatter n_sites (fun sites ->
      let oids = load_tcp sites ds in
      let handles =
        List.mapi
          (fun i program ->
            (i, Tcp.submit_query sites.(i mod n_sites) program [ oids.(i mod ds.n) ]))
          programs
      in
      List.iter2
        (fun (i, handle) want ->
          let o = Tcp.await sites.(i mod n_sites) handle in
          check_bool (Fmt.str "terminated %d" i) true o.Tcp.terminated;
          check_bool (Fmt.str "result set %d" i) true (Oid.Set.equal want o.Tcp.result_set))
        handles expected)

let test_tcp_explain () =
  (* [explain] must work without running the query, on any exec mode *)
  with_tcp_sites ~exec:Tcp.Exec_ship 2 (fun sites ->
      let prng = Hf_util.Prng.create 5 in
      let ds = random_dataset prng ~n_sites:2 in
      let ds = { ds with placement = Array.map (fun s -> s mod 2) ds.placement } in
      let oids = load_tcp sites ds in
      let program = Hf_query.Compile.compile (parse (List.hd queries)) in
      let d = Tcp.explain sites.(0) program [ oids.(0) ] in
      check_bool "eligible star chain" true d.Hf_query.Plan.eligible;
      let finite = Hf_query.Compile.compile (parse (List.nth queries 2)) in
      let d2 = Tcp.explain sites.(0) finite [ oids.(0) ] in
      check_bool "finite iterator ineligible" true (not d2.Hf_query.Plan.eligible);
      check_bool "has a reason" true (d2.Hf_query.Plan.reason <> None))

(* --- The stitcher -------------------------------------------------------- *)

(* One gather per scattered site: a second gather from a site already
   installed, or one from a site outside the scatter, activates nothing
   and leaves the count of gathers due alone. *)
let test_one_gather_per_site () =
  let module Stitch = Hf_engine.Scatter.Stitch in
  let store = Store.create ~site:0 in
  let oid = Store.fresh_oid store in
  Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword "hot" ]);
  let plan = Hf_engine.Plan.make (Hf_query.Compile.compile (parse "(Keyword, \"hot\", ?)")) in
  let nodes =
    Hf_engine.Scatter.eval_site ~plan ~find:(Store.find store) ~oids:[] ~roots:[ oid ]
      ~stats:(Hf_engine.Stats.create ())
  in
  let stitch = Stitch.create ~plan ~sites:[ 0; 1 ] ~roots:[ (0, [ oid ]) ] in
  check_int "two gathers due" 2 (Stitch.outstanding stitch);
  let first = Stitch.add_gather stitch ~site:0 nodes in
  check_bool "the root passes" true (List.exists (Oid.equal oid) first.Stitch.passed);
  check_int "one gather due" 1 (Stitch.outstanding stitch);
  List.iter
    (fun (what, site) ->
      let outcome = Stitch.add_gather stitch ~site nodes in
      check_int (what ^ ": nothing passes") 0 (List.length outcome.Stitch.passed);
      check_int (what ^ ": still one gather due") 1 (Stitch.outstanding stitch))
    [ ("a second gather", 0); ("a site outside the scatter", 2) ]


let () =
  Alcotest.run "hf_scatter"
    [
      ( "sim cube",
        [
          qtest (prop_cube ~loss:0.0 ~cache_on:false);
          qtest (prop_cube ~loss:0.0 ~cache_on:true);
          qtest (prop_cube ~loss:0.05 ~cache_on:false);
          qtest (prop_cube ~loss:0.05 ~cache_on:true);
          qtest (prop_cube ~loss:0.2 ~cache_on:false);
          qtest (prop_cube ~loss:0.2 ~cache_on:true);
          qtest prop_planner_prediction;
          Alcotest.test_case "concurrent scatter queries" `Quick test_sim_concurrent_scatter;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "mode differential, cache off" `Quick
            test_tcp_differential_nocache;
          Alcotest.test_case "mode differential, cache on" `Quick test_tcp_differential_cache;
          Alcotest.test_case "concurrent scatter queries" `Quick test_tcp_concurrent_scatter;
          Alcotest.test_case "explain without running" `Quick test_tcp_explain;
        ] );
      ("stitch", [ Alcotest.test_case "one gather per site" `Quick test_one_gather_per_site ]);
    ]
