(* Shared differential-test harness: the property-test runner, the
   random logical corpus, the single-store oracle, the configuration
   cube {batching} x {reliability} x {loss}, and the simulated-cluster /
   TCP loaders.
   The server, cache, scatter, concurrency and bloofi suites all drive
   the same machinery from here — one copy instead of a near-identical
   block per suite. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Store = Hf_data.Store
module Cluster = Hf_server.Cluster
module Tcp = Hf_net.Tcp_site

(* --- Property tests ----------------------------------------------------- *)

(* Every property runs from one fixed seed, so a failure fails again on
   a rerun; [QCHECK_SEED=N] runs them from seed N instead (CI reruns the
   property suites under a rotating one).  Each property draws from a
   fresh state, and the seed is printed once per suite. *)
let seed =
  lazy
    (let seed =
       match Sys.getenv_opt "QCHECK_SEED" with
       | None -> 1
       | Some s -> (
           match int_of_string_opt s with
           | Some n -> n
           | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))
     in
     Printf.printf "qcheck seed: %d\n%!" seed;
     seed)

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t

(* --- The random logical corpus -------------------------------------- *)

(* [n] objects placed across sites, pointer edges under keys R/S, a
   "hot" keyword on about half.  [hot] is mutable so update-interleaving
   tests can flip it and re-derive the oracle. *)
type dataset = {
  n : int;
  placement : int array; (* logical -> site *)
  edges : (int * string * int) list;
  hot : bool array;
}

let random_dataset prng ~n_sites =
  let n = 4 + Hf_util.Prng.next_int prng 20 in
  let placement = Array.init n (fun _ -> Hf_util.Prng.next_int prng n_sites) in
  let n_edges = Hf_util.Prng.next_int prng (3 * n) in
  let keys = [| "R"; "S" |] in
  let edges =
    List.init n_edges (fun _ ->
        ( Hf_util.Prng.next_int prng n,
          Hf_util.Prng.pick prng keys,
          Hf_util.Prng.next_int prng n ))
  in
  let hot = Array.init n (fun _ -> Hf_util.Prng.next_bool prng 0.5) in
  { n; placement; edges; hot }

let tuples_of ds oids i =
  let pointers =
    List.filter_map
      (fun (src, key, dst) -> if src = i then Some (Tuple.pointer ~key oids.(dst)) else None)
      ds.edges
  in
  [ Tuple.number ~key:"id" i ]
  @ (if ds.hot.(i) then [ Tuple.keyword "hot" ] else [])
  @ pointers

(* One-hop programs ship items whose remaining suffix is deref-free, so
   they exercise caching and pruning; the closure shapes are never
   cacheable and pin down the no-regression path. *)
let cache_queries =
  [
    (* cacheable after the ship *)
    "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)";
    "(Pointer, \"S\", ?X) ^^X (Number, \"id\", 0..9)";
    "(Pointer, \"R\", ?X) ^X (?, ?, ?)";
    "(Pointer, \"R\", ?X) ^^X (Number, \"id\", ->ids)";
    (* not cacheable (the loop can deref again past the ship point) *)
    "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X (Pointer, \"S\", ?Y) ^^Y ]^2 (Number, \"id\", 0..9)";
  ]

(* Scatter-eligible chains, a finite-iterator one the planner must
   decline (exercising the ineligible path inside a cube), and a
   binding-emitting one so gathered bindings are compared too. *)
let scatter_queries =
  [
    "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)";
    "(Pointer, \"S\", ?X) ^^X (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X ]^3 (Keyword, \"hot\", ?)";
    "[ (Pointer, \"R\", ?X) ^^X ]* (Number, \"id\", ->ids)";
  ]

(* The deterministic corpus the concurrency battery uses: a ring of [n]
   objects over the sites, keyword on every third, a numeric id on each
   — identical construction on the sim cluster and the TCP sites, so
   solo answers are comparable. *)
let ring_tuples oids n i =
  [ Tuple.pointer ~key:"R" oids.((i + 1) mod n); Tuple.number ~key:"id" i ]
  @ if i mod 3 = 0 then [ Tuple.keyword "hot" ] else []

(* --- Result normalisation and the single-store oracle ---------------- *)

let logical_of oids oid =
  let found = ref (-1) in
  Array.iteri (fun i o -> if Oid.equal o oid then found := i) oids;
  !found

let logical_results oids result_set =
  List.sort compare (List.map (logical_of oids) (Oid.Set.elements result_set))

let sorted_bindings bs =
  List.sort compare
    (List.map (fun (t, vs) -> (t, List.sort Hf_data.Value.compare vs)) bs)

(* The whole corpus in ONE store, run by the local engine: the answer
   every distributed configuration must reproduce. *)
let local_oracle ds query initial_logical =
  let store = Store.create ~site:0 in
  let oids = Array.init ds.n (fun _ -> Store.fresh_oid store) in
  Array.iteri
    (fun i oid -> Store.insert store (Hf_data.Hobject.of_tuples oid (tuples_of ds oids i)))
    oids;
  let r =
    Hf_engine.Local.run_store ~store (Hf_query.Compile.compile query)
      (List.map (fun i -> oids.(i)) initial_logical)
  in
  ( logical_results oids r.Hf_engine.Local.result_set,
    sorted_bindings r.Hf_engine.Local.bindings )

(* --- Simulated cluster ----------------------------------------------- *)

module C = Hf_server.Instances.Weighted

let load_sim cluster ds =
  let oids = Array.init ds.n (fun i -> Store.fresh_oid (C.store cluster ds.placement.(i))) in
  Array.iteri
    (fun i oid ->
      Store.insert
        (C.store cluster ds.placement.(i))
        (Hf_data.Hobject.of_tuples oid (tuples_of ds oids i)))
    oids;
  oids

(* A generous retry budget so lossy runs never falsely declare a live
   peer unreachable, even at p = 0.2 across thousands of property-test
   messages. *)
let reliability =
  Some { Hf_proto.Reliable.default with Hf_proto.Reliable.max_retries = 30 }

let reliability_for loss = if loss > 0.0 then reliability else None

(* --- The configuration cube ------------------------------------------ *)

type cell = Hf_proto.Batch.flush_policy * bool * float
(* (batch, reliable, loss) *)

let cube : cell list =
  List.concat_map
    (fun batch ->
      List.concat_map
        (fun reliable ->
          List.map (fun loss -> (batch, reliable, loss)) [ 0.0; 0.05; 0.2 ])
        [ false; true ])
    [ Hf_proto.Batch.Flush_at 1; Hf_proto.Batch.Flush_at 4 ]

let cell_name ((batch, reliable, loss) : cell) =
  Fmt.str "batch=%s reliable=%b loss=%.2f"
    (match batch with
    | Hf_proto.Batch.Flush_at k -> string_of_int k
    | Hf_proto.Batch.Flush_on_drain -> "drain")
    reliable loss

let config_of ?(bloofi = true) ~seed ~cache ((batch, reliable, loss) : cell) =
  {
    Cluster.default_config with
    Cluster.batch;
    loss;
    jitter_seed = seed;
    reliability = (if reliable then reliability else None);
    cache = (if cache then Some Hf_index.Remote_cache.default else None);
    bloofi;
  }

(* --- TCP sites -------------------------------------------------------- *)

let with_tcp_sites ?batch ?reliability ?cache ?admission ?exec n f =
  let sites =
    Array.init n (fun site -> Tcp.create ~site ?batch ?reliability ?cache ?admission ?exec ())
  in
  let addresses = Array.map Tcp.address sites in
  Array.iter (fun site -> Tcp.set_peers site addresses) sites;
  Fun.protect ~finally:(fun () -> Array.iter Tcp.shutdown sites) (fun () -> f sites)

let load_tcp sites ds =
  let oids =
    Array.init ds.n (fun i -> Store.fresh_oid (Tcp.store sites.(ds.placement.(i))))
  in
  Array.iteri
    (fun i oid ->
      Store.insert
        (Tcp.store sites.(ds.placement.(i)))
        (Hf_data.Hobject.of_tuples oid (tuples_of ds oids i)))
    oids;
  oids

let load_tcp_ring sites n =
  let k = Array.length sites in
  let oids = Array.init n (fun i -> Store.fresh_oid (Tcp.store sites.(i mod k))) in
  Array.iteri
    (fun i oid ->
      Store.insert (Tcp.store sites.(i mod k))
        (Hf_data.Hobject.of_tuples oid (ring_tuples oids n i)))
    oids;
  oids
