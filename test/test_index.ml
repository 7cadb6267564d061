(* Tests for the indexing facilities: keyword inverted index,
   reachability index (SCC-based, cycle-safe), and index-accelerated
   evaluation's equivalence with the engine. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Store = Hf_data.Store
module KI = Hf_index.Keyword_index
module Reach = Hf_index.Reachability
module Indexed_eval = Hf_index.Indexed_eval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build n ~edges ~keywords =
  let store = Store.create ~site:0 in
  let oids = Array.init n (fun _ -> Store.fresh_oid store) in
  Array.iteri
    (fun i oid ->
      let tuples =
        List.filter_map (fun (src, dst) -> if src = i then Some (Tuple.pointer ~key:"R" oids.(dst)) else None) edges
        @ List.filter_map (fun (j, w) -> if j = i then Some (Tuple.keyword w) else None) keywords
        @ [ Tuple.number ~key:"id" i ]
      in
      Store.insert store (Hf_data.Hobject.of_tuples oid tuples))
    oids;
  (store, oids)

let logical_set oids set =
  let index_of oid =
    let found = ref (-1) in
    Array.iteri (fun i o -> if Oid.equal o oid then found := i) oids;
    !found
  in
  List.sort compare (List.map index_of (Oid.Set.elements set))

(* --- Keyword index --- *)

let test_keyword_lookup () =
  let store, oids = build 4 ~edges:[] ~keywords:[ (0, "a"); (1, "a"); (2, "b") ] in
  let ki = KI.of_store store in
  Alcotest.(check (list int)) "a" [ 0; 1 ] (logical_set oids (KI.lookup ki "a"));
  Alcotest.(check (list int)) "b" [ 2 ] (logical_set oids (KI.lookup ki "b"));
  check_int "vocabulary" 2 (KI.cardinal ki);
  check_int "missing" 0 (Oid.Set.cardinal (KI.lookup ki "zzz"))

let test_keyword_glob () =
  let store, oids = build 3 ~edges:[] ~keywords:[ (0, "alpha"); (1, "alps"); (2, "beta") ] in
  let ki = KI.of_store store in
  Alcotest.(check (list int)) "glob" [ 0; 1 ] (logical_set oids (KI.lookup_glob ki "alp*"));
  Alcotest.(check (list int)) "literal glob" [ 2 ] (logical_set oids (KI.lookup_glob ki "beta"))

let test_keyword_incremental () =
  let store, oids = build 2 ~edges:[] ~keywords:[ (0, "x") ] in
  let ki = KI.of_store store in
  let obj1 = Option.get (Store.find store oids.(1)) in
  let obj1' = Hf_data.Hobject.add obj1 (Tuple.keyword "x") in
  KI.replace ki ~old_obj:obj1 obj1';
  check_int "now two" 2 (Oid.Set.cardinal (KI.lookup ki "x"));
  let obj0 = Option.get (Store.find store oids.(0)) in
  KI.remove ki obj0;
  Alcotest.(check (list int)) "removed" [ 1 ] (logical_set oids (KI.lookup ki "x"))

let test_keyword_matches_scan () =
  let prng = Hf_util.Prng.create 11 in
  let n = 30 in
  let keywords =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun w -> if Hf_util.Prng.next_bool prng 0.3 then Some (i, w) else None)
          [ "a"; "b"; "c" ])
      (List.init n Fun.id)
  in
  let store, oids = build n ~edges:[] ~keywords in
  let ki = KI.of_store store in
  List.iter
    (fun w ->
      let scan =
        Store.fold store
          (fun obj acc ->
            if List.mem w (Hf_data.Hobject.keywords obj) then
              Oid.Set.add (Hf_data.Hobject.oid obj) acc
            else acc)
          Oid.Set.empty
      in
      check_bool (Printf.sprintf "index = scan for %s" w) true
        (Oid.Set.equal scan (KI.lookup ki w)))
    [ "a"; "b"; "c" ];
  ignore oids

(* --- Reachability --- *)

let test_reach_chain () =
  let store, oids = build 4 ~edges:[ (0, 1); (1, 2); (2, 3) ] ~keywords:[] in
  let reach = Reach.of_store ~key:"R" store in
  Alcotest.(check (list int)) "from 0" [ 0; 1; 2; 3 ] (logical_set oids (Reach.reachable reach oids.(0)));
  Alcotest.(check (list int)) "from 2" [ 2; 3 ] (logical_set oids (Reach.reachable reach oids.(2)));
  check_bool "is_reachable" true (Reach.is_reachable reach ~source:oids.(0) ~target:oids.(3));
  check_bool "not backwards" false (Reach.is_reachable reach ~source:oids.(3) ~target:oids.(0));
  check_int "four components" 4 (Reach.component_count reach)

let test_reach_cycle_condensation () =
  let store, oids = build 5 ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] ~keywords:[] in
  let reach = Reach.of_store ~key:"R" store in
  Alcotest.(check (list int)) "cycle sees all" [ 0; 1; 2; 3; 4 ]
    (logical_set oids (Reach.reachable reach oids.(1)));
  check_int "condensed to 3 components" 3 (Reach.component_count reach)

let test_reach_self_loop () =
  let store, oids = build 2 ~edges:[ (0, 0); (0, 1) ] ~keywords:[] in
  let reach = Reach.of_store ~key:"R" store in
  Alcotest.(check (list int)) "self loop" [ 0; 1 ] (logical_set oids (Reach.reachable reach oids.(0)))

let test_reach_deep_chain_no_overflow () =
  let n = 20_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  let store, oids = build n ~edges ~keywords:[] in
  let reach = Reach.of_store ~key:"R" store in
  check_int "deep chain covered" n (Oid.Set.cardinal (Reach.reachable reach oids.(0)))

let test_reach_unknown () =
  let store, _ = build 2 ~edges:[] ~keywords:[] in
  let reach = Reach.of_store ~key:"R" store in
  check_int "unknown oid" 0
    (Oid.Set.cardinal (Reach.reachable reach (Oid.make ~birth_site:9 ~serial:9)))

let prop_reach_matches_engine =
  QCheck2.Test.make ~name:"reachability index = engine closure" ~count:100 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n = 2 + Hf_util.Prng.next_int prng 15 in
      let edges =
        List.init (Hf_util.Prng.next_int prng (3 * n)) (fun _ ->
            (Hf_util.Prng.next_int prng n, Hf_util.Prng.next_int prng n))
      in
      let store, oids = build n ~edges ~keywords:[] in
      let reach = Reach.of_store ~key:"R" store in
      let start = Hf_util.Prng.next_int prng n in
      (* engine closure: keep-parent star over R, selecting everything;
         note leaves die inside the iteration body (Figure 3), so the
         oracle for "reachable" uses the index shape where every visited
         object counts.  Compare against a plain BFS instead. *)
      let visited = Hashtbl.create 16 in
      let rec bfs i =
        if not (Hashtbl.mem visited i) then begin
          Hashtbl.replace visited i ();
          List.iter (fun (src, dst) -> if src = i then bfs dst) edges
        end
      in
      bfs start;
      let expected = List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) visited []) in
      logical_set oids (Reach.reachable reach oids.(start)) = expected)

(* --- Indexed_eval --- *)

let closure_ast = Hf_query.Parser.parse_body "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"

let test_indexed_recognizes_shape () =
  let store, _ = build 2 ~edges:[ (0, 1) ] ~keywords:[ (0, "hot") ] in
  let indexes =
    { Indexed_eval.reachability = Some (Reach.of_store ~key:"R" store);
      keywords = Some (KI.of_store store);
    }
  in
  (match Indexed_eval.explain indexes closure_ast with
   | Indexed_eval.Indexed _ -> ()
   | Indexed_eval.Scan -> Alcotest.fail "expected indexed plan");
  match Indexed_eval.explain Indexed_eval.no_indexes closure_ast with
  | Indexed_eval.Scan -> ()
  | Indexed_eval.Indexed _ -> Alcotest.fail "no indexes means scan"

let test_indexed_wrong_key_scans () =
  let store, _ = build 2 ~edges:[ (0, 1) ] ~keywords:[] in
  let indexes =
    { Indexed_eval.reachability = Some (Reach.of_store ~key:"OTHER" store); keywords = None }
  in
  match Indexed_eval.explain indexes closure_ast with
  | Indexed_eval.Scan -> ()
  | Indexed_eval.Indexed _ -> Alcotest.fail "key mismatch must scan"

(* Indexed_eval answers reachability∩keyword; the engine's Figure 3
   semantics drops pointerless leaves before the trailing filter.  On
   graphs where every node has an outgoing R pointer the two agree
   exactly. *)
let prop_indexed_matches_engine =
  QCheck2.Test.make ~name:"indexed eval = engine on leaf-free graphs" ~count:100 QCheck2.Gen.int
    (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n = 2 + Hf_util.Prng.next_int prng 12 in
      (* a random successor per node guarantees no leaves *)
      let edges =
        List.init n (fun i -> (i, Hf_util.Prng.next_int prng n))
        @ List.init (Hf_util.Prng.next_int prng n) (fun _ ->
              (Hf_util.Prng.next_int prng n, Hf_util.Prng.next_int prng n))
      in
      let keywords =
        List.filter_map
          (fun i -> if Hf_util.Prng.next_bool prng 0.5 then Some (i, "hot") else None)
          (List.init n Fun.id)
      in
      let store, oids = build n ~edges ~keywords in
      let indexes =
        { Indexed_eval.reachability = Some (Reach.of_store ~key:"R" store);
          keywords = Some (KI.of_store store);
        }
      in
      let start = Hf_util.Prng.next_int prng n in
      let indexed_answer =
        Indexed_eval.answer ~indexes ~find:(Store.find store) closure_ast [ oids.(start) ]
      in
      let engine_answer =
        (Hf_engine.Local.run_query ~store closure_ast [ oids.(start) ]).Hf_engine.Local.result_set
      in
      Oid.Set.equal indexed_answer engine_answer)

let test_indexed_fallback_general_query () =
  let store, oids = build 2 ~edges:[ (0, 1) ] ~keywords:[ (1, "hot") ] in
  let ast = Hf_query.Parser.parse_body "(Pointer, \"R\", ?X) ^X (Keyword, \"hot\", ?)" in
  let answer = Indexed_eval.answer ~find:(Store.find store) ast [ oids.(0) ] in
  Alcotest.(check (list int)) "fallback works" [ 1 ] (logical_set oids answer)


let () =
  Alcotest.run "hf_index"
    [
      ( "keyword index",
        [
          Alcotest.test_case "lookup" `Quick test_keyword_lookup;
          Alcotest.test_case "glob lookup" `Quick test_keyword_glob;
          Alcotest.test_case "incremental maintenance" `Quick test_keyword_incremental;
          Alcotest.test_case "index equals scan" `Quick test_keyword_matches_scan;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "chain" `Quick test_reach_chain;
          Alcotest.test_case "cycle condensation" `Quick test_reach_cycle_condensation;
          Alcotest.test_case "self loop" `Quick test_reach_self_loop;
          Alcotest.test_case "deep chain (no stack overflow)" `Quick
            test_reach_deep_chain_no_overflow;
          Alcotest.test_case "unknown object" `Quick test_reach_unknown;
          Hf_test_harness.qtest prop_reach_matches_engine;
        ] );
      ( "indexed eval",
        [
          Alcotest.test_case "recognizes the shape" `Quick test_indexed_recognizes_shape;
          Alcotest.test_case "wrong key scans" `Quick test_indexed_wrong_key_scans;
          Alcotest.test_case "fallback on general queries" `Quick
            test_indexed_fallback_general_query;
          Hf_test_harness.qtest prop_indexed_matches_engine;
        ] );
    ]
