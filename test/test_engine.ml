(* Tests for the local query engine — the Section 3.1 algorithm.  The
   scenarios follow the paper's own walkthroughs, and property tests
   check the engine against independent BFS oracles on random graphs. *)

module Oid = Hf_data.Oid
module Tuple = Hf_data.Tuple
module Value = Hf_data.Value
module Store = Hf_data.Store
module Local = Hf_engine.Local

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Hf_query.Parser.parse_body

(* Build a store of [n] objects; [link i key j] adds a pointer; [tag i
   word] adds a keyword. *)
let make_store n =
  let store = Store.create ~site:0 in
  let oids = Array.init n (fun _ -> Store.fresh_oid store) in
  Array.iter (fun oid -> Store.insert store (Hf_data.Hobject.of_tuples oid [])) oids;
  let link i key j =
    let obj = Option.get (Store.find store oids.(i)) in
    Store.replace store (Hf_data.Hobject.add obj (Tuple.pointer ~key oids.(j)))
  in
  let tag i word =
    let obj = Option.get (Store.find store oids.(i)) in
    Store.replace store (Hf_data.Hobject.add obj (Tuple.keyword word))
  in
  let add i tuple =
    let obj = Option.get (Store.find store oids.(i)) in
    Store.replace store (Hf_data.Hobject.add obj tuple)
  in
  (store, oids, link, tag, add)

let run store ast initial = Local.run_query ~store ast initial

let result_logicals oids result =
  let index_of oid =
    let found = ref (-1) in
    Array.iteri (fun i o -> if Oid.equal o oid then found := i) oids;
    !found
  in
  List.sort compare (List.map index_of (Oid.Set.elements result.Local.result_set))

(* --- The paper's worked example (Section 3.1) --- *)

let test_paper_walkthrough () =
  (* S = {A}; A->B->C->D via Reference; keyword on A, C, D. *)
  let store, oids, link, tag, _ = make_store 4 in
  link 0 "Reference" 1;
  link 1 "Reference" 2;
  link 2 "Reference" 3;
  tag 0 "Distributed";
  tag 2 "Distributed";
  tag 3 "Distributed";
  let ast = parse "[ (Pointer, \"Reference\", ?X) ^^X ]^3 (Keyword, \"Distributed\", ?)" in
  let r = run store ast [ oids.(0) ] in
  Alcotest.(check (list int)) "A and C pass; D too deep" [ 0; 2 ] (result_logicals oids r);
  (* "the query terminates before examining D (which is 4 levels deep)" *)
  check_int "only A, B, C examined" 3 r.stats.Hf_engine.Stats.objects_processed

let test_cycle_terminates () =
  let store, oids, link, tag, _ = make_store 4 in
  link 0 "R" 1;
  link 1 "R" 2;
  link 2 "R" 3;
  link 3 "R" 0;
  tag 1 "hot";
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  Alcotest.(check (list int)) "cycle covered once" [ 1 ] (result_logicals oids r);
  check_int "each object processed once" 4 r.stats.Hf_engine.Stats.objects_processed

let test_self_loop () =
  let store, oids, link, tag, _ = make_store 1 in
  link 0 "R" 0;
  tag 0 "hot";
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  Alcotest.(check (list int)) "self loop" [ 0 ] (result_logicals oids r)

(* --- The mark-table subtlety (Section 3.1, "one important subtlety") --- *)

let test_mark_table_per_filter_index () =
  (* O fails filter F0.  Another object passes F0 and then a dereference
     reaches O landing after F0; O must still be processed there. *)
  let store, oids, link, tag, _ = make_store 2 in
  (* oids.(1) = O: no "gate" keyword, but has "hot". *)
  tag 1 "hot";
  tag 0 "gate";
  tag 0 "hot";
  link 0 "R" 1;
  (* Query: gate-check, then deref, then hot-check.  Both O (via deref)
     and the gate object flow into the hot-check. *)
  let ast =
    parse "(Keyword, \"gate\", ?) (Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)"
  in
  (* Initial set contains BOTH objects: O fails at F0 first (marking
     index 0), then is reached again by the dereference at index 3. *)
  let r = run store ast [ oids.(1); oids.(0) ] in
  Alcotest.(check (list int)) "O recovered via deref" [ 0; 1 ] (result_logicals oids r)

let test_mark_table_suppresses_duplicates () =
  (* Two pointers to the same object: processed once. *)
  let store, oids, link, tag, _ = make_store 3 in
  link 0 "R" 2;
  link 1 "R" 2;
  tag 2 "hot";
  let ast = parse "(Pointer, \"R\", ?X) ^X (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0); oids.(1) ] in
  Alcotest.(check (list int)) "result once" [ 2 ] (result_logicals oids r);
  check_int "skip counted" 1 r.stats.Hf_engine.Stats.objects_skipped

(* --- Dereference modes --- *)

let test_keep_parent_vs_replace () =
  let store, oids, link, tag, _ = make_store 2 in
  link 0 "R" 1;
  tag 0 "hot";
  tag 1 "hot";
  let keep = parse "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
  let replace = parse "(Pointer, \"R\", ?X) ^X (Keyword, \"hot\", ?)" in
  Alcotest.(check (list int)) "keep parent" [ 0; 1 ]
    (result_logicals oids (run store keep [ oids.(0) ]));
  Alcotest.(check (list int)) "replace" [ 1 ]
    (result_logicals oids (run store replace [ oids.(0) ]))

let test_deref_multiple_bindings () =
  (* A selection binding accumulates all matching tuples' values; the
     dereference follows every one. *)
  let store, oids, link, tag, _ = make_store 4 in
  link 0 "R" 1;
  link 0 "R" 2;
  link 0 "R" 3;
  tag 1 "hot";
  tag 3 "hot";
  let ast = parse "(Pointer, \"R\", ?X) ^X (Keyword, \"hot\", ?)" in
  Alcotest.(check (list int)) "all pointers followed" [ 1; 3 ]
    (result_logicals oids (run store ast [ oids.(0) ]))

let test_deref_unbound_variable () =
  (* Dereferencing a variable with no bindings yields nothing (and the
     parent dies under Replace). *)
  let store, oids, _, tag, _ = make_store 1 in
  tag 0 "hot";
  let ast = parse "(Keyword, \"hot\", ?X) ^X (Keyword, \"hot\", ?)" in
  (* X binds the keyword tuple's data (a number), not a pointer *)
  let r = run store ast [ oids.(0) ] in
  check_int "no results" 0 (List.length r.Local.results)

let test_dangling_pointer () =
  let store, oids, _, tag, add = make_store 1 in
  add 0 (Tuple.pointer ~key:"R" (Oid.make ~birth_site:7 ~serial:99));
  tag 0 "hot";
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  Alcotest.(check (list int)) "source still passes" [ 0 ] (result_logicals oids r);
  check_int "dangling counted" 1 r.stats.Hf_engine.Stats.dangling

(* --- Matching variables across tuples (paper footnote 2) --- *)

let test_use_variable_across_filters () =
  (* "routines Maintained by one of the Authors" *)
  let store, oids, _, _, add = make_store 2 in
  add 0 (Tuple.string_ ~key:"Author" "ann");
  add 0 (Tuple.string_ ~key:"Author" "bob");
  add 0 (Tuple.string_ ~key:"Maintained by" "bob");
  add 1 (Tuple.string_ ~key:"Author" "ann");
  add 1 (Tuple.string_ ~key:"Maintained by" "eve");
  let ast = parse "(String, \"Author\", ?X) (String, \"Maintained by\", =X)" in
  Alcotest.(check (list int)) "only self-maintained" [ 0 ]
    (result_logicals oids (run store ast [ oids.(0); oids.(1) ]))

let test_bindings_reset_per_object () =
  (* Bindings do not leak between objects in the working set. *)
  let store, oids, _, _, add = make_store 2 in
  add 0 (Tuple.string_ ~key:"Author" "ann");
  add 0 (Tuple.string_ ~key:"Boss" "ann");
  add 1 (Tuple.string_ ~key:"Boss" "ann");
  (* object 1 has no Author tuple so fails F0 — but even if bindings
     leaked, it would wrongly pass F1. *)
  let ast = parse "(String, \"Author\", ?X) (String, \"Boss\", =X)" in
  Alcotest.(check (list int)) "no leak" [ 0 ]
    (result_logicals oids (run store ast [ oids.(0); oids.(1) ]))

(* --- Retrieve (the -> operator) --- *)

let test_retrieve_values () =
  let store, oids, _, _, add = make_store 2 in
  add 0 (Tuple.string_ ~key:"Title" "First");
  add 1 (Tuple.string_ ~key:"Title" "Second");
  let ast = parse "(String, \"Title\", ->title)" in
  let r = run store ast [ oids.(0); oids.(1) ] in
  check_int "both pass" 2 (List.length r.Local.results);
  (match r.Local.bindings with
   | [ ("title", values) ] ->
     check_int "two values" 2 (List.length values);
     check_bool "contents" true
       (List.exists (Value.equal (Value.str "First")) values
       && List.exists (Value.equal (Value.str "Second")) values)
   | _ -> Alcotest.fail "expected one binding target")

let test_retrieve_filters () =
  (* An object with no matching tuple fails a retrieve filter. *)
  let store, oids, _, tag, add = make_store 2 in
  add 0 (Tuple.string_ ~key:"Title" "First");
  tag 1 "untitled";
  let ast = parse "(String, \"Title\", ->title)" in
  let r = run store ast [ oids.(0); oids.(1) ] in
  Alcotest.(check (list int)) "only titled passes" [ 0 ] (result_logicals oids r)

let test_retrieve_multiple_tuples () =
  let store, oids, _, _, add = make_store 1 in
  add 0 (Tuple.string_ ~key:"Author" "ann");
  add 0 (Tuple.string_ ~key:"Author" "bob");
  let ast = parse "(String, \"Author\", ->authors)" in
  let r = run store ast [ oids.(0) ] in
  match r.Local.bindings with
  | [ ("authors", values) ] -> check_int "both emitted" 2 (List.length values)
  | _ -> Alcotest.fail "expected authors binding"

(* --- Iterators against a BFS oracle --- *)

(* Independent oracle for the query
     [ (Pointer, key, ?X) ^^X ]^k selection
   encoding the engine's order-independent exists-a-path semantics
   (Figure 3 plus counter-aware marks, DESIGN.md §4b):

   - an initial object makes one ungated pass through the body (the
     iterator filter follows the body): it must match the body's
     selection (have a pointer) to survive, and its dereference spawns
     successors regardless of k;
   - a spawned object that arrived over a chain of canonical length d
     loops through the body iff d < k (star: always), needing a pointer
     to survive; at d >= k it exits the iterator directly to the
     trailing selection, surviving even as a leaf;
   - every distinct (object, canonical chain length) state is processed,
     so the answer covers all qualifying pointer chains regardless of
     the order work items are handled.

   Computed as a BFS over (object, canonical depth) product states.
   Returns the passing set (pre trailing selection) as sorted ids. *)
let figure3_oracle store oids ~key ~k initial =
  let has_ptr i =
    Hf_data.Hobject.pointers_with_key (Option.get (Store.find store oids.(i))) ~key <> []
  in
  let succs i =
    List.filter_map
      (fun target ->
        let j = ref (-1) in
        Array.iteri (fun idx o -> if Oid.equal o target then j := idx) oids;
        if !j >= 0 then Some !j else None)
      (Hf_data.Hobject.pointers_with_key (Option.get (Store.find store oids.(i))) ~key)
  in
  (* states: (i, 0) = initial entry; (i, d>=1) = spawned with canonical
     chain length d (capped at k) *)
  let visited = Hashtbl.create 32 in
  let queue = Queue.create () in
  let push state =
    if not (Hashtbl.mem visited state) then begin
      Hashtbl.replace visited state ();
      Queue.push state queue
    end
  in
  List.iter (fun i -> push (i, 0)) initial;
  while not (Queue.is_empty queue) do
    let i, d = Queue.pop queue in
    let expands = has_ptr i && (d = 0 || d < k) in
    if expands then begin
      (* Canonical child depth, mirroring the engine's counter
         canonicalization: star iterators (k = max_int) never consult the
         counter, so every spawned state collapses to depth 1 — without
         this, cycles would generate unboundedly many (i, d) states. *)
      let child_depth =
        if k = max_int then 1 else min ((if d = 0 then 1 else d) + 1) k
      in
      List.iter (fun j -> push (j, child_depth)) (succs i)
    end
  done;
  let passing = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (i, d) () ->
      let passes = if d = 0 then has_ptr i else has_ptr i || d >= k in
      if passes then Hashtbl.replace passing i ())
    visited;
  let examined =
    List.sort_uniq compare (Hashtbl.fold (fun (i, _) () acc -> i :: acc) visited [])
  in
  (examined, List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) passing []))

let random_graph_store prng n =
  let store, oids, link, tag, add = make_store n in
  (* Baseline tuple so the trailing (?,?,?) selection matches every
     object (an empty object matches nothing). *)
  for i = 0 to n - 1 do
    add i (Tuple.number ~key:"id" i)
  done;
  let edges = Hf_util.Prng.next_int prng (2 * n) in
  for _ = 1 to edges do
    link (Hf_util.Prng.next_int prng n) "R" (Hf_util.Prng.next_int prng n)
  done;
  for i = 0 to n - 1 do
    if Hf_util.Prng.next_bool prng 0.5 then tag i "hot"
  done;
  (store, oids)

let closure_matches_oracle ~k seed =
  let prng = Hf_util.Prng.create seed in
  let n = 2 + Hf_util.Prng.next_int prng 15 in
  let store, oids = random_graph_store prng n in
  let initial = [ 0 ] in
  let query =
    match k with
    | None -> "[ (Pointer, \"R\", ?X) ^^X ]* (?, ?, ?)"
    | Some k -> Printf.sprintf "[ (Pointer, \"R\", ?X) ^^X ]^%d (?, ?, ?)" k
  in
  let r = run store (parse query) (List.map (fun i -> oids.(i)) initial) in
  let _, expected =
    figure3_oracle store oids ~key:"R" ~k:(Option.value k ~default:max_int) initial
  in
  result_logicals oids r = expected

let prop_star_closure =
  QCheck2.Test.make ~name:"star iterator = BFS closure" ~count:150 QCheck2.Gen.int
    (fun seed -> closure_matches_oracle ~k:None seed)

let prop_depth_k =
  QCheck2.Test.make ~name:"finite iterator = depth-k BFS" ~count:150
    QCheck2.Gen.(pair int (int_range 1 5))
    (fun (seed, k) -> closure_matches_oracle ~k:(Some k) seed)

let test_depth_one_examines_one_hop () =
  (* An initial object's first pass through the body is ungated
     (Figure 3: the iterator filter comes after the body), so even with
     k = 1 the first dereference happens and its target is examined;
     the target then exits the iterator via its counter. *)
  let store, oids, link, tag, _ = make_store 3 in
  link 0 "R" 1;
  link 1 "R" 2;
  tag 0 "hot";
  tag 1 "hot";
  tag 2 "hot";
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]^1 (Keyword, \"hot\", ?)" in
  Alcotest.(check (list int)) "one ungated hop" [ 0; 1 ]
    (result_logicals oids (run store ast [ oids.(0) ]))

let test_nested_iterators_terminate () =
  (* [[ follow A ]^2]^3 over a long chain: the outer bound (total chain
     length 3) applies because derefs increment all enclosing
     counters. *)
  let store, oids, link, tag, _ = make_store 10 in
  for i = 0 to 8 do
    link i "A" (i + 1)
  done;
  for i = 0 to 9 do
    tag i "hot"
  done;
  let ast = parse "[ [ (Pointer, \"A\", ?X) ^^X ]^2 ]^3 (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  (* Counters bump for both iterators on every dereference; re-entry is
     gated per iterator filter, so the outer k = 3 is the effective
     chain bound here: a0, a1, a2 examined, a3 never spawned. *)
  Alcotest.(check (list int)) "chain bounded" [ 0; 1; 2 ] (result_logicals oids r)

let test_nested_star_terminates () =
  let store, oids, link, tag, _ = make_store 6 in
  for i = 0 to 5 do
    link i "A" ((i + 1) mod 6)
  done;
  for i = 0 to 5 do
    tag i "hot"
  done;
  let ast = parse "[ [ (Pointer, \"A\", ?X) ^^X ]* ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  check_int "whole cycle" 6 (List.length r.Local.results)

(* --- Search order --- *)

let prop_bfs_dfs_same_results =
  QCheck2.Test.make ~name:"BFS and DFS orders give the same result set" ~count:100
    QCheck2.Gen.int (fun seed ->
      let prng = Hf_util.Prng.create seed in
      let n = 2 + Hf_util.Prng.next_int prng 12 in
      let store, oids = random_graph_store prng n in
      let program =
        Hf_query.Compile.compile (parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)")
      in
      let bfs = Local.run_store ~order:Local.Bfs ~store program [ oids.(0) ] in
      let dfs = Local.run_store ~order:Local.Dfs ~store program [ oids.(0) ] in
      Oid.Set.equal bfs.Local.result_set dfs.Local.result_set)

(* --- Miscellaneous --- *)

let test_empty_initial_set () =
  let store, _, _, _, _ = make_store 3 in
  let r = run store (parse "(?, ?, ?)") [] in
  check_int "no results" 0 (List.length r.Local.results)

let test_select_range_and_glob () =
  let store, oids, _, _, add = make_store 3 in
  add 0 (Tuple.number ~key:"size" 5);
  add 1 (Tuple.number ~key:"size" 50);
  add 2 (Tuple.string_ ~key:"name" "distributed systems");
  let range = parse "(Number, \"size\", 1..10)" in
  Alcotest.(check (list int)) "range" [ 0 ]
    (result_logicals oids (run store range [ oids.(0); oids.(1); oids.(2) ]));
  let glob = parse "(String, \"name\", \"dist*\")" in
  Alcotest.(check (list int)) "glob" [ 2 ]
    (result_logicals oids (run store glob [ oids.(0); oids.(1); oids.(2) ]))

let test_no_duplicate_results () =
  (* An object reachable along two paths appears once.  Node 3 points
     back to 0 so every node has an outgoing pointer (a leaf would fail
     the body's selection when looped — Figure 3 semantics). *)
  let store, oids, link, tag, _ = make_store 4 in
  link 0 "R" 1;
  link 0 "R" 2;
  link 1 "R" 3;
  link 2 "R" 3;
  link 3 "R" 0;
  Array.iteri (fun i _ -> tag i "hot") oids;
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  check_int "four distinct results" 4 (List.length r.Local.results);
  check_int "stats agree" 4 r.stats.Hf_engine.Stats.results

let test_plan_analysis () =
  let program =
    Hf_query.Compile.compile (parse "[ (A, ?, ?) [ ^X ]^2 (C, ?, ?) ]* (D, ?, ?)")
  in
  let plan = Hf_engine.Plan.make program in
  check_int "two iterators" 2 (Hf_engine.Plan.iter_count plan);
  (* program: 0=(A) 1=^X 2=InnerIter 3=(C) 4=OuterIter 5=(D) *)
  check_int "deref inside both" 2
    (List.length (Hf_engine.Plan.enclosing_iterator_slots plan 1));
  check_int "C inside outer only" 1
    (List.length (Hf_engine.Plan.enclosing_iterator_slots plan 3));
  check_int "D inside none" 0 (List.length (Hf_engine.Plan.enclosing_iterator_slots plan 5))

let test_stats_counters () =
  let store, oids, link, tag, _ = make_store 3 in
  link 0 "R" 1;
  link 1 "R" 2;
  tag 2 "hot";
  let ast = parse "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)" in
  let r = run store ast [ oids.(0) ] in
  check_int "processed" 3 r.stats.Hf_engine.Stats.objects_processed;
  check_int "derefs" 2 r.stats.Hf_engine.Stats.derefs;
  check_int "spawned" 2 r.stats.Hf_engine.Stats.spawned;
  check_bool "tuples examined" true (r.stats.Hf_engine.Stats.tuples_examined > 0)

(* --- The type field is a tag string --- *)

(* [scan_tuples] matches a tuple's type tag as a string and builds a
   value only to bind it: [?T] on the type binds the tag as a string,
   [=T] compares a tag with every binding, and a binding that is not a
   string never equals a tag. *)
let test_type_field_bind_and_use () =
  let store, oids, _, _, add = make_store 3 in
  add 0 (Tuple.string_ ~key:"k" "String");
  add 0 (Tuple.string_ ~key:"String" "z");
  add 1 (Tuple.number ~key:"k" 1);
  add 1 (Tuple.string_ ~key:"Number" "z");
  add 2 (Tuple.string_ ~key:"k" "v");
  add 2 (Tuple.number ~key:"Boss" 3);
  let all = [ oids.(0); oids.(1); oids.(2) ] in
  let logicals q = result_logicals oids (run store (parse q) all) in
  Alcotest.(check (list int)) "a bound tag used on a key" [ 0; 1 ]
    (logicals "(?T, \"k\", ?) (String, =T, ?)");
  Alcotest.(check (list int)) "a bound tag used on a tag" [ 0 ]
    (logicals "(?T, \"k\", ?) (=T, ?, \"z\")");
  Alcotest.(check (list int)) "a bound tag used on data" [ 0 ]
    (logicals "(?T, \"k\", ?) (String, \"k\", =T)");
  Alcotest.(check (list int)) "a number never equals a tag" []
    (logicals "(Number, \"k\", ?N) (=N, ?, ?)");
  Alcotest.(check (list int)) "a glob on the tag" [ 1; 2 ] (logicals "(\"Num*\", ?, ?)")

(* --- Mark_table against a set of keys --- *)

module Mark_table = Hf_engine.Mark_table

module Ref_marks = Set.Make (struct
  type t = int * int * int array (* oid serial, index, counters *)

  let compare = compare
end)

type mark_op = Add of int * int * int array | Mem of int * int * int array | Clear

(* Counters: all-zero ones of two widths, and finite ones. *)
let mark_op_gen =
  let open QCheck2.Gen in
  let key =
    triple (int_range 0 3)
      (oneof [ int_range 0 8; int_range 56 70 ])
      (oneofl [ [| 0 |]; [| 0 |]; [| 0 |]; [| 1 |]; [| 2 |]; [| 0; 0 |]; [| 0; 3 |]; [||] ])
  in
  frequency
    [ (6, map (fun (o, i, c) -> Add (o, i, c)) key);
      (6, map (fun (o, i, c) -> Mem (o, i, c)) key);
      (1, pure Clear);
    ]

(* Random adds, lookups and clears, mixing all-zero and finite counters
   at indexes 0..70 (so on both sides of the 62-bit mask): every [mem]
   answers as the set does, and at the end [marks], [marked_indices],
   [total_marks] and [cardinal] give what the set gives. *)
let prop_mark_table_matches_set =
  QCheck2.Test.make ~name:"mark table agrees with a set of keys" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 120) mark_op_gen)
    (fun ops ->
      let oid o = Oid.make ~birth_site:0 ~serial:o in
      let table = Mark_table.create () in
      let reference = ref Ref_marks.empty in
      let agree = function
        | Add (o, i, c) ->
          Mark_table.add table (oid o) i ~iters:c;
          reference := Ref_marks.add (o, i, c) !reference;
          true
        | Mem (o, i, c) -> Mark_table.mem table (oid o) i ~iters:c = Ref_marks.mem (o, i, c) !reference
        | Clear ->
          Mark_table.clear table;
          reference := Ref_marks.empty;
          true
      in
      let of_oid o =
        List.filter_map
          (fun (o', i, c) -> if o = o' then Some (i, c) else None)
          (Ref_marks.elements !reference)
      in
      List.for_all agree ops
      && List.for_all
           (fun o ->
             let expected = of_oid o in
             Mark_table.marks table (oid o) = expected
             && Mark_table.marked_indices table (oid o)
                = List.sort_uniq Int.compare (List.map fst expected))
           [ 0; 1; 2; 3 ]
      && Mark_table.total_marks table = Ref_marks.cardinal !reference
      && Mark_table.cardinal table
         = List.length (List.sort_uniq Int.compare (List.map (fun (o, _, _) -> o) (Ref_marks.elements !reference))))

(* --- Allocation --- *)

(* Minor words per processed object of [Local.run] on the ship-local
   closure (Rand95 pointers, selecting Common, from the corpus root) on
   the 270-object corpus held by one store.  The count is deterministic:
   one thread, and the same objects in the same order every run. *)
let ship_local_words_per_object () =
  let dataset = Hf_workload.Synthetic.generate () in
  let store = Store.create ~site:0 in
  let placed = Hf_workload.Synthetic.materialize dataset ~n_sites:1 ~store_of:(fun _ -> store) in
  let program =
    Hf_workload.Queries.closure_program ~pointer_key:"Rand95" Hf_workload.Queries.select_common
  in
  let run () = Local.run_store ~store program [ placed.Hf_workload.Synthetic.root ] in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  words /. float_of_int r.Local.stats.Hf_engine.Stats.objects_processed

(* 467.6 words per object when every tuple's type tag became a value,
   every object took a [visited] table and every mark a [Set] node;
   213.4 with tags matched as strings, [visited] a bitmask and
   zero-counter marks bits of one entry per object (x86-64, OCaml
   5.1).  The bound sits halfway. *)
let test_ship_local_allocation () =
  let per_object = ship_local_words_per_object () in
  check_bool (Printf.sprintf "%.1f words per object, bound 340" per_object) true (per_object < 340.0)


let () =
  Alcotest.run "hf_engine"
    [
      ( "paper semantics",
        [
          Alcotest.test_case "worked example (A,B,C,D chain)" `Quick test_paper_walkthrough;
          Alcotest.test_case "cycles terminate" `Quick test_cycle_terminates;
          Alcotest.test_case "self loop" `Quick test_self_loop;
          Alcotest.test_case "marks are per filter index" `Quick test_mark_table_per_filter_index;
          Alcotest.test_case "marks suppress duplicates" `Quick
            test_mark_table_suppresses_duplicates;
          Hf_test_harness.qtest prop_mark_table_matches_set;
        ] );
      ( "dereference",
        [
          Alcotest.test_case "keep-parent vs replace" `Quick test_keep_parent_vs_replace;
          Alcotest.test_case "multiple bindings" `Quick test_deref_multiple_bindings;
          Alcotest.test_case "non-pointer bindings ignored" `Quick test_deref_unbound_variable;
          Alcotest.test_case "dangling pointers" `Quick test_dangling_pointer;
        ] );
      ( "matching variables",
        [
          Alcotest.test_case "use across filters" `Quick test_use_variable_across_filters;
          Alcotest.test_case "reset per object" `Quick test_bindings_reset_per_object;
          Alcotest.test_case "bind and use the type field" `Quick test_type_field_bind_and_use;
        ] );
      ( "retrieve",
        [
          Alcotest.test_case "values emitted" `Quick test_retrieve_values;
          Alcotest.test_case "acts as a filter" `Quick test_retrieve_filters;
          Alcotest.test_case "multiple tuples" `Quick test_retrieve_multiple_tuples;
        ] );
      ( "iterators",
        [
          Alcotest.test_case "depth 1 examines one hop" `Quick test_depth_one_examines_one_hop;
          Alcotest.test_case "nested finite terminate" `Quick test_nested_iterators_terminate;
          Alcotest.test_case "nested star terminate" `Quick test_nested_star_terminates;
          Hf_test_harness.qtest prop_star_closure;
          Hf_test_harness.qtest prop_depth_k;
        ] );
      ( "search order",
        [ Hf_test_harness.qtest prop_bfs_dfs_same_results ] );
      ( "misc",
        [
          Alcotest.test_case "empty initial set" `Quick test_empty_initial_set;
          Alcotest.test_case "range and glob selects" `Quick test_select_range_and_glob;
          Alcotest.test_case "no duplicate results" `Quick test_no_duplicate_results;
          Alcotest.test_case "plan analysis" `Quick test_plan_analysis;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "ship-local allocation per object" `Quick test_ship_local_allocation;
        ] );
    ]
