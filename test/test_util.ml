(* Unit and property tests for the utility substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Hf_util.Prng.create 7 and b = Hf_util.Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Hf_util.Prng.next_int64 a) (Hf_util.Prng.next_int64 b)
  done

let test_prng_different_seeds () =
  let a = Hf_util.Prng.create 1 and b = Hf_util.Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Hf_util.Prng.next_int64 a <> Hf_util.Prng.next_int64 b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_prng_bounds () =
  let t = Hf_util.Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Hf_util.Prng.next_int t 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let test_prng_bound_invalid () =
  let t = Hf_util.Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.next_int: bound must be positive")
    (fun () -> ignore (Hf_util.Prng.next_int t 0))

let test_prng_float_range () =
  let t = Hf_util.Prng.create 4 in
  for _ = 1 to 1000 do
    let x = Hf_util.Prng.next_float t in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_bool_bias () =
  let t = Hf_util.Prng.create 5 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Hf_util.Prng.next_bool t 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool "rate near 0.25" true (rate > 0.20 && rate < 0.30)

let test_prng_split_independent () =
  let t = Hf_util.Prng.create 6 in
  let child = Hf_util.Prng.split t in
  (* parent advanced; child produces its own stream *)
  let a = Hf_util.Prng.next_int64 t and b = Hf_util.Prng.next_int64 child in
  check_bool "parent and child differ" true (a <> b)

let test_prng_shuffle_permutation () =
  let t = Hf_util.Prng.create 8 in
  let arr = Array.init 50 Fun.id in
  Hf_util.Prng.shuffle_in_place t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_pick () =
  let t = Hf_util.Prng.create 9 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Hf_util.Prng.pick t arr) arr)
  done

(* --- Heap --- *)

let test_heap_empty () =
  let h : int Hf_util.Heap.t = Hf_util.Heap.create () in
  check_bool "empty" true (Hf_util.Heap.is_empty h);
  check_int "length" 0 (Hf_util.Heap.length h);
  check_bool "pop none" true (Hf_util.Heap.pop h = None);
  check_bool "peek none" true (Hf_util.Heap.peek h = None)

let test_heap_ordering () =
  let h = Hf_util.Heap.create () in
  let prng = Hf_util.Prng.create 10 in
  for i = 0 to 199 do
    Hf_util.Heap.push h (Hf_util.Prng.next_float prng) i
  done;
  let rec drain last acc =
    match Hf_util.Heap.pop h with
    | None -> acc
    | Some (p, _) ->
      check_bool "non-decreasing" true (p >= last);
      drain p (acc + 1)
  in
  check_int "drained all" 200 (drain neg_infinity 0)

let test_heap_fifo_ties () =
  let h = Hf_util.Heap.create () in
  List.iter (fun i -> Hf_util.Heap.push h 1.0 i) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> snd (Option.get (Hf_util.Heap.pop h))) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] popped

let test_heap_interleaved () =
  let h = Hf_util.Heap.create () in
  Hf_util.Heap.push h 2.0 "b";
  Hf_util.Heap.push h 1.0 "a";
  Alcotest.(check (option (pair (float 0.0) string))) "peek min" (Some (1.0, "a"))
    (Hf_util.Heap.peek h);
  ignore (Hf_util.Heap.pop h);
  Hf_util.Heap.push h 0.5 "c";
  Alcotest.(check (option (pair (float 0.0) string))) "new min" (Some (0.5, "c"))
    (Hf_util.Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "remaining" (Some (2.0, "b"))
    (Hf_util.Heap.pop h)

let test_heap_clear () =
  let h = Hf_util.Heap.create () in
  Hf_util.Heap.push h 1.0 1;
  Hf_util.Heap.clear h;
  check_bool "cleared" true (Hf_util.Heap.is_empty h)

(* Model-based property: random interleavings of push/pop agree with a
   sorted-list reference model (stable on ties, matching the heap's FIFO
   tie-break). *)
let prop_heap_model =
  QCheck2.Test.make ~name:"heap agrees with a sorted-list model under interleaving" ~count:200
    QCheck2.Gen.(list (option (pair (int_range 0 5) small_int)))
    (fun ops ->
      let heap = Hf_util.Heap.create () in
      (* model: list of (prio, seq, value), kept stably sorted by (prio, seq) *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some (prio, v) ->
            Hf_util.Heap.push heap (float_of_int prio) v;
            model := !model @ [ (float_of_int prio, !seq, v) ];
            incr seq
          | None -> (
              let sorted =
                List.sort
                  (fun (p1, s1, _) (p2, s2, _) -> compare (p1, s1) (p2, s2))
                  !model
              in
              match Hf_util.Heap.pop heap, sorted with
              | None, [] -> ()
              | Some (p, v), ((mp, _, mv) as head) :: _ ->
                if p <> mp || v <> mv then ok := false
                else model := List.filter (fun entry -> entry != head) !model
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok && Hf_util.Heap.length heap = List.length !model)

let prop_deque_model =
  QCheck2.Test.make ~name:"deque agrees with a list model under interleaving" ~count:200
    QCheck2.Gen.(list (int_range 0 3))
    (fun ops ->
      let deque = Hf_util.Deque.create () in
      let model = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          incr counter;
          let v = !counter in
          match op with
          | 0 ->
            Hf_util.Deque.push_back deque v;
            model := !model @ [ v ]
          | 1 ->
            Hf_util.Deque.push_front deque v;
            model := v :: !model
          | 2 -> (
              match Hf_util.Deque.pop_front deque, !model with
              | None, [] -> ()
              | Some x, m :: rest -> if x <> m then ok := false else model := rest
              | Some _, [] | None, _ :: _ -> ok := false)
          | _ -> (
              match Hf_util.Deque.pop_back deque, List.rev !model with
              | None, [] -> ()
              | Some x, m :: rest_rev ->
                if x <> m then ok := false else model := List.rev rest_rev
              | Some _, [] | None, _ :: _ -> ok := false))
        ops;
      !ok && Hf_util.Deque.to_list deque = !model)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in priority order" ~count:200
    QCheck2.Gen.(list (pair (float_range 0.0 100.0) small_int))
    (fun entries ->
      let h = Hf_util.Heap.create () in
      List.iter (fun (p, v) -> Hf_util.Heap.push h p v) entries;
      let rec drain last =
        match Hf_util.Heap.pop h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

(* --- Deque --- *)

let test_deque_fifo () =
  let d = Hf_util.Deque.create () in
  List.iter (Hf_util.Deque.push_back d) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Hf_util.Deque.to_list d);
  check_bool "pop order" true
    (Hf_util.Deque.pop_front d = Some 1
    && Hf_util.Deque.pop_front d = Some 2
    && Hf_util.Deque.pop_front d = Some 3
    && Hf_util.Deque.pop_front d = None)

let test_deque_lifo () =
  let d = Hf_util.Deque.create () in
  List.iter (Hf_util.Deque.push_front d) [ 1; 2; 3 ];
  check_bool "stack order" true
    (Hf_util.Deque.pop_front d = Some 3 && Hf_util.Deque.pop_front d = Some 2)

let test_deque_pop_back () =
  let d = Hf_util.Deque.create () in
  List.iter (Hf_util.Deque.push_back d) [ 1; 2; 3 ];
  check_bool "pop_back" true (Hf_util.Deque.pop_back d = Some 3);
  check_bool "pop_front" true (Hf_util.Deque.pop_front d = Some 1);
  check_int "length" 1 (Hf_util.Deque.length d)

let test_deque_mixed_ends () =
  let d = Hf_util.Deque.create () in
  Hf_util.Deque.push_back d 2;
  Hf_util.Deque.push_front d 1;
  Hf_util.Deque.push_back d 3;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Hf_util.Deque.to_list d)

let test_deque_clear () =
  let d = Hf_util.Deque.create () in
  Hf_util.Deque.push_back d 1;
  Hf_util.Deque.clear d;
  check_bool "empty" true (Hf_util.Deque.is_empty d);
  check_bool "pop none" true (Hf_util.Deque.pop_front d = None)

let prop_deque_fifo_model =
  QCheck2.Test.make ~name:"deque push_back/pop_front behaves as a queue" ~count:200
    QCheck2.Gen.(list small_int)
    (fun items ->
      let d = Hf_util.Deque.create () in
      List.iter (Hf_util.Deque.push_back d) items;
      let rec drain acc =
        match Hf_util.Deque.pop_front d with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = items)

(* --- Stats --- *)

let test_stats_mean_stddev () =
  let samples = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Hf_util.Stats.mean samples);
  let sd = Hf_util.Stats.stddev samples in
  check_bool "stddev sample (n-1)" true (abs_float (sd -. 2.13809) < 1e-4)

let test_stats_percentile () =
  let samples = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Hf_util.Stats.percentile samples 0.0);
  check_float "p50" 3.0 (Hf_util.Stats.percentile samples 0.5);
  check_float "p100" 5.0 (Hf_util.Stats.percentile samples 1.0);
  check_float "p25 interpolates" 2.0 (Hf_util.Stats.percentile samples 0.25)

let test_stats_summary () =
  let s = Hf_util.Stats.summarize [| 3.0; 1.0; 2.0 |] in
  check_int "count" 3 s.Hf_util.Stats.count;
  check_float "min" 1.0 s.Hf_util.Stats.min;
  check_float "max" 3.0 s.Hf_util.Stats.max;
  check_float "p50" 2.0 s.Hf_util.Stats.p50

let test_stats_empty_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Hf_util.Stats.mean [||]))

let test_stats_singleton () =
  let s = Hf_util.Stats.summarize [| 42.0 |] in
  check_float "mean" 42.0 s.Hf_util.Stats.mean;
  check_float "sd" 0.0 s.Hf_util.Stats.stddev;
  check_float "p99" 42.0 s.Hf_util.Stats.p99

let test_stats_nan_rejected () =
  (* NaN used to poison the sort silently (polymorphic compare gives no
     total order with NaN); now it is an error. *)
  Alcotest.check_raises "percentile NaN" (Invalid_argument "Stats.percentile: NaN sample")
    (fun () -> ignore (Hf_util.Stats.percentile [| 1.0; nan; 3.0 |] 0.5));
  Alcotest.check_raises "summarize NaN" (Invalid_argument "Stats.summarize: NaN sample")
    (fun () -> ignore (Hf_util.Stats.summarize [| nan |]))

let test_stats_negative_zero_sorts () =
  (* Float.compare (not polymorphic compare) orders the samples. *)
  check_float "p0 with -0.0" (-1.0) (Hf_util.Stats.percentile [| 0.0; -1.0; -0.0; 1.0 |] 0.0)

(* --- Glob --- *)

let glob_case pattern text expected () =
  check_bool
    (Printf.sprintf "%s ~ %s" pattern text)
    expected
    (Hf_util.Glob.matches ~pattern text)

let test_glob_literal = glob_case "hello" "hello" true
let test_glob_literal_miss = glob_case "hello" "hell" false
let test_glob_star_any = glob_case "*" "anything at all" true
let test_glob_star_empty = glob_case "*" "" true
let test_glob_prefix = glob_case "dist*" "distributed" true
let test_glob_suffix = glob_case "*uted" "distributed" true
let test_glob_infix = glob_case "d*d" "distributed" true
let test_glob_infix_miss = glob_case "d*x" "distributed" false
let test_glob_question = glob_case "h?llo" "hello" true
let test_glob_question_miss = glob_case "h?llo" "hllo" false
let test_glob_multi_star = glob_case "*a*b*" "xxaxxbxx" true
let test_glob_backtrack = glob_case "*ab" "aab" true
let test_glob_trailing_star = glob_case "ab*" "ab" true
let test_glob_double_star = glob_case "a**b" "ab" true
let test_glob_empty_pattern = glob_case "" "" true
let test_glob_empty_pattern_miss = glob_case "" "x" false

let test_glob_is_literal () =
  check_bool "literal" true (Hf_util.Glob.is_literal "plain text");
  check_bool "star" false (Hf_util.Glob.is_literal "a*b");
  check_bool "question" false (Hf_util.Glob.is_literal "a?b")

(* --- Tabulate --- *)

let test_tabulate_render () =
  let out =
    Hf_util.Tabulate.render
      [ Hf_util.Tabulate.column "name"; Hf_util.Tabulate.right "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  check_bool "contains header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  let lines = String.split_on_char '\n' out in
  check_int "line count (header + rule + 2 rows + trailing)" 5 (List.length lines)

let test_tabulate_width_mismatch () =
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Tabulate.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore
        (Hf_util.Tabulate.render
           [ Hf_util.Tabulate.column "a"; Hf_util.Tabulate.column "b" ]
           [ [ "only one" ] ]))

let test_tabulate_alignment () =
  let out =
    Hf_util.Tabulate.render
      [ Hf_util.Tabulate.column "l"; Hf_util.Tabulate.right "num" ]
      [ [ "x"; "7" ] ]
  in
  (* right-aligned: "  7" under "num" *)
  check_bool "right aligned" true
    (List.exists (fun line -> line = "x    7") (String.split_on_char '\n' out))


let () =
  Alcotest.run "hf_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_prng_bounds;
          Alcotest.test_case "invalid bound" `Quick test_prng_bound_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bool bias" `Quick test_prng_bool_bias;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "pick membership" `Quick test_prng_pick;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved ops" `Quick test_heap_interleaved;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Hf_test_harness.qtest prop_heap_sorts;
          Hf_test_harness.qtest prop_heap_model;
        ] );
      ( "deque",
        [
          Alcotest.test_case "fifo" `Quick test_deque_fifo;
          Alcotest.test_case "lifo" `Quick test_deque_lifo;
          Alcotest.test_case "pop_back" `Quick test_deque_pop_back;
          Alcotest.test_case "mixed ends" `Quick test_deque_mixed_ends;
          Alcotest.test_case "clear" `Quick test_deque_clear;
          Hf_test_harness.qtest prop_deque_fifo_model;
          Hf_test_harness.qtest prop_deque_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean and stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty errors" `Quick test_stats_empty_errors;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "NaN rejected" `Quick test_stats_nan_rejected;
          Alcotest.test_case "negative zero ordering" `Quick test_stats_negative_zero_sorts;
        ] );
      ( "glob",
        [
          Alcotest.test_case "literal" `Quick test_glob_literal;
          Alcotest.test_case "literal miss" `Quick test_glob_literal_miss;
          Alcotest.test_case "star matches all" `Quick test_glob_star_any;
          Alcotest.test_case "star matches empty" `Quick test_glob_star_empty;
          Alcotest.test_case "prefix" `Quick test_glob_prefix;
          Alcotest.test_case "suffix" `Quick test_glob_suffix;
          Alcotest.test_case "infix" `Quick test_glob_infix;
          Alcotest.test_case "infix miss" `Quick test_glob_infix_miss;
          Alcotest.test_case "question" `Quick test_glob_question;
          Alcotest.test_case "question miss" `Quick test_glob_question_miss;
          Alcotest.test_case "multiple stars" `Quick test_glob_multi_star;
          Alcotest.test_case "backtracking" `Quick test_glob_backtrack;
          Alcotest.test_case "trailing star" `Quick test_glob_trailing_star;
          Alcotest.test_case "adjacent stars" `Quick test_glob_double_star;
          Alcotest.test_case "empty pattern" `Quick test_glob_empty_pattern;
          Alcotest.test_case "empty pattern miss" `Quick test_glob_empty_pattern_miss;
          Alcotest.test_case "is_literal" `Quick test_glob_is_literal;
        ] );
      ( "tabulate",
        [
          Alcotest.test_case "render" `Quick test_tabulate_render;
          Alcotest.test_case "width mismatch" `Quick test_tabulate_width_mismatch;
          Alcotest.test_case "alignment" `Quick test_tabulate_alignment;
        ] );
    ]
