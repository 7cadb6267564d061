(* Tests for the termination detectors: exact credit arithmetic, and a
   randomized abstract message-system driver checking each detector's
   safety (never declares while work or work messages remain) and
   liveness (declares once everything has quiesced). *)

module Credit = Hf_termination.Credit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Credit --- *)

let test_credit_basics () =
  check_bool "zero is zero" true (Credit.is_zero Credit.zero);
  check_bool "one is one" true (Credit.is_one Credit.one);
  check_bool "one not zero" false (Credit.is_zero Credit.one);
  check_bool "zero not one" false (Credit.is_one Credit.zero)

let test_credit_split_add () =
  let keep, gave = Credit.split Credit.one in
  check_bool "split halves differ from one" false (Credit.is_one keep);
  check_bool "recombines" true (Credit.is_one (Credit.add keep gave))

let test_credit_split_zero () =
  Alcotest.check_raises "split zero" (Invalid_argument "Credit.split: cannot split zero credit")
    (fun () -> ignore (Credit.split Credit.zero))

let test_credit_normalization () =
  (* 2 * 2^-1 = 1 *)
  let half = Credit.of_atoms [ 1 ] in
  check_bool "two halves are one" true (Credit.is_one (Credit.add half half));
  (* 4 * 2^-2 = 1 *)
  let quarter = Credit.of_atoms [ 2 ] in
  let sum = List.fold_left Credit.add Credit.zero [ quarter; quarter; quarter; quarter ] in
  check_bool "four quarters are one" true (Credit.is_one sum)

let test_credit_atoms_roundtrip () =
  let c = Credit.of_atoms [ 3; 5; 5; 7 ] in
  (* 2*2^-5 normalizes to 2^-4 *)
  Alcotest.(check (list int)) "normalized atoms" [ 3; 4; 7 ] (Credit.atoms c);
  check_bool "roundtrip" true (Credit.equal c (Credit.of_atoms (Credit.atoms c)))

let test_credit_of_atoms_negative () =
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Credit.of_atoms: negative exponent") (fun () ->
      ignore (Credit.of_atoms [ -1 ]))

let test_credit_deep_split () =
  (* Split 1000 times along a chain — no borrowing, no overflow. *)
  let held = ref Credit.one in
  let given = ref Credit.zero in
  for _ = 1 to 1000 do
    let keep, gave = Credit.split !held in
    held := keep;
    given := Credit.add !given gave
  done;
  check_bool "still recombines to one" true (Credit.is_one (Credit.add !held !given));
  check_bool "deep exponent recorded" true (Option.get (Credit.max_exponent !held) >= 1)

let test_credit_to_float () =
  check_bool "one is 1.0" true (Credit.to_float Credit.one = 1.0);
  let keep, gave = Credit.split Credit.one in
  check_bool "halves" true (Credit.to_float keep = 0.5 && Credit.to_float gave = 0.5)

let prop_credit_random_splits =
  QCheck2.Test.make ~name:"random split/merge always recombines to one" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) bool)
    (fun choices ->
      (* maintain a bag of credits starting at [one]; each step either
         splits the first credit or merges the first two *)
      let bag = ref [ Credit.one ] in
      List.iter
        (fun do_split ->
          match !bag with
          | [] -> ()
          | c :: rest ->
            if do_split && not (Credit.is_zero c) then begin
              let keep, gave = Credit.split c in
              bag := keep :: gave :: rest
            end
            else begin
              match rest with
              | [] -> ()
              | d :: rest' -> bag := Credit.add c d :: rest'
            end)
        choices;
      Credit.is_one (List.fold_left Credit.add Credit.zero !bag))

(* The cap: an atom at 2^40 is accepted and halves exactly; one past
   it is refused, as is [max_int], whose next split once wrapped to a
   negative exponent that no encoder takes. *)
let test_credit_cap () =
  let cap = Credit.exponent_cap in
  check_int "2^40" (1 lsl 40) cap;
  let at_cap = Credit.of_atoms [ cap ] in
  let keep, gave = Credit.split at_cap in
  Alcotest.(check (list int)) "kept" [ cap + 1 ] (Credit.atoms keep);
  Alcotest.(check (list int)) "given" [ cap + 1 ] (Credit.atoms gave);
  check_bool "halves recombine" true (Credit.equal at_cap (Credit.add keep gave));
  List.iter
    (fun k ->
      Alcotest.check_raises (string_of_int k)
        (Invalid_argument "Credit.of_atoms: exponent above the cap") (fun () ->
          ignore (Credit.of_atoms [ 3; k ])))
    [ cap + 1; max_int ]

(* Memory follows the atoms held, never an exponent's value: an atom at
   the cap plus one at 2^-3 is summed, split and read back in under 100
   words. *)
let test_credit_cap_words () =
  let at_cap = Credit.of_atoms [ Credit.exponent_cap ] in
  let eighth = Credit.of_atoms [ 3 ] in
  let before = Gc.minor_words () in
  let keep, gave = Credit.split (Credit.add at_cap eighth) in
  let kept = Credit.atoms keep and given = Credit.atoms gave in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list int)) "kept" [ 3; Credit.exponent_cap + 1 ] kept;
  Alcotest.(check (list int)) "given" [ Credit.exponent_cap + 1 ] given;
  check_bool (Printf.sprintf "%.0f words allocated" words) true (words < 100.0)

(* --- Credit against the representation it replaced --- *)

(* [Credit] as an immutable map from exponent to count, normalized after
   every sum: the code before its atoms became an array. *)
module Model = struct
  module Int_map = Map.Make (Int)

  let one = Int_map.singleton 0 1
  let is_zero t = Int_map.is_empty t
  let is_one t = Int_map.equal Int.equal t one
  let equal = Int_map.equal Int.equal

  let rec normalize t =
    let carry = Int_map.filter (fun _ count -> count >= 2) t in
    if Int_map.is_empty carry then t
    else begin
      let t =
        Int_map.fold
          (fun k count acc ->
            assert (k > 0 || count < 2);
            let acc = Int_map.add k (count mod 2) acc in
            let acc = if count mod 2 = 0 then Int_map.remove k acc else acc in
            let prev = match Int_map.find_opt (k - 1) acc with None -> 0 | Some c -> c in
            Int_map.add (k - 1) (prev + (count / 2)) acc)
          carry t
      in
      normalize t
    end

  let add a b = normalize (Int_map.union (fun _ ca cb -> Some (ca + cb)) a b)

  let split t =
    let k, _ = Int_map.max_binding t in
    let rest = Int_map.remove k t in
    (add rest (Int_map.singleton (k + 1) 1), Int_map.singleton (k + 1) 1)

  let atoms t =
    Int_map.fold (fun k count acc -> List.init count (fun _ -> k) @ acc) t []
    |> List.sort compare

  let of_atoms ks =
    normalize
      (List.fold_left
         (fun acc k ->
           let prev = match Int_map.find_opt k acc with None -> 0 | Some c -> c in
           Int_map.add k (prev + 1) acc)
         Int_map.empty ks)
end

type credit_op = Split of int | Merge of int * int | Deposit of int * int

let credit_op_gen =
  QCheck2.Gen.(
    frequency
      [ (3, map (fun i -> Split i) nat);
        (1, map2 (fun i j -> Merge (i, j)) nat nat);
        (1, map2 (fun i j -> Deposit (i, j)) nat nat);
      ])

(* A bag of credits, each held both ways, goes through random splits,
   merges and deposits (a share read back from its atoms, as a frame
   delivers it, then summed into a holder).  The bag starts at [one] or
   at up to six atoms of 2^-3 or less, some past 2^-62 and some past
   2^-1000, so no sum exceeds 1.  After every step both sides must give
   the same atoms, [equal], [is_zero] and [is_one]; at the end the whole
   bag must sum to what it started from. *)
let prop_credit_matches_model =
  let exponent = QCheck2.Gen.(oneof [ int_range 3 12; int_range 60 70; int_range 1000 1010 ]) in
  QCheck2.Test.make ~name:"credit agrees with the map model" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 6) exponent) (list_size (int_range 1 80) credit_op_gen))
    (fun (start, ops) ->
      let initial =
        if start = [] then (Model.one, Credit.one) else (Model.of_atoms start, Credit.of_atoms start)
      in
      let agree (m, c) =
        Model.atoms m = Credit.atoms c
        && Model.is_zero m = Credit.is_zero c
        && Model.is_one m = Credit.is_one c
      in
      let bag = ref [ initial ] in
      let take i =
        let n = List.length !bag in
        let i = i mod n in
        (List.nth !bag i, List.filteri (fun j _ -> j <> i) !bag)
      in
      let step op =
        match op with
        | Split i ->
          let (m, c), rest = take i in
          if Model.is_zero m then ()
          else begin
            let mk, mg = Model.split m and ck, cg = Credit.split c in
            bag := (mk, ck) :: rest @ [ (mg, cg) ]
          end
        | Merge (i, j) | Deposit (i, j) when List.length !bag >= 2 ->
          let (m1, c1), rest = take i in
          bag := rest;
          let (m2, c2), rest = take j in
          let c1 =
            match op with Deposit _ -> Credit.of_atoms (Credit.atoms c1) | Split _ | Merge _ -> c1
          in
          bag := (Model.add m2 m1, Credit.add c2 c1) :: rest
        | Merge _ | Deposit _ -> ()
      in
      List.for_all
        (fun op ->
          step op;
          let pairs = !bag in
          List.for_all agree pairs
          && List.for_all
               (fun (m1, c1) ->
                 List.for_all (fun (m2, c2) -> Model.equal m1 m2 = Credit.equal c1 c2) pairs)
               pairs)
        ops
      &&
      let m, c =
        List.fold_left
          (fun (ma, ca) (m, c) -> (Model.add ma m, Credit.add ca c))
          (Model.Int_map.empty, Credit.zero) !bag
      in
      agree (m, c) && Model.equal m (fst initial) && Credit.equal c (snd initial))

(* --- Abstract message-system driver, generic over the detector --- *)

module Driver (D : Hf_termination.Detector.S) = struct
  type message =
    | Work of { src : int; dst : int; tag : D.tag }
    | Control of { src : int; dst : int; payload : D.control }

  (* Run a random diffusing computation over [n_sites]; return true iff
     the detector was safe throughout and live at the end. *)
  let run ~n_sites ~seed =
    let prng = Hf_util.Prng.create seed in
    let origin = 0 in
    let detectors = Array.init n_sites (fun self -> D.create ~n_sites ~origin ~self) in
    let site_work = Array.make n_sites 0 in
    let in_flight : message list ref = ref [] in
    let declared = ref false in
    let safety_ok = ref true in
    let truly_done () =
      Array.for_all (fun w -> w = 0) site_work
      && not (List.exists (function Work _ -> true | Control _ -> false) !in_flight)
    in
    let note_declared flag =
      if flag then begin
        declared := true;
        if not (truly_done ()) then safety_ok := false
      end
    in
    let send_controls src controls =
      List.iter
        (fun (dst, payload) -> in_flight := Control { src; dst; payload } :: !in_flight)
        controls
    in
    (* seed initial work at the origin *)
    let initial = 1 + Hf_util.Prng.next_int prng 3 in
    D.on_seed detectors.(origin);
    site_work.(origin) <- initial;
    (* total-send budget guarantees the computation itself is finite *)
    let sends_left = ref 100 in
    let process_item site =
      site_work.(site) <- site_work.(site) - 1;
      let forwards = min !sends_left (Hf_util.Prng.next_int prng 3) in
      for _ = 1 to forwards do
        decr sends_left;
        let dst = Hf_util.Prng.next_int prng n_sites in
        let tag = D.on_send_work detectors.(site) ~dst in
        in_flight := Work { src = site; dst; tag } :: !in_flight
      done;
      if site_work.(site) = 0 then begin
        let controls, terminated = D.on_drain detectors.(site) in
        send_controls site controls;
        note_declared terminated
      end
    in
    let deliver_nth n =
      let rec split i acc = function
        | [] -> assert false
        | m :: rest ->
          if i = n then (m, List.rev_append acc rest) else split (i + 1) (m :: acc) rest
      in
      let m, rest = split 0 [] !in_flight in
      in_flight := rest;
      match m with
      | Work { src; dst; tag } ->
        let controls = D.on_recv_work detectors.(dst) ~src tag in
        send_controls dst controls;
        site_work.(dst) <- site_work.(dst) + 1
      | Control { src; dst; payload } ->
        let controls, terminated = D.on_recv_control detectors.(dst) ~src payload in
        send_controls dst controls;
        note_declared terminated
    in
    let budget = ref 2000 in
    let continue () =
      (Array.exists (fun w -> w > 0) site_work || !in_flight <> []) && !budget > 0
    in
    while continue () do
      decr budget;
      let busy_sites = List.filter (fun s -> site_work.(s) > 0) (List.init n_sites Fun.id) in
      let can_deliver = !in_flight <> [] in
      if busy_sites <> [] && (Hf_util.Prng.next_bool prng 0.5 || not can_deliver) then
        process_item
          (List.nth busy_sites (Hf_util.Prng.next_int prng (List.length busy_sites)))
      else if can_deliver then deliver_nth (Hf_util.Prng.next_int prng (List.length !in_flight))
    done;
    (* liveness: after quiescence, polling waves (for wave-based
       detectors) plus control delivery must lead to a declaration *)
    let rounds = ref 0 in
    while (not !declared) && !rounds < 20 do
      incr rounds;
      send_controls origin (D.on_poll detectors.(origin));
      while !in_flight <> [] do
        deliver_nth 0
      done
    done;
    !safety_ok && !declared && truly_done ()
end

module Weighted_driver = Driver (Hf_termination.Weighted)
module Ds_driver = Driver (Hf_termination.Dijkstra_scholten)
module Fc_driver = Driver (Hf_termination.Four_counter)

let detector_prop name run =
  QCheck2.Test.make ~name ~count:150
    QCheck2.Gen.(pair (int_range 1 6) int)
    (fun (n_sites, seed) -> run ~n_sites ~seed)

let prop_weighted = detector_prop "weighted: safe and live" Weighted_driver.run
let prop_ds = detector_prop "dijkstra-scholten: safe and live" Ds_driver.run
let prop_fc = detector_prop "four-counter: safe and live" Fc_driver.run

(* --- Focused scenarios --- *)

let test_weighted_two_site_scenario () =
  let module W = Hf_termination.Weighted in
  let a = W.create ~n_sites:2 ~origin:0 ~self:0 in
  let b = W.create ~n_sites:2 ~origin:0 ~self:1 in
  W.on_seed a;
  let tag = W.on_send_work a ~dst:1 in
  let controls_a, done_a = W.on_drain a in
  check_bool "origin not done: credit outstanding" false done_a;
  check_int "origin keeps controls local" 0 (List.length controls_a);
  check_int "no immediate controls on work receipt" 0 (List.length (W.on_recv_work b ~src:0 tag));
  let controls_b, done_b = W.on_drain b in
  check_bool "non-origin never declares" false done_b;
  match controls_b with
  | [ (0, ret) ] ->
    let _, declared = W.on_recv_control a ~src:1 ret in
    check_bool "origin declares on full recovery" true declared
  | _ -> Alcotest.fail "expected one credit return to origin"

let test_weighted_instrumentation () =
  let module W = Hf_termination.Weighted in
  let a = W.create ~n_sites:3 ~origin:0 ~self:0 in
  W.on_seed a;
  ignore (W.on_send_work a ~dst:1);
  ignore (W.on_send_work a ~dst:2);
  check_int "two splits" 2 (W.splits a);
  check_bool "held shrank" false (Credit.is_one (W.held a))

let test_weighted_empty_query () =
  (* Origin seeds and drains with no sends: immediate termination. *)
  let module W = Hf_termination.Weighted in
  let a = W.create ~n_sites:3 ~origin:0 ~self:0 in
  W.on_seed a;
  let _, declared = W.on_drain a in
  check_bool "immediate declaration" true declared

let test_ds_scenario () =
  let module D = Hf_termination.Dijkstra_scholten in
  let a = D.create ~n_sites:2 ~origin:0 ~self:0 in
  let b = D.create ~n_sites:2 ~origin:0 ~self:1 in
  D.on_seed a;
  D.on_send_work a ~dst:1;
  check_int "deficit" 1 (D.deficit a);
  let _, done_a = D.on_drain a in
  check_bool "not done with deficit" false done_a;
  check_int "first message engages silently" 0 (List.length (D.on_recv_work b ~src:0 ()));
  match D.on_drain b with
  | [ (0, ack) ], false ->
    let _, declared = D.on_recv_control a ~src:1 ack in
    check_bool "origin declares after ack" true declared
  | _ -> Alcotest.fail "expected ack to origin"

let test_ds_second_message_acked_immediately () =
  let module D = Hf_termination.Dijkstra_scholten in
  let b = D.create ~n_sites:2 ~origin:0 ~self:1 in
  check_int "engage" 0 (List.length (D.on_recv_work b ~src:0 ()));
  check_int "second acked" 1 (List.length (D.on_recv_work b ~src:0 ()))

let test_fc_probe_reply () =
  let module F = Hf_termination.Four_counter in
  let origin = F.create ~n_sites:2 ~origin:0 ~self:0 in
  let other = F.create ~n_sites:2 ~origin:0 ~self:1 in
  F.on_seed origin;
  let _ = F.on_drain origin in
  (match F.on_poll origin with
   | [ (1, probe) ] -> (
       match F.on_recv_control other ~src:0 probe with
       | [ (0, _report) ], false -> ()
       | _ -> Alcotest.fail "expected a report back to the origin")
   | _ -> Alcotest.fail "expected one probe");
  check_int "one wave counted" 1 (F.waves origin)


let () =
  Alcotest.run "hf_termination"
    [
      ( "credit",
        [
          Alcotest.test_case "basics" `Quick test_credit_basics;
          Alcotest.test_case "split/add" `Quick test_credit_split_add;
          Alcotest.test_case "split zero rejected" `Quick test_credit_split_zero;
          Alcotest.test_case "normalization" `Quick test_credit_normalization;
          Alcotest.test_case "atoms roundtrip" `Quick test_credit_atoms_roundtrip;
          Alcotest.test_case "negative atoms rejected" `Quick test_credit_of_atoms_negative;
          Alcotest.test_case "deep splits (no borrowing)" `Quick test_credit_deep_split;
          Alcotest.test_case "approximate value" `Quick test_credit_to_float;
          Alcotest.test_case "atoms past the cap refused" `Quick test_credit_cap;
          Alcotest.test_case "an atom at the cap costs its entry" `Quick test_credit_cap_words;
          Hf_test_harness.qtest prop_credit_random_splits;
          Hf_test_harness.qtest prop_credit_matches_model;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "two-site scenario" `Quick test_weighted_two_site_scenario;
          Alcotest.test_case "instrumentation" `Quick test_weighted_instrumentation;
          Alcotest.test_case "empty query" `Quick test_weighted_empty_query;
          Hf_test_harness.qtest prop_weighted;
        ] );
      ( "dijkstra-scholten",
        [
          Alcotest.test_case "scenario" `Quick test_ds_scenario;
          Alcotest.test_case "second message acked" `Quick
            test_ds_second_message_acked_immediately;
          Hf_test_harness.qtest prop_ds;
        ] );
      ( "four-counter",
        [
          Alcotest.test_case "probe/reply" `Quick test_fc_probe_reply;
          Hf_test_harness.qtest prop_fc;
        ] );
    ]
