(* Tests for the discrete-event simulator core. *)

module Sim = Hf_sim.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_empty_run () =
  let sim = Sim.create () in
  Sim.run sim;
  check_float "time stays zero" 0.0 (Sim.now sim);
  check_int "no events" 0 (Sim.events_processed sim)

let test_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "in time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.now sim)

let test_fifo_on_equal_times () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_events_schedule_events () =
  let sim = Sim.create () in
  let times = ref [] in
  let rec tick n () =
    times := Sim.now sim :: !times;
    if n > 0 then Sim.schedule sim ~delay:1.5 (tick (n - 1))
  in
  Sim.schedule sim ~delay:0.0 (tick 3);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "cascade" [ 0.0; 1.5; 3.0; 4.5 ] (List.rev !times);
  check_int "four events" 4 (Sim.events_processed sim)

let test_schedule_in_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () ->
      match Sim.schedule_at sim ~time:0.5 (fun () -> ()) with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ());
  Sim.run sim

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1.0) (fun () -> ()))

let test_halt () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.schedule sim ~delay:1.0 (fun () ->
        incr count;
        if !count = 3 then Sim.halt sim)
  done;
  Sim.run sim;
  check_int "halted after three" 3 !count;
  check_int "pending remain" 7 (Sim.pending sim);
  (* a fresh run resumes *)
  Sim.run sim;
  check_int "resumed" 10 !count

let test_limit () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5.0 (fun () -> ());
  match Sim.run ~limit:2.0 sim with
  | () -> Alcotest.fail "expected limit breach"
  | exception Sim.Time_limit_exceeded t -> check_float "breach time" 5.0 t

let test_limit_keeps_event () =
  (* The event that breached the limit must stay queued: a later
     unrestricted run still executes it (regression: it used to be
     popped and lost). *)
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~delay:5.0 (fun () -> fired := true);
  (match Sim.run ~limit:2.0 sim with
   | () -> Alcotest.fail "expected limit breach"
   | exception Sim.Time_limit_exceeded _ -> ());
  check_bool "not yet fired" false !fired;
  check_int "still pending" 1 (Sim.pending sim);
  Sim.run sim;
  check_bool "fires on resume" true !fired;
  check_float "clock advanced" 5.0 (Sim.now sim)

let test_step () =
  let sim = Sim.create () in
  let hits = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr hits);
  Sim.schedule sim ~delay:2.0 (fun () -> incr hits);
  check_bool "first step" true (Sim.step sim);
  check_int "one hit" 1 !hits;
  check_bool "second step" true (Sim.step sim);
  check_bool "exhausted" false (Sim.step sim)

(* --- Costs --- *)

let test_paper_costs () =
  let c = Hf_sim.Costs.paper in
  check_float "processing 8ms" 0.008 c.Hf_sim.Costs.process;
  check_float "result add 20ms" 0.020 c.Hf_sim.Costs.result_add;
  check_float "work message ~50ms" 0.050 (Hf_sim.Costs.work_message_total c);
  check_float "result message ~50ms" 0.050 (Hf_sim.Costs.result_message_total c)

let test_costs_scale () =
  let c = Hf_sim.Costs.scale 2.0 Hf_sim.Costs.paper in
  check_float "scaled process" 0.016 c.Hf_sim.Costs.process;
  check_float "zero" 0.0 (Hf_sim.Costs.work_message_total Hf_sim.Costs.zero_latency)

let () =
  Alcotest.run "hf_sim"
    [
      ( "sim",
        [
          Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "FIFO on equal times" `Quick test_fifo_on_equal_times;
          Alcotest.test_case "events schedule events" `Quick test_events_schedule_events;
          Alcotest.test_case "past scheduling rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "halt and resume" `Quick test_halt;
          Alcotest.test_case "time limit" `Quick test_limit;
          Alcotest.test_case "limit keeps the breaching event" `Quick test_limit_keeps_event;
          Alcotest.test_case "single step" `Quick test_step;
        ] );
      ( "costs",
        [
          Alcotest.test_case "paper basic times" `Quick test_paper_costs;
          Alcotest.test_case "scaling" `Quick test_costs_scale;
        ] );
    ]
