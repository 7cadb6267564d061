(* Mattern-style four-counter termination detection (ablation comparison
   point for E11).

   Each site keeps monotone counters of work messages sent and received,
   plus an activity flag.  The origin periodically runs a wave that
   collects (sent, received, active) from every site.  Termination is
   declared when two consecutive waves report no active site and
   identical counter totals, with sent = received.

   Safety sketch: suppose the condition holds yet a work message m is in
   flight when the second wave reads its counters.  m's send was counted
   by neither wave at its receiver, so for S = R to hold in wave 1 some
   receipt in R1 must lack its send in S1 — i.e. a message sent after its
   sender's wave-1 read yet received before its receiver's wave-1 read.
   But then the sender's wave-2 read (later still) counts that send, so
   S2 > S1, contradicting S1 = S2.  Hence no message is in flight, and
   with every site passive the computation has terminated. *)

type report = { sent : int; received : int; active : bool }

type t = {
  self : int;
  origin : int;
  n_sites : int;
  mutable sent : int;
  mutable received : int;
  mutable active : bool;
  (* Origin-only wave state. *)
  mutable wave_id : int;
  mutable pending : (int * report) list; (* reports received for the current wave *)
  mutable previous : (int * int) option; (* totals of the last complete all-passive wave *)
  mutable waves : int; (* instrumentation *)
}

type tag = unit

type control =
  | Probe of int (* wave id *)
  | Report of int * report

let name = "four-counter"

let create ~n_sites ~origin ~self =
  Detector.check_args ~n_sites ~origin ~self;
  {
    self;
    origin;
    n_sites;
    sent = 0;
    received = 0;
    active = false;
    wave_id = 0;
    pending = [];
    previous = None;
    waves = 0;
  }

let on_seed t =
  assert (t.self = t.origin);
  t.active <- true

let on_send_work t ~dst:_ = t.sent <- t.sent + 1

(* An undeliverable work message will never appear in any receiver's
   counter: uncount the send, or sent = received could never hold
   again. *)
let on_send_failed t ~dst:_ () =
  t.sent <- t.sent - 1;
  ([], false)

let on_recv_work t ~src:_ () =
  t.received <- t.received + 1;
  t.active <- true;
  []

let on_drain t =
  t.active <- false;
  ([], false)

let self_report t = { sent = t.sent; received = t.received; active = t.active }

let on_poll t =
  if t.self <> t.origin then []
  else begin
    t.wave_id <- t.wave_id + 1;
    t.waves <- t.waves + 1;
    if t.n_sites = 1 then begin
      (* Degenerate wave: route the self-report through the control
         channel so completion is still detected in on_recv_control. *)
      t.pending <- [];
      [ (t.self, Report (t.wave_id, self_report t)) ]
    end
    else begin
      (* The origin reports to itself without a message. *)
      t.pending <- [ (t.self, self_report t) ];
      List.filter_map
        (fun site -> if site = t.self then None else Some (site, Probe t.wave_id))
        (List.init t.n_sites Fun.id)
    end
  end

let wave_complete t =
  let totals =
    List.fold_left
      (fun (s, r, a) ((_, report) : int * report) ->
        (s + report.sent, r + report.received, a || report.active))
      (0, 0, false) t.pending
  in
  t.pending <- [];
  let sent_total, received_total, any_active = totals in
  if any_active || sent_total <> received_total then begin
    t.previous <- None;
    false
  end
  else begin
    match t.previous with
    | Some (prev_sent, prev_received)
      when prev_sent = sent_total && prev_received = received_total -> true
    | Some _ | None ->
      t.previous <- Some (sent_total, received_total);
      false
  end

let on_recv_control t ~src control =
  match control with
  | Probe wave -> ([ (src, Report (wave, self_report t)) ], false)
  | Report (wave, report) ->
    assert (t.self = t.origin);
    if wave <> t.wave_id then ([], false) (* stale wave; ignore *)
    else begin
      t.pending <- (src, report) :: t.pending;
      if List.length t.pending = t.n_sites then ([], wave_complete t) else ([], false)
    end

(* Must comfortably exceed a control-message round trip (~50 ms under
   the paper cost model), or reports arrive stale and every wave
   aborts. *)
let poll_interval = Some 0.25

let waves t = t.waves

let pp_control ppf = function
  | Probe wave -> Fmt.pf ppf "probe(%d)" wave
  | Report (wave, { sent; received; active }) ->
    Fmt.pf ppf "report(%d: s=%d r=%d %s)" wave sent received (if active then "active" else "passive")
