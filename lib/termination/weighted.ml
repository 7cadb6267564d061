(* The weighted-message termination algorithm used by the paper's
   prototype (its references [9, 13]; also known as credit-recovery).

   The origin starts with credit 1.  Every work message carries a piece
   of the sender's credit; a site holds credit whenever its working set
   is non-empty.  When a site drains, it returns all held credit to the
   origin in a single control message (in the real protocol this rides
   on the result message, so detection adds no extra messages on the
   common path).  The origin has detected termination exactly when its
   recovered credit normalizes back to 1.

   Credits are exact dyadic multisets (see [Credit]); splitting is
   unbounded so no borrowing protocol is needed. *)

type t = {
  self : int;
  origin : int;
  mutable held : Credit.t;
  mutable recovered : Credit.t; (* meaningful at the origin only *)
  mutable splits : int; (* instrumentation *)
}

type tag = Credit.t

type control = Return of Credit.t

let name = "weighted"

let create ~n_sites ~origin ~self =
  Detector.check_args ~n_sites ~origin ~self;
  {
    self;
    origin;
    held = Credit.zero;
    recovered = Credit.zero;
    splits = 0;
  }

let on_seed t =
  assert (t.self = t.origin);
  t.held <- Credit.add t.held Credit.one

let on_send_work t ~dst:_ =
  let keep, give = Credit.split t.held in
  t.splits <- t.splits + 1;
  t.held <- keep;
  give

let on_recv_work t ~src:_ credit =
  t.held <- Credit.add t.held credit;
  []

let terminated t = t.self = t.origin && Credit.is_one t.recovered

(* An undeliverable work message: its credit share was split off but
   will never be held (the receiver provably never processed the
   message), so recover it directly — at the origin into [recovered],
   elsewhere as an ordinary return control.  The unit invariant is
   preserved and the origin still converges to exactly 1. *)
let on_send_failed t ~dst:_ credit =
  if Credit.is_zero credit then ([], terminated t)
  else if t.self = t.origin then begin
    t.recovered <- Credit.add t.recovered credit;
    ([], terminated t)
  end
  else ([ (t.origin, Return credit) ], false)

let on_drain t =
  if Credit.is_zero t.held then ([], terminated t)
  else begin
    let returned = t.held in
    t.held <- Credit.zero;
    if t.self = t.origin then begin
      t.recovered <- Credit.add t.recovered returned;
      ([], terminated t)
    end
    else ([ (t.origin, Return returned) ], false)
  end

let on_recv_control t ~src:_ (Return credit) =
  assert (t.self = t.origin);
  t.recovered <- Credit.add t.recovered credit;
  ([], terminated t)

let poll_interval = None

let on_poll _ = []

let pp_control ppf (Return credit) = Fmt.pf ppf "return(%a)" Credit.pp credit

(* Instrumentation for the ablation bench. *)
let held t = t.held

let splits t = t.splits
