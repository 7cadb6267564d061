(* Dijkstra–Scholten diffusing-computation termination detection,
   included as a comparison point for the ablation bench (E11).

   Every work message must eventually be acknowledged.  The first work
   message to reach an unengaged site makes the sender its parent in a
   dynamic spanning tree; the site acknowledges its parent only when it
   is passive and all messages it sent have been acknowledged (its
   deficit is zero).  The origin knows the computation has terminated
   when it is passive with zero deficit. *)

type t = {
  self : int;
  origin : int;
  mutable engaged : bool;
  mutable parent : int option;
  mutable active : bool; (* working set non-empty *)
  mutable deficit : int; (* work messages sent but not yet acknowledged *)
}

type tag = unit

type control = Ack

let name = "dijkstra-scholten"

let create ~n_sites ~origin ~self =
  Detector.check_args ~n_sites ~origin ~self;
  {
    self;
    origin;
    engaged = self = origin;
    parent = None;
    active = false;
    deficit = 0;
  }

let on_seed t =
  assert (t.self = t.origin);
  t.active <- true

(* Passive with zero deficit: detach from the tree (ack the parent), or —
   at the origin — declare termination. *)
let try_detach t =
  if t.engaged && (not t.active) && t.deficit = 0 then begin
    if t.self = t.origin then ([], true)
    else begin
      match t.parent with
      | None -> ([], false) (* unreachable: engaged non-origin always has a parent *)
      | Some parent ->
        t.engaged <- false;
        t.parent <- None;
        ([ (parent, Ack) ], false)
    end
  end
  else ([], false)

let on_send_work t ~dst:_ = t.deficit <- t.deficit + 1

let on_recv_work t ~src () =
  t.active <- true;
  if t.engaged then begin
    (* Already in the tree: acknowledge immediately. *)
    [ (src, Ack) ]
  end
  else begin
    t.engaged <- true;
    t.parent <- Some src;
    []
  end

(* An undeliverable work message never engaged its receiver, so the ack
   it owed will never come: cancel the deficit entry directly.  This
   can complete the detach condition, exactly as the missing ack would
   have. *)
let on_send_failed t ~dst:_ () =
  t.deficit <- t.deficit - 1;
  assert (t.deficit >= 0);
  try_detach t

let on_drain t =
  t.active <- false;
  try_detach t

let on_recv_control t ~src:_ Ack =
  t.deficit <- t.deficit - 1;
  assert (t.deficit >= 0);
  try_detach t

let poll_interval = None

let on_poll _ = []

let pp_control ppf Ack = Fmt.string ppf "ack"

let deficit t = t.deficit
