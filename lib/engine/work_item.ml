(* The per-object state that must survive in the working set W — and, for
   remote dereferences, on the wire.  Exactly the paper's observation
   (end of Section 3.1): only the object id, the starting filter, and the
   iteration numbers are needed; O.next and O.mvars exist only while the
   object is actively being processed. *)

type t = {
  oid : Hf_data.Oid.t;
  start : int; (* first filter to process this object *)
  iters : int array; (* iteration counter per Plan slot; chain length, >= 1 *)
}

let initial plan oid =
  { oid; start = 0; iters = Array.init (Plan.iter_count plan) (Plan.initial_counter plan) }

let make ~oid ~start ~iters = { oid; start; iters }

let oid t = t.oid

let start t = t.start

let iters t = t.iters

let iter_at t slot =
  if slot < 0 || slot >= Array.length t.iters then invalid_arg "Work_item.iter_at";
  t.iters.(slot)

(* A dereference at filter index [deref_index] reached [target]: the new
   item starts at the filter following the dereference, with the counter
   of every enclosing iterator incremented (canonicalized) — the pointer
   chain through each of those iterators' bodies is one longer. *)
let spawn plan ~deref_index ~target t =
  let iters = Array.copy t.iters in
  List.iter
    (fun slot -> iters.(slot) <- Plan.bump_counter plan slot iters.(slot))
    (Plan.enclosing_iterator_slots plan deref_index);
  { oid = target; start = deref_index + 1; iters }

let equal a b =
  Hf_data.Oid.equal a.oid b.oid
  && a.start = b.start
  && Array.length a.iters = Array.length b.iters
  && Array.for_all2 ( = ) a.iters b.iters
