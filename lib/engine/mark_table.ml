(* The mark table of Section 3.1: for each object id, the set of
   processing states at which the object has already been processed.  An
   object removed from W whose state is already marked is ignored — this
   both breaks pointer cycles under transitive closure and suppresses
   duplicate work when several pointers reach the same object.

   Two refinements over a naive "seen" set:

   - Marks are per (object, filter index), not per object — the paper's
     "important subtlety": an object that failed filter F1 must still be
     processed if it is later reached by a dereference landing at F3.

   - Marks also include the item's canonical iteration counters.  The
     paper keys only on filter numbers, which makes finite-iterator
     queries depend on arrival order: an object first reached over a
     long chain (counter >= k, exits the iterator immediately) would
     mask a later arrival over a short chain that could still traverse.
     Counters are canonicalized by [Plan] (star slots pinned to 0,
     finite slots capped at k), so for pure-star queries — the paper's
     experiments — the key degenerates to exactly the paper's
     (object, filter index), while finite-iterator results become
     independent of message ordering.  See DESIGN.md §4b.

   Representation: one mutable entry per oid.  A mark whose counters
   are all zero (every mark of a star-only plan) and whose index is
   below [bit_limit] is one bit of the entry's [bits]; any other mark is
   a key of its [rest] set.  So a pure-star query allocates one entry
   per object and nothing per mark. *)

module Key = struct
  type t = int * int array (* filter index, canonical iteration counters *)

  let compare ((i1, a1) : t) ((i2, a2) : t) =
    match Int.compare i1 i2 with 0 -> Stdlib.compare a1 a2 | c -> c
end

module Key_set = Set.Make (Key)

type entry = { mutable bits : int; mutable rest : Key_set.t }

type t = {
  entries : entry Hf_data.Oid.Table.t;
  mutable width : int;
      (* the counter count of every mark held in [bits], set by the first
         one; -1 until then.  A zero-counter mark of another width goes
         to [rest], so [marks] can rebuild each key exactly. *)
}

let bit_limit = Sys.int_size - 1

let create () = { entries = Hf_data.Oid.Table.create 64; width = -1 }

let rec zero_from iters i = i = Array.length iters || (iters.(i) = 0 && zero_from iters (i + 1))

let all_zero iters = zero_from iters 0

(* A mark that can be a bit: zero counters, an index below
   [bit_limit].  It is one when its counters are [t.width] long. *)
let bit_shaped index iters = index >= 0 && index < bit_limit && all_zero iters

let mem t oid index ~iters =
  match Hf_data.Oid.Table.find t.entries oid with
  | exception Not_found -> false
  | e ->
    if bit_shaped index iters && Array.length iters = t.width then
      e.bits land (1 lsl index) <> 0
    else Key_set.mem (index, iters) e.rest

let add t oid index ~iters =
  let shaped = bit_shaped index iters in
  if shaped && t.width < 0 then t.width <- Array.length iters;
  let e =
    match Hf_data.Oid.Table.find t.entries oid with
    | e -> e
    | exception Not_found ->
      let e = { bits = 0; rest = Key_set.empty } in
      Hf_data.Oid.Table.add t.entries oid e;
      e
  in
  if shaped && Array.length iters = t.width then e.bits <- e.bits lor (1 lsl index)
  else e.rest <- Key_set.add (index, iters) e.rest

(* The indexes of [bits]'s set bits, ascending. *)
let bit_indices bits =
  let rec from i acc =
    if i < 0 then acc else from (i - 1) (if bits land (1 lsl i) <> 0 then i :: acc else acc)
  in
  from (bit_limit - 1) []

let marks t oid =
  match Hf_data.Oid.Table.find_opt t.entries oid with
  | None -> []
  | Some e ->
    let zeros = Array.make (max t.width 0) 0 in
    List.merge Key.compare
      (List.map (fun i -> (i, zeros)) (bit_indices e.bits))
      (Key_set.elements e.rest)

let marked_indices t oid =
  match Hf_data.Oid.Table.find_opt t.entries oid with
  | None -> []
  | Some e when Key_set.is_empty e.rest -> bit_indices e.bits
  | Some e ->
    List.sort_uniq Int.compare
      (Key_set.fold (fun (i, _) acc -> i :: acc) e.rest (bit_indices e.bits))

let cardinal t = Hf_data.Oid.Table.length t.entries

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

let total_marks t =
  Hf_data.Oid.Table.fold
    (fun _ e acc -> acc + popcount e.bits + Key_set.cardinal e.rest)
    t.entries 0

let clear t =
  Hf_data.Oid.Table.reset t.entries;
  t.width <- -1
