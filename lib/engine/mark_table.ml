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
     independent of message ordering.  See DESIGN.md §4b. *)

module Key = struct
  type t = int * int array (* filter index, canonical iteration counters *)

  let compare ((i1, a1) : t) ((i2, a2) : t) =
    match Int.compare i1 i2 with 0 -> Stdlib.compare a1 a2 | c -> c
end

module Key_set = Set.Make (Key)

type t = Key_set.t Hf_data.Oid.Table.t

let create () = Hf_data.Oid.Table.create 64

let mem t oid index ~iters =
  match Hf_data.Oid.Table.find_opt t oid with
  | None -> false
  | Some set -> Key_set.mem (index, iters) set

let add t oid index ~iters =
  let set =
    match Hf_data.Oid.Table.find_opt t oid with None -> Key_set.empty | Some set -> set
  in
  Hf_data.Oid.Table.replace t oid (Key_set.add (index, iters) set)

let marks t oid =
  match Hf_data.Oid.Table.find_opt t oid with None -> [] | Some set -> Key_set.elements set

let marked_indices t oid =
  List.sort_uniq Int.compare (List.map fst (marks t oid))

let cardinal t = Hf_data.Oid.Table.length t

let total_marks t = Hf_data.Oid.Table.fold (fun _ set acc -> acc + Key_set.cardinal set) t 0

let clear t = Hf_data.Oid.Table.reset t
