(* Static analysis of a compiled program, computed once per query and
   shared by every site processing it:

   - which [Iter] filters enclose each filter index, so a dereference
     knows which iteration counters to bump;
   - a dense numbering of the iterators, so a work item can carry its
     iteration counters as a small array (the paper's "stack of
     iteration numbers", keyed statically rather than dynamically —
     identical for non-nested iterators, the common case the paper
     expects, and a documented, terminating semantics for nested ones:
     a dereference lengthens the pointer chain through *every* iterator
     whose body contains it, so each iterator bounds the total chain
     length through its body by its own k). *)

type t = {
  program : Hf_query.Program.t;
  slot_of_iter : int array; (* filter index -> dense iterator slot, or -1 *)
  enclosing_slots : int list array; (* filter index -> slots of all enclosing iterators *)
  slot_caps : int array; (* per slot: k for Finite k, 0 for Star *)
  iter_count : int;
}

let make program =
  let n = Hf_query.Program.length program in
  let slot_of_iter = Array.make n (-1) in
  let caps = ref [] in
  let iter_count = ref 0 in
  for i = 0 to n - 1 do
    match Hf_query.Program.get program i with
    | Hf_query.Filter.Iter { count; _ } ->
      slot_of_iter.(i) <- !iter_count;
      incr iter_count;
      caps := (match count with Hf_query.Filter.Finite k -> k | Hf_query.Filter.Star -> 0) :: !caps
    | Hf_query.Filter.Select _ | Hf_query.Filter.Deref _ | Hf_query.Filter.Retrieve _ -> ()
  done;
  let slot_caps = Array.of_list (List.rev !caps) in
  (* The body of the iterator at index i is [body_start, i): position d
     is enclosed by every iterator whose body range contains it. *)
  let enclosing_slots = Array.make n [] in
  for d = 0 to n - 1 do
    let slots = ref [] in
    for i = n - 1 downto 0 do
      match Hf_query.Program.get program i with
      | Hf_query.Filter.Iter { body_start; _ } when body_start <= d && d < i ->
        slots := slot_of_iter.(i) :: !slots
      | Hf_query.Filter.Iter _ | Hf_query.Filter.Select _ | Hf_query.Filter.Deref _
      | Hf_query.Filter.Retrieve _ -> ()
    done;
    enclosing_slots.(d) <- !slots
  done;
  { program; slot_of_iter; enclosing_slots; slot_caps; iter_count = !iter_count }

let program t = t.program

let length t = Hf_query.Program.length t.program

let iter_count t = t.iter_count

let slot_of_iterator t i =
  if i < 0 || i >= Array.length t.slot_of_iter then invalid_arg "Plan.slot_of_iterator";
  let s = t.slot_of_iter.(i) in
  if s < 0 then invalid_arg "Plan.slot_of_iterator: not an iterator index";
  s

let enclosing_iterator_slots t d =
  if d < 0 || d >= Array.length t.enclosing_slots then
    invalid_arg "Plan.enclosing_iterator_slots";
  t.enclosing_slots.(d)

(* Iteration counters are kept *canonical*: values that cannot change
   future behaviour are collapsed.  A Star iterator never consults its
   counter, so its slot is pinned to 0; a Finite-k iterator only
   distinguishes counters below k, so values are capped at k.  This
   makes the space of counter vectors finite and lets the mark table key
   on them — the result set then depends only on which pointer chains
   exist, not on message arrival order (see DESIGN.md §4b). *)
let initial_counter t slot = if t.slot_caps.(slot) = 0 then 0 else 1

let bump_counter t slot c =
  let cap = t.slot_caps.(slot) in
  if cap = 0 then 0 else min (c + 1) cap
