(* Instrumentation counters for one query evaluation.  These drive both
   the unit tests (e.g. "the cycle was broken: no object processed
   twice from the same start") and the cost accounting of the
   benchmarks. *)

type t = {
  mutable objects_processed : int; (* productive removals from W *)
  mutable objects_skipped : int; (* removals suppressed by the mark table *)
  mutable filter_steps : int; (* applications of the E function *)
  mutable tuples_examined : int;
  mutable derefs : int; (* dereferenced pointer values *)
  mutable spawned : int; (* work items created by dereferences *)
  mutable dangling : int; (* pointers to objects that do not exist *)
  mutable results : int; (* objects added to the result set *)
  mutable values_emitted : int; (* values shipped by the -> operator *)
}

let create () =
  {
    objects_processed = 0;
    objects_skipped = 0;
    filter_steps = 0;
    tuples_examined = 0;
    derefs = 0;
    spawned = 0;
    dangling = 0;
    results = 0;
    values_emitted = 0;
  }

let merge a b =
  {
    objects_processed = a.objects_processed + b.objects_processed;
    objects_skipped = a.objects_skipped + b.objects_skipped;
    filter_steps = a.filter_steps + b.filter_steps;
    tuples_examined = a.tuples_examined + b.tuples_examined;
    derefs = a.derefs + b.derefs;
    spawned = a.spawned + b.spawned;
    dangling = a.dangling + b.dangling;
    results = a.results + b.results;
    values_emitted = a.values_emitted + b.values_emitted;
  }
