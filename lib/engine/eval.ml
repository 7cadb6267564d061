(* The E function of Section 3.1 and the per-object processing loop.

   [run_object] takes one work item from the working set and pushes the
   object through the filters from its start index until it either falls
   past the last filter (it passed the query) or fails a filter.  The
   caller supplies the mark table (checked on entry, updated per filter
   index visited), receives the work items spawned by dereferences (to
   route locally or remotely), and receives the values emitted by
   [Retrieve] filters.

   Design notes, where the paper leaves latitude:
   - Bindings collected while scanning an object's tuples for one filter
     are installed after the scan, so a [Use] pattern inside a filter
     sees only bindings from earlier filters (deterministic in tuple
     order).
   - A [Retrieve] filter behaves as a selection with wildcard data: the
     object passes iff some tuple matches (type, key); the data fields of
     all matching tuples are emitted. *)

module F = Hf_query.Filter
module P = Hf_query.Pattern

type step_result = {
  spawned : Work_item.t list;
  passed : bool;
  skipped : bool; (* the mark table suppressed processing entirely *)
}

(* One selection or retrieve scan over the object's tuples.  Returns
   whether any tuple matched; accumulates new bindings and emitted
   values.  A tuple's type tag is matched as a string: a [Value] is
   built only to bind it. *)
let scan_tuples ~stats ~mvars ~ttype ~key ~data ~on_data obj =
  let lookup = Mvars.lookup mvars in
  let push pattern value bindings =
    match (pattern : P.t) with
    | Bind var -> (var, value) :: bindings
    | Any | Exact _ | Glob _ | Range _ | Use _ -> bindings
  in
  let rec scan matched bindings = function
    | [] ->
      Mvars.add_all mvars (List.rev bindings);
      matched
    | tuple :: rest ->
      stats.Stats.tuples_examined <- stats.Stats.tuples_examined + 1;
      let tag = Hf_data.Tuple.ttype tuple in
      let kv = Hf_data.Tuple.key tuple in
      let dv = Hf_data.Tuple.data tuple in
      if P.matches_str ttype tag ~lookup && P.matches key kv ~lookup && P.matches data dv ~lookup
      then begin
        let bindings =
          match ttype with
          | Bind var -> (var, Hf_data.Value.str tag) :: bindings
          | Any | Exact _ | Glob _ | Range _ | Use _ -> bindings
        in
        let bindings = push data dv (push key kv bindings) in
        on_data dv;
        scan true bindings rest
      end
      else scan matched bindings rest
  in
  scan false [] (Hf_data.Hobject.tuples obj)

(* The filter indexes one walk has visited: bits of an int, or a table
   when the program has more filters than an int has bits. *)
let narrow = Sys.int_size - 1

let visited mask wide index =
  match wide with None -> mask land (1 lsl index) <> 0 | Some table -> Hashtbl.mem table index

let run_object ~plan ~find ~marks ~stats ~emit item =
  let program = Plan.program plan in
  let n = Plan.length plan in
  let oid = Work_item.oid item in
  let item_iters = Work_item.iters item in
  if Mark_table.mem marks oid (Work_item.start item) ~iters:item_iters then begin
    stats.Stats.objects_skipped <- stats.Stats.objects_skipped + 1;
    { spawned = []; passed = false; skipped = true }
  end
  else begin
    match find oid with
    | None ->
      stats.Stats.dangling <- stats.Stats.dangling + 1;
      { spawned = []; passed = false; skipped = false }
    | Some obj ->
      stats.Stats.objects_processed <- stats.Stats.objects_processed + 1;
      let mvars = Mvars.create () in
      let spawned = ref [] in
      (* [start] is mutable per the paper: an iterator sends the object
         back to its body by lowering start, so that the same iterator
         lets it exit on the next encounter. *)
      let start = ref (Work_item.start item) in
      let next = ref (Work_item.start item) in
      let alive = ref true in
      (* Indices this walk has visited itself: an iterator loop-back
         re-enters its own marks and must proceed, but a mark left by
         ANOTHER item means that item already pushed the object through
         this suffix — continuing would duplicate its emissions, spawns
         and pass.  Without this mid-walk check the outcome depends on
         which overlapping item ran first (arrival order), and a
         distributed run can disagree with the same engine run over a
         single store. *)
      let mask = ref 0 in
      let wide = if n > narrow then Some (Hashtbl.create 8) else None in
      while
        !alive && !next < n
        &&
        if
          (not (visited !mask wide !next))
          && Mark_table.mem marks oid !next ~iters:item_iters
        then begin
          alive := false;
          false
        end
        else true
      do
        (match wide with
         | None -> mask := !mask lor (1 lsl !next)
         | Some table -> Hashtbl.replace table !next ());
        Mark_table.add marks oid !next ~iters:item_iters;
        stats.Stats.filter_steps <- stats.Stats.filter_steps + 1;
        (match Hf_query.Program.get program !next with
         | F.Select { ttype; key; data } ->
           let matched =
             scan_tuples ~stats ~mvars ~ttype ~key ~data ~on_data:(fun _ -> ()) obj
           in
           if matched then incr next else alive := false
         | F.Retrieve { ttype; key; target } ->
           let values = ref [] in
           let matched =
             scan_tuples ~stats ~mvars ~ttype ~key ~data:P.any
               ~on_data:(fun v -> values := v :: !values)
               obj
           in
           if matched then begin
             let values = List.rev !values in
             stats.Stats.values_emitted <- stats.Stats.values_emitted + List.length values;
             emit ~target values;
             incr next
           end
           else alive := false
         | F.Deref { var; mode } ->
           let deref_index = !next in
           let targets = List.filter_map Hf_data.Value.as_pointer (Mvars.lookup mvars var) in
           let spawn target =
             stats.Stats.derefs <- stats.Stats.derefs + 1;
             stats.Stats.spawned <- stats.Stats.spawned + 1;
             spawned := Work_item.spawn plan ~deref_index ~target item :: !spawned
           in
           List.iter spawn targets;
           (match mode with
            | F.Keep_parent -> incr next
            | F.Replace -> alive := false)
         | F.Iter { body_start; count } ->
           let iter_index = !next in
           let slot = Plan.slot_of_iterator plan iter_index in
           let chain = Work_item.iter_at item slot in
           let exits =
             !start <= body_start
             || (match count with F.Finite k -> chain >= k | F.Star -> false)
           in
           if exits then incr next
           else begin
             (* New to this iterator and the pointer chain is short:
                go around the body; lower start so the object exits on
                the next encounter. *)
             start := body_start;
             next := body_start
           end)
      done;
      { spawned = List.rev !spawned; passed = !alive; skipped = false }
  end
