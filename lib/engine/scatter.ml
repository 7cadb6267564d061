(* Scatter-gather evaluation and stitching (doc/execution_modes.md).

   Correctness rests on the eligibility restriction: with no finite
   iterators every counter slot is a pinned-to-zero star, so work items
   are fully determined by (oid, start) and a site can evaluate every
   node of its domain ahead of time, each with a fresh mark table.  The
   stitcher then reproduces classic entry suppression with per-(site,
   oid) covered index sets: a node is activated only when its start
   index is not yet covered, and activation merges its visited indices
   into the cover — the same rule [Eval.run_object] applies against a
   shared per-site mark table. *)

module Oid = Hf_data.Oid

type node = {
  oid : Oid.t;
  start : int;
  passed : bool;
  visited : int list;
  spawns : (Oid.t * int) list;
  bindings : (string * Hf_data.Value.t list) list;
}

(* A node's key: its object and the program index it starts at, under
   [Oid.equal]/[Oid.hash] as in [Oid.Table]. *)
module Pos = struct
  type t = Oid.t * int

  let equal (a, i) (b, j) = i = j && Oid.equal a b

  let hash (oid, pc) = Hashtbl.hash (Oid.hash oid, pc)
end

module Pos_table = Hashtbl.Make (Pos)

let eval_site ~plan ~find ~oids ~roots ~stats =
  let landing = Hf_query.Plan.landing_pcs (Plan.program plan) in
  let seen = Pos_table.create 64 in
  let domain = ref [] in
  let push oid start =
    if not (Pos_table.mem seen (oid, start)) then begin
      Pos_table.replace seen (oid, start) ();
      domain := (oid, start) :: !domain
    end
  in
  List.iter (fun oid -> push oid 0) roots;
  List.iter (fun oid -> List.iter (fun pc -> push oid pc) landing) oids;
  let iters = Array.make (Plan.iter_count plan) 0 in
  let marks = Mark_table.create () in
  List.fold_left
    (fun acc (oid, start) ->
      (* Empty marks per node: the run is self-contained, and entry
         suppression across nodes is the stitcher's job. *)
      Mark_table.clear marks;
      let bindings = ref [] in
      let emit ~target values = bindings := (target, values) :: !bindings in
      let item = Work_item.make ~oid ~start ~iters in
      let step = Eval.run_object ~plan ~find ~marks ~stats ~emit item in
      let spawns =
        List.map (fun wi -> (Work_item.oid wi, Work_item.start wi)) step.spawned
      in
      let bindings = List.rev !bindings in
      if step.passed || spawns <> [] || bindings <> [] then
        {
          oid;
          start;
          passed = step.passed;
          visited = Mark_table.marked_indices marks oid;
          spawns;
          bindings;
        }
        :: acc
      else acc)
    [] !domain
  |> List.rev

module Stitch = struct
  type outcome = {
    passed : Oid.t list;
    bindings : (string * Hf_data.Value.t list) list;
    fallback : Work_item.t list;
  }

  let empty_outcome = { passed = []; bindings = []; fallback = [] }

  type t = {
    plan : Plan.t;
    members : (int, unit) Hashtbl.t;  (* the scattered site set *)
    tables : (int, node Pos_table.t) Hashtbl.t;
    roots : (int, Oid.t list) Hashtbl.t;
    covered : (int, unit Pos_table.t) Hashtbl.t;  (* per site: the covered (oid, index) pairs *)
    pending : (int, (Oid.t * int) list ref) Hashtbl.t;
    mutable missing : int;
  }

  let cover t site =
    match Hashtbl.find_opt t.covered site with
    | Some cover -> cover
    | None ->
      let cover = Pos_table.create 64 in
      Hashtbl.replace t.covered site cover;
      cover

  let create ~plan ~sites ~roots =
    let members = Hashtbl.create 7 in
    List.iter (fun s -> Hashtbl.replace members s ()) sites;
    let root_tbl = Hashtbl.create 7 in
    List.iter (fun (s, oids) -> Hashtbl.replace root_tbl s oids) roots;
    {
      plan;
      members;
      tables = Hashtbl.create 7;
      roots = root_tbl;
      covered = Hashtbl.create 7;
      pending = Hashtbl.create 7;
      missing = List.length sites;
    }

  let outstanding t = t.missing

  (* Activate everything reachable from [queue] across every installed
     table, parking edges toward not-yet-gathered members and turning
     edges that escape the member set into classic work items. *)
  let drain t queue =
    let passed = ref [] in
    let bindings = ref [] in
    let fallback = ref [] in
    let q = Queue.create () in
    List.iter (fun e -> Queue.add e q) queue;
    let activate site node =
      let cover = cover t site in
      List.iter (fun idx -> Pos_table.replace cover (node.oid, idx) ()) node.visited;
      if node.passed then passed := node.oid :: !passed;
      List.iter (fun b -> bindings := b :: !bindings) node.bindings;
      List.iter
        (fun (target, pc) ->
          let dst = Oid.birth_site target in
          if Hashtbl.mem t.members dst then
            if Hashtbl.mem t.tables dst then Queue.add (dst, target, pc) q
            else begin
              let parked =
                match Hashtbl.find_opt t.pending dst with
                | Some r -> r
                | None ->
                  let r = ref [] in
                  Hashtbl.replace t.pending dst r;
                  r
              in
              parked := (target, pc) :: !parked
            end
          else
            fallback :=
              Work_item.make ~oid:target ~start:pc
                ~iters:(Array.make (Plan.iter_count t.plan) 0)
              :: !fallback)
        node.spawns
    in
    while not (Queue.is_empty q) do
      let site, oid, start = Queue.pop q in
      if not (Pos_table.mem (cover t site) (oid, start)) then
        match Hashtbl.find_opt t.tables site with
        | None -> ()  (* guarded before enqueue; defensive *)
        | Some table -> (
          match Pos_table.find_opt table (oid, start) with
          | None -> ()  (* unproductive or dangling: classic drop *)
          | Some node -> activate site node)
    done;
    {
      passed = List.rev !passed;
      bindings = List.rev !bindings;
      fallback = List.rev !fallback;
    }

  let add_gather t ~site nodes =
    if (not (Hashtbl.mem t.members site)) || Hashtbl.mem t.tables site then
      empty_outcome
    else begin
      let table = Pos_table.create (max 16 (List.length nodes * 2)) in
      List.iter (fun node -> Pos_table.replace table (node.oid, node.start) node) nodes;
      Hashtbl.replace t.tables site table;
      t.missing <- t.missing - 1;
      let roots =
        match Hashtbl.find_opt t.roots site with Some l -> l | None -> []
      in
      let parked =
        match Hashtbl.find_opt t.pending site with
        | Some r ->
          Hashtbl.remove t.pending site;
          List.rev !r
        | None -> []
      in
      let queue =
        List.map (fun oid -> (site, oid, 0)) roots
        @ List.map (fun (oid, pc) -> (site, oid, pc)) parked
      in
      drain t queue
    end

  let site_dead t ~site =
    if (not (Hashtbl.mem t.members site)) || Hashtbl.mem t.tables site then
      empty_outcome
    else begin
      Hashtbl.replace t.tables site (Pos_table.create 1);
      t.missing <- t.missing - 1;
      (* Parked edges and seed roots for the dead site are lost, just
         as classic shipping loses the items it sent there. *)
      Hashtbl.remove t.pending site;
      Hashtbl.remove t.roots site;
      empty_outcome
    end
end
