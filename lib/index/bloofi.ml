(* Bloofi-style hierarchical index over per-site Bloom summaries
   (DESIGN.md §4k).

   Layout: a perfect d-ary tree kept in one heap-ordered array.  With
   [cap = order^levels] leaf slots, the [internal = (cap-1)/(order-1)]
   inner nodes occupy indices [0 .. internal-1] and leaf slot [s] lives
   at index [internal + s]; the children of node [j] are
   [j*order + 1 .. j*order + order].  Live leaves fill slots
   [0 .. n-1] left to right, so the subtree under any node covers a
   contiguous slot range and an empty subtree is recognized from its
   range alone — no parent pointers, no per-node bookkeeping.

   Mutation is incremental: replacing a leaf (the [Cache_version] churn
   path) recomputes only the leaf-to-root path, each ancestor rebuilt
   as the exact {!Bloom.union} of its children.  Exact recomputation —
   rather than the grow-only OR a textbook Bloofi uses — is what lets
   [remove] and summary replacement shed stale bits immediately, which
   the staleness contract (a stale tree may over-ship, never wrongly
   prune) depends on.  Inserting past capacity rebuilds one level
   deeper; that is the only whole-tree pass and is counted in
   {!rebuilds}.

   An inner node whose live children have union-incompatible geometry
   (possible only for filters that arrived off the wire, never for
   {!Bloom.create}d ones) stores no filter and is always descended:
   unindexable data degrades to over-shipping, never to a wrong
   prune. *)

type t = {
  order : int;
  mutable levels : int;
  mutable cap : int; (* order^levels leaf slots *)
  mutable internal : int; (* (cap-1)/(order-1) inner nodes *)
  mutable nodes : Bloom.t option array; (* internal + cap entries *)
  mutable sites : int array; (* slot -> site, first n live *)
  mutable n : int;
  slot_of : (int, int) Hashtbl.t; (* site -> slot *)
  mutable stat_probes : int;
  mutable stat_pruned : int;
  mutable stat_rebuilds : int;
}

type probe_result = { sites : int list; touched : int; depth : int }

let create ?(order = 4) () =
  if order < 2 then invalid_arg "Bloofi.create: order must be >= 2";
  {
    order;
    levels = 0;
    cap = 1;
    internal = 0;
    nodes = Array.make 1 None;
    sites = Array.make 1 (-1);
    n = 0;
    slot_of = Hashtbl.create 16;
    stat_probes = 0;
    stat_pruned = 0;
    stat_rebuilds = 0;
  }

let cardinal t = t.n
let mem t ~site = Hashtbl.mem t.slot_of site
let probes_run t = t.stat_probes
let pruned_total t = t.stat_pruned
let rebuilds t = t.stat_rebuilds

(* The exact filter node [j] (covering slots [lo, lo+width)) should
   hold: the union of its live children, or [None] when some live
   child is filterless or a union is geometry-incompatible. *)
let child_union t j lo width =
  let step = width / t.order in
  let acc = ref None and ok = ref true in
  for c = 0 to t.order - 1 do
    let clo = lo + (c * step) in
    if clo < t.n then
      match t.nodes.((j * t.order) + 1 + c) with
      | None -> ok := false
      | Some f -> (
        match !acc with
        | None -> acc := Some f
        | Some g -> (
          match Bloom.union g f with
          | Some u -> acc := Some u
          | None -> ok := false))
  done;
  if !ok then !acc else None

(* Recompute the ancestors of [slot] bottom-up, descending only the
   child that contains it. *)
let rec refresh t j lo hi slot =
  let width = hi - lo in
  if width > 1 then begin
    let step = width / t.order in
    let c = (slot - lo) / step in
    refresh t ((j * t.order) + 1 + c) (lo + (c * step)) (lo + ((c + 1) * step)) slot;
    t.nodes.(j) <- child_union t j lo width
  end

let rec rebuild_node t j lo hi =
  let width = hi - lo in
  if width > 1 && lo < t.n then begin
    let step = width / t.order in
    for c = 0 to t.order - 1 do
      rebuild_node t ((j * t.order) + 1 + c) (lo + (c * step)) (lo + ((c + 1) * step))
    done;
    t.nodes.(j) <- child_union t j lo width
  end

(* One level deeper: leaf capacity multiplies by [order] and every
   inner node is rebuilt (the only O(n) mutation). *)
let grow t =
  let levels = t.levels + 1 in
  let cap = t.cap * t.order in
  let internal = (cap - 1) / (t.order - 1) in
  let nodes = Array.make (internal + cap) None in
  let sites = Array.make cap (-1) in
  Array.blit t.sites 0 sites 0 t.n;
  for s = 0 to t.n - 1 do
    nodes.(internal + s) <- t.nodes.(t.internal + s)
  done;
  t.levels <- levels;
  t.cap <- cap;
  t.internal <- internal;
  t.nodes <- nodes;
  t.sites <- sites;
  t.stat_rebuilds <- t.stat_rebuilds + 1;
  rebuild_node t 0 0 t.cap

let rec insert t ~site bloom =
  match Hashtbl.find_opt t.slot_of site with
  | Some slot ->
    t.nodes.(t.internal + slot) <- Some bloom;
    refresh t 0 0 t.cap slot
  | None ->
    if t.n = t.cap then begin
      grow t;
      insert t ~site bloom
    end
    else begin
      let slot = t.n in
      Hashtbl.replace t.slot_of site slot;
      t.sites.(slot) <- site;
      t.nodes.(t.internal + slot) <- Some bloom;
      t.n <- t.n + 1;
      refresh t 0 0 t.cap slot
    end

let remove t ~site =
  match Hashtbl.find_opt t.slot_of site with
  | None -> ()
  | Some slot ->
    let last = t.n - 1 in
    Hashtbl.remove t.slot_of site;
    if slot <> last then begin
      let moved = t.sites.(last) in
      t.sites.(slot) <- moved;
      t.nodes.(t.internal + slot) <- t.nodes.(t.internal + last);
      Hashtbl.replace t.slot_of moved slot
    end;
    t.sites.(last) <- -1;
    t.nodes.(t.internal + last) <- None;
    t.n <- t.n - 1;
    refresh t 0 0 t.cap slot;
    if last <> slot then refresh t 0 0 t.cap last

(* Disjunction of conjunctions, the shape [Remote_cache.prune_probes]
   yields per landing pc: a filter may match when some group's probes
   are all possibly present.  An empty group (or group list) cannot
   rule anything out.  Filterless nodes may always match. *)
let may filter groups =
  match filter with
  | None -> true
  | Some f ->
    groups = []
    || List.exists (fun g -> List.for_all (fun p -> Bloom.mem f p) g) groups

let probe t groups =
  t.stat_probes <- t.stat_probes + 1;
  let touched = ref 0 and deepest = ref 0 and acc = ref [] in
  let rec go j lo hi level =
    if lo < t.n then begin
      incr touched;
      if level > !deepest then deepest := level;
      if may t.nodes.(j) groups then
        if hi - lo = 1 then acc := t.sites.(lo) :: !acc
        else begin
          let step = (hi - lo) / t.order in
          for c = 0 to t.order - 1 do
            go ((j * t.order) + 1 + c) (lo + (c * step)) (lo + ((c + 1) * step))
              (level + 1)
          done
        end
    end
  in
  if t.n > 0 then go 0 0 t.cap 0;
  let sites = List.sort Int.compare !acc in
  t.stat_pruned <- t.stat_pruned + (t.n - List.length sites);
  { sites; touched = !touched; depth = !deepest }

let invariant_ok t =
  let ok = ref (Hashtbl.length t.slot_of = t.n) in
  Hashtbl.iter
    (fun site slot ->
      if slot < 0 || slot >= t.n || t.sites.(slot) <> site then ok := false)
    t.slot_of;
  for s = 0 to t.n - 1 do
    if t.nodes.(t.internal + s) = None then ok := false
  done;
  let rec check j lo hi =
    let width = hi - lo in
    if width > 1 && lo < t.n then begin
      let step = width / t.order in
      for c = 0 to t.order - 1 do
        check ((j * t.order) + 1 + c) (lo + (c * step)) (lo + ((c + 1) * step))
      done;
      match (t.nodes.(j), child_union t j lo width) with
      | None, None -> ()
      | Some got, Some want -> if not (Bloom.equal got want) then ok := false
      | None, Some _ | Some _, None -> ok := false
    end
  in
  check 0 0 t.cap;
  !ok
