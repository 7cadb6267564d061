(* The per-site protocol of Section 3.2, shared by the simulator
   (Cluster) and the socket engine (Tcp_site): the work path, the cache
   layer and its counters, and every path that moves termination
   credit, over any detector ([Termination]).  Nothing here reads a
   clock or touches a socket: the drivers pass the clock in, and send
   what comes out. *)

module Oid = Hf_data.Oid
module Message = Hf_proto.Message
module Work_item = Hf_engine.Work_item
module Remote_cache = Hf_index.Remote_cache
module Bloofi = Hf_index.Bloofi

type exec_mode = Exec_ship | Exec_scatter | Exec_auto

(* --- the originator's answer --- *)

type final = {
  mutable results : Oid.t list;
  mutable set : Oid.Set.t;
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;
  mutable unreachable : int list;
}

let final () = { results = []; set = Oid.Set.empty; bindings = Hashtbl.create 4; unreachable = [] }

let add_final final oid =
  if not (Oid.Set.mem oid final.set) then begin
    final.set <- Oid.Set.add oid final.set;
    final.results <- oid :: final.results
  end

let merge_bindings table extra =
  List.iter
    (fun (target, values) ->
      let existing = match Hashtbl.find_opt table target with None -> [] | Some v -> v in
      Hashtbl.replace table target (existing @ values))
    extra

let note_unreachable final dead =
  if not (List.mem dead final.unreachable) then final.unreachable <- dead :: final.unreachable

let join final (m : (_, _) Message.msg) =
  match m with
  | Result { payload; bindings; _ } ->
    (match payload with Items items -> List.iter (add_final final) items | Count _ -> ());
    merge_bindings final.bindings bindings
  | Site_unreachable { dead; _ } -> note_unreachable final dead
  | _ -> ()

(* --- sites and contexts --- *)

type t = {
  id : int;
  store : Hf_data.Store.t;
  clock : unit -> float;
  serve_hits : bool;
  cache_config : Remote_cache.config option;
  cache : Remote_cache.t option;
  mutable summary_memo : (int * Hf_index.Bloom.t) option;
      (* this site's own summary, memoized per store version *)
  summary_told : (int, int) Hashtbl.t;
      (* peer -> store version whose summary we last sent it, so repeat
         validations skip the summary bytes *)
  summaries : (int, int * Hf_index.Bloom.t) Hashtbl.t;
      (* peer -> (version, summary) learned from Cache_version replies;
         prune checks require the validated version *)
  mutable summary_epoch : int;
      (* summary rebuilds for validations; rides every Cache_version
         reply so peers can spot a restarted lineage *)
  peer_epochs : (int, int) Hashtbl.t; (* peer -> last epoch seen from it *)
  bloofi : Bloofi.t option;
  bloofi_src : (int, Hf_index.Bloom.t) Hashtbl.t;
      (* peer -> the filter installed as its leaf, so maintenance can
         skip physically unchanged summaries *)
  bloofi_depth : Hf_obs.Histogram.t;
  mutable locality_memo : (int * float) option;
      (* (store version, on-site fraction of pointer tuples) *)
}

let create ~id ~store ~clock ~cache ~serve_hits ~bloofi ~bloofi_depth =
  {
    id;
    store;
    clock;
    serve_hits;
    cache_config = cache;
    cache = Option.map Remote_cache.create cache;
    summary_memo = None;
    summary_told = Hashtbl.create 4;
    summaries = Hashtbl.create 4;
    summary_epoch = 0;
    peer_epochs = Hashtbl.create 4;
    bloofi = (if bloofi then Some (Bloofi.create ()) else None);
    bloofi_src = Hashtbl.create 4;
    bloofi_depth;
    locality_memo = None;
  }

let cache t = t.cache
let bloofi t = t.bloofi

type 'w ctx = {
  query : Message.query_id;
  plan : Hf_engine.Plan.t;
  origin : int;
  n_sites : int;
  span : int;
  metrics : Metrics.t;
  marks : Hf_engine.Mark_table.t;
  work : 'w Hf_util.Deque.t;
  stats : Hf_engine.Stats.t;
  bindings : (string, Hf_data.Value.t list) Hashtbl.t;
  final : final;
  mutable result_buffer : Oid.t list;
  mutable local_result_set : Oid.Set.t;
  mutable active : int;
  mutable buffered : int;
  validated : (int, int) Hashtbl.t;
  validating : (int, unit) Hashtbl.t;
  parked : (int, Work_item.t list) Hashtbl.t;
  mutable parked_count : int;
  mutable answers : Message.cache_answer list;
  mutable answers_version : int;
  mutable scatter : Hf_engine.Scatter.Stitch.t option;
}

let context ?marks ?final:answer ~metrics ~n_sites ~query ~span program =
  {
    query;
    plan = Hf_engine.Plan.make program;
    origin = query.Message.originator;
    n_sites;
    span;
    metrics;
    marks = (match marks with Some m -> m | None -> Hf_engine.Mark_table.create ());
    work = Hf_util.Deque.create ();
    stats = Hf_engine.Stats.create ();
    bindings = Hashtbl.create 4;
    final = (match answer with Some f -> f | None -> final ());
    result_buffer = [];
    local_result_set = Oid.Set.empty;
    active = 0;
    buffered = 0;
    validated = Hashtbl.create 4;
    validating = Hashtbl.create 4;
    parked = Hashtbl.create 4;
    parked_count = 0;
    answers = [];
    answers_version = 0;
    scatter = None;
  }

let eval_domain t ctx ~roots =
  Hf_engine.Scatter.eval_site ~plan:ctx.plan ~find:(Hf_data.Store.find t.store)
    ~oids:(Hf_data.Store.oids t.store) ~roots ~stats:ctx.stats

let add_result t ctx oid =
  if not (Oid.Set.mem oid ctx.local_result_set) then begin
    ctx.local_result_set <- Oid.Set.add oid ctx.local_result_set;
    if t.id = ctx.origin then add_final ctx.final oid
    else ctx.result_buffer <- oid :: ctx.result_buffer
  end

let ready ctx =
  Hf_util.Deque.is_empty ctx.work
  && ctx.active = 0 && ctx.buffered = 0 && ctx.parked_count = 0
  &&
  match ctx.scatter with
  | None -> true
  | Some stitch -> Hf_engine.Scatter.Stitch.outstanding stitch = 0

(* --- the work path --- *)

type route =
  | Ship
  | Pruned
  | Hit of bool
  | Miss of { invalidated : bool }
  | Parked
  | Validate
  | Dangling

type sink = {
  local : Work_item.t -> unit;
  ship : int -> Work_item.t -> unit;
  verdict : int -> route -> unit;
}

(* Order matters for credit safety: prune and hit happen before the
   item ever reaches a batcher, so their credit is never split. *)
let resolve t ctx ~dst ~version wi =
  let start = Work_item.start wi in
  let iters = Work_item.iters wi in
  let probes = Remote_cache.prune_probes ctx.plan ~start ~iters in
  let pruned =
    probes <> []
    &&
    match Hashtbl.find_opt t.summaries dst with
    | Some (v, summary) when v = version -> Remote_cache.summary_misses summary probes
    | Some _ | None -> false
  in
  if pruned then Pruned
  else
    match t.cache with
    | Some cache when Remote_cache.cacheable ctx.plan ~start ~iters -> (
        let key =
          Remote_cache.entry_key ~dst ~plan:ctx.plan ~start ~iters ~oid:(Work_item.oid wi)
        in
        match Remote_cache.lookup cache ~now:(t.clock ()) ~key ~version with
        | Remote_cache.Hit passed when t.serve_hits ->
          if passed then add_result t ctx (Work_item.oid wi);
          Hit passed
        | Remote_cache.Hit _ -> Ship
        | Remote_cache.Invalidated -> Miss { invalidated = true }
        | Remote_cache.Absent -> Miss { invalidated = false })
    | Some _ | None -> Ship

(* Count the verdict, then hand the item on: a hit's verdict is
   already in the results, exactly what the remote's reply would have
   brought, minus the network. *)
let settle ctx sink ~dst wi route =
  let m = ctx.metrics in
  (match route with
   | Pruned -> m.cache_prunes <- m.cache_prunes + 1
   | Hit _ -> m.cache_hits <- m.cache_hits + 1
   | Miss { invalidated } ->
     if invalidated then m.cache_invalidations <- m.cache_invalidations + 1;
     m.cache_misses <- m.cache_misses + 1
   | Validate -> m.cache_validations <- m.cache_validations + 1
   | Ship | Parked | Dangling -> ());
  sink.verdict dst route;
  match route with
  | Ship | Miss _ ->
    ctx.buffered <- ctx.buffered + 1;
    sink.ship dst wi
  | Pruned | Hit _ | Parked | Validate | Dangling -> ()

let route t ctx sink ~dst wi =
  settle ctx sink ~dst wi
    (match t.cache with
     | _ when dst >= ctx.n_sites -> Dangling
     | None -> Ship
     | Some _ -> (
         match Hashtbl.find_opt ctx.validated dst with
         | Some version -> resolve t ctx ~dst ~version wi
         | None ->
           let waiting = match Hashtbl.find_opt ctx.parked dst with Some l -> l | None -> [] in
           Hashtbl.replace ctx.parked dst (wi :: waiting);
           ctx.parked_count <- ctx.parked_count + 1;
           if Hashtbl.mem ctx.validating dst then Parked
           else begin
             Hashtbl.replace ctx.validating dst ();
             Validate
           end))

(* [spawned]: the items come from an evaluation, so one the mark table
   already holds is a redundant send. *)
let rec spread t ctx sink ~spawned = function
  | [] -> ()
  | wi :: rest ->
    let oid = Work_item.oid wi in
    let dst = Oid.birth_site oid in
    if dst = t.id then sink.local wi
    else if
      not
        (spawned
        && Hf_engine.Mark_table.mem ctx.marks oid (Work_item.start wi) ~iters:(Work_item.iters wi))
    then route t ctx sink ~dst wi;
    spread t ctx sink ~spawned rest

let dispatch t ctx sink items = spread t ctx sink ~spawned:false items

let record_answer t ctx item ~passed =
  let start = Work_item.start item and iters = Work_item.iters item in
  if Option.is_some t.cache && t.id <> ctx.origin && Remote_cache.cacheable ctx.plan ~start ~iters
  then begin
    let v = Hf_data.Store.version t.store in
    if ctx.answers <> [] && ctx.answers_version <> v then ctx.answers <- [];
    ctx.answers_version <- v;
    ctx.answers <- { Message.oid = Work_item.oid item; start; iters; passed } :: ctx.answers
  end

let emit ctx ~target values =
  let existing = match Hashtbl.find_opt ctx.bindings target with None -> [] | Some v -> v in
  Hashtbl.replace ctx.bindings target (existing @ values)

let step t ctx sink ~record item =
  let r =
    Hf_engine.Eval.run_object ~plan:ctx.plan ~find:(Hf_data.Store.find t.store) ~marks:ctx.marks
      ~stats:ctx.stats ~emit:(emit ctx) item
  in
  spread t ctx sink ~spawned:true r.spawned;
  if record && not r.skipped then record_answer t ctx item ~passed:r.passed;
  if r.passed then add_result t ctx (Work_item.oid item);
  r

let drop_parked ctx =
  Hashtbl.reset ctx.parked;
  ctx.parked_count <- 0

let unpark t ctx sink ~dst ~version =
  Hashtbl.remove ctx.validating dst;
  Option.iter (Hashtbl.replace ctx.validated dst) version;
  match Hashtbl.find_opt ctx.parked dst with
  | None -> 0
  | Some waiting ->
    Hashtbl.remove ctx.parked dst;
    let items = List.rev waiting in
    let n = List.length items in
    ctx.parked_count <- ctx.parked_count - n;
    List.iter
      (fun wi ->
        settle ctx sink ~dst wi
          (match version with None -> Ship | Some version -> resolve t ctx ~dst ~version wi))
      items;
    n

(* --- the cache control plane --- *)

(* This store's summary at its current version, and whether that took
   a rebuild. *)
let memo_summary t cfg =
  let version = Hf_data.Store.version t.store in
  match t.summary_memo with
  | Some (v, bloom) when v = version -> (bloom, false)
  | Some _ | None ->
    let bloom = Remote_cache.summary_of_store cfg t.store in
    t.summary_memo <- Some (version, bloom);
    (bloom, true)

let summary t = Option.map (fun cfg -> fst (memo_summary t cfg)) t.cache_config

(* Without the cache the reply is version-only.  The summary travels
   in [Bloom]'s wire form in both engines, so both run its decoder. *)
let validate_reply t ~peer =
  let version = Hf_data.Store.version t.store in
  let summary =
    Option.bind t.cache_config (fun cfg ->
        let bloom, rebuilt = memo_summary t cfg in
        if rebuilt then t.summary_epoch <- t.summary_epoch + 1;
        match Hashtbl.find_opt t.summary_told peer with
        | Some v when v = version -> None
        | Some _ | None ->
          Hashtbl.replace t.summary_told peer version;
          Some (Hf_index.Bloom.to_string bloom))
  in
  (version, summary)

let epoch t = t.summary_epoch

let forget_summary t peer =
  Hashtbl.remove t.summaries peer;
  Hashtbl.remove t.bloofi_src peer;
  Option.iter (fun tree -> Bloofi.remove tree ~site:peer) t.bloofi

let learn t ~peer ~version ~epoch summary =
  (* An epoch regression means the peer's lineage restarted: its old
     summary and leaf could wrongly prune against the new store, and
     cached verdicts are keyed by a version the new lineage can
     collide with. *)
  (match Hashtbl.find_opt t.peer_epochs peer with
   | Some e when epoch < e ->
     forget_summary t peer;
     Option.iter (fun cache -> Remote_cache.drop_dst cache ~dst:peer) t.cache
   | Some _ | None -> ());
  Hashtbl.replace t.peer_epochs peer epoch;
  match Option.map Hf_index.Bloom.of_string summary with
  | Some (Some bloom) ->
    Hashtbl.replace t.summaries peer (version, bloom);
    Option.iter
      (fun tree ->
        Bloofi.insert tree ~site:peer bloom;
        Hashtbl.replace t.bloofi_src peer bloom)
      t.bloofi
  | None -> (
      (* "you already have it": if ours is for another version (the
         reply that carried the new one was lost), it must never prune
         at the new version *)
      match Hashtbl.find_opt t.summaries peer with
      | Some (v, _) when v <> version -> forget_summary t peer
      | Some _ | None -> ())
  | Some None -> () (* garbled: no pruning from it; still correct *)

let learned t ~peer = Hashtbl.find_opt t.summaries peer

let fill t ctx ~src ~version (answers : Message.cache_answer list) =
  Option.iter
    (fun cache ->
      let now = t.clock () in
      List.iter
        (fun ({ oid; start; iters; passed } : Message.cache_answer) ->
          let key = Remote_cache.entry_key ~dst:src ~plan:ctx.plan ~start ~iters ~oid in
          Remote_cache.put cache ~now ~key ~version ~passed)
        answers;
      ctx.metrics.cache_fills <- ctx.metrics.cache_fills + List.length answers)
    t.cache

(* --- planning --- *)

(* What separates the two ends of the locality sweep: chains that
   mostly stay home make shipping's expected hop count collapse. *)
let p_local t =
  let version = Hf_data.Store.version t.store in
  match t.locality_memo with
  | Some (v, p) when v = version -> p
  | Some _ | None ->
    let total = ref 0 and local = ref 0 in
    Hf_data.Store.iter t.store (fun obj ->
        List.iter
          (fun target ->
            incr total;
            if Oid.birth_site target = t.id then incr local)
          (Hf_data.Hobject.pointers obj));
    let p = if !total = 0 then 1.0 else float_of_int !local /. float_of_int !total in
    t.locality_memo <- Some (version, p);
    p

let sync_bloofi t ~n_sites ~summary =
  match t.bloofi with
  | None -> ()
  | Some tree ->
    for peer = 0 to n_sites - 1 do
      if peer <> t.id then
        match summary peer with
        | Some bloom ->
          if
            match Hashtbl.find_opt t.bloofi_src peer with
            | Some installed -> installed != bloom
            | None -> true
          then begin
            Bloofi.insert tree ~site:peer bloom;
            Hashtbl.replace t.bloofi_src peer bloom
          end
        | None ->
          if Hashtbl.mem t.bloofi_src peer then begin
            Hashtbl.remove t.bloofi_src peer;
            Bloofi.remove tree ~site:peer
          end
    done

type descent = {
  tree : Bloofi.t;
  may : (int, unit) Hashtbl.t;
  index : Hf_query.Plan.index_stats;
}

let descend t groups =
  match t.bloofi with
  | None -> None
  | Some tree when Bloofi.cardinal tree = 0 -> None
  | Some tree ->
    let r = Bloofi.probe tree groups in
    Hf_obs.Histogram.observe t.bloofi_depth (float_of_int r.depth);
    let may = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace may s ()) r.sites;
    let indexed = Bloofi.cardinal tree in
    Some
      {
        tree;
        may;
        index =
          { indexed; touched = r.touched; depth = r.depth; pruned = indexed - List.length r.sites };
      }

let may_match d ~site =
  if Bloofi.mem d.tree ~site then Some (Hashtbl.mem d.may site) else None

(* Leaves equal the flat filters, so a descent changes only the probe
   cost (reported in [decision.index]), never a verdict. *)
let decide t ~n_sites ~summary ~objects ~costs program initial =
  let plan = Hf_engine.Plan.make program in
  let zeros = Array.make (Hf_engine.Plan.iter_count plan) 0 in
  (* A seed born outside the cluster is dangling: it seeds no site, so
     no scatter reaches for it, and {!route} drops it. *)
  let seed_sites =
    List.fold_left
      (fun acc oid ->
        let s = Oid.birth_site oid in
        if s >= n_sites then acc
        else
          match List.assoc_opt s acc with
          | Some n -> (s, n + 1) :: List.remove_assoc s acc
          | None -> (s, 1) :: acc)
      [] initial
  in
  let landing_groups =
    List.map
      (fun pc -> Remote_cache.prune_probes plan ~start:pc ~iters:zeros)
      (Hf_query.Plan.landing_pcs program)
  in
  let start_probes = Remote_cache.prune_probes plan ~start:0 ~iters:zeros in
  let flat_may bloom =
    landing_groups = []
    || List.exists
         (fun probes -> probes = [] || not (Remote_cache.summary_misses bloom probes))
         landing_groups
  in
  let seed_may bloom =
    start_probes = [] || not (Remote_cache.summary_misses bloom start_probes)
  in
  let descent = descend t landing_groups in
  let hints =
    List.filter_map
      (fun peer ->
        if peer = t.id then None
        else
          let filter = summary peer in
          let may_match =
            match Option.bind descent (may_match ~site:peer) with
            | Some _ as verdict -> verdict
            | None -> Option.map flat_may filter
          in
          Some
            {
              Hf_query.Plan.site = peer;
              objects = objects peer filter;
              may_match;
              seed_may_match = Option.map seed_may filter;
            })
      (List.init n_sites Fun.id)
  in
  let item_bytes = 13 + 4 + (4 * Hf_engine.Plan.iter_count plan) in
  Hf_query.Plan.decide ~program ~origin:t.id ~seed_sites ~hints
    ?index:(Option.map (fun d -> d.index) descent)
    ~costs:(costs ~item_bytes ~p_local:(p_local t))
    ()

let select ctx exec ~scatter_ok decide =
  match exec with
  | Exec_ship -> (None, None)
  | (Exec_scatter | Exec_auto) as exec ->
    let d = decide () in
    let m = ctx.metrics in
    if
      scatter_ok && d.Hf_query.Plan.eligible && d.Hf_query.Plan.predicted <> []
      && (exec = Exec_scatter || Hf_query.Plan.equal_mode d.chosen Hf_query.Plan.Scatter)
    then begin
      m.planner_scatter <- m.planner_scatter + 1;
      (Some d, Some d.predicted)
    end
    else begin
      m.planner_ship <- m.planner_ship + 1;
      (Some d, None)
    end

(* A partial scatter leaves out a remote seed site whose summary rules
   out its seeds, so a seed born outside the scattered set ships
   classically — same contract as a stitched chain that escapes. *)
let scatter_seed t ctx ~sites initial =
  let members = t.id :: sites in
  let member = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace member s ()) members;
  let roots = Hashtbl.create 8 in
  let stray = ref [] in
  List.iter
    (fun oid ->
      let s = Oid.birth_site oid in
      if Hashtbl.mem member s then
        Hashtbl.replace roots s
          (oid :: (match Hashtbl.find_opt roots s with Some l -> l | None -> []))
      else stray := oid :: !stray)
    initial;
  let roots_of s = match Hashtbl.find_opt roots s with Some l -> List.rev l | None -> [] in
  ctx.scatter <-
    Some
      (Hf_engine.Scatter.Stitch.create ~plan:ctx.plan ~sites:members
         ~roots:(List.map (fun s -> (s, roots_of s)) members));
  (roots_of, List.rev !stray)

let stitch t ctx sink ~site nodes =
  match ctx.scatter with
  | None -> 0
  | Some stitch ->
    let outcome = Hf_engine.Scatter.Stitch.add_gather stitch ~site nodes in
    List.iter (add_result t ctx) outcome.passed;
    merge_bindings ctx.final.bindings outcome.bindings;
    let n = List.length outcome.fallback in
    ctx.metrics.scatter_fallbacks <- ctx.metrics.scatter_fallbacks + n;
    dispatch t ctx sink outcome.fallback;
    n

let gather_lost ctx ~site =
  Option.iter (fun stitch -> ignore (Hf_engine.Scatter.Stitch.site_dead stitch ~site)) ctx.scatter

(* --- termination credit (the paper's Section 4) --- *)

module type PAYLOAD = sig
  type tag
  type control
  type work
  type back

  val work : tag -> work
  val tag : work -> tag
  val back : control list -> back
  val controls : back -> control list
end

module Identity (D : Hf_termination.Detector.S) = struct
  type work = D.tag
  type back = D.control list

  let work = Fun.id
  let tag = Fun.id
  let back = Fun.id
  let controls = Fun.id
end

module Termination
    (D : Hf_termination.Detector.S)
    (P : PAYLOAD with type tag := D.tag and type control := D.control) =
struct
  type msg = (P.work, P.back) Message.msg
  type out = (int * msg) list * bool

  (* Controls that ride no answer travel one to a [Credit_return].  Most
     calls have none, and build no closure then. *)
  let alone ctx = function
    | [] -> []
    | controls ->
      List.map
        (fun (dst, c) -> (dst, Message.Credit_return { query = ctx.query; credit = P.back [ c ] }))
        controls

  (* The controls bound for the originator ride [answer], sent last. *)
  let aboard ctx controls answer =
    let home, elsewhere = List.partition (fun (dst, _) -> dst = ctx.origin) controls in
    alone ctx elsewhere @ [ (ctx.origin, answer (P.back (List.map snd home))) ]

  let split det ~dst = P.work (D.on_send_work det ~dst)

  let group ctx det ~dst items =
    ctx.buffered <- ctx.buffered - List.length items;
    { Message.query = ctx.query; body = Hf_engine.Plan.program ctx.plan; items; credit = split det ~dst }

  let deposit ctx det ~src work = (alone ctx (D.on_recv_work det ~src (P.tag work)), false)
  let poll ctx det = (alone ctx (D.on_poll det), false)

  let rec recv ctx det ~src sends terminated = function
    | [] -> (sends, terminated)
    | c :: rest ->
      let controls, now = D.on_recv_control det ~src c in
      recv ctx det ~src (sends @ alone ctx controls) (terminated || now) rest

  (* The originator's results are in its answer already, and the
     bindings it emitted join them.  Elsewhere the cache fill goes
     first; it is credit-free, and a drop costs future hits, never
     correctness. *)
  let drain ?(payload = fun items -> Message.Items items) t ctx det =
    let controls, terminated = D.on_drain det in
    let bindings = Hashtbl.fold (fun target values acc -> (target, values) :: acc) ctx.bindings [] in
    Hashtbl.reset ctx.bindings;
    if t.id = ctx.origin then begin
      merge_bindings ctx.final.bindings bindings;
      (alone ctx controls, terminated)
    end
    else begin
      let fill =
        match ctx.answers with
        | [] -> []
        | answers ->
          ctx.answers <- [];
          let version = ctx.answers_version and answers = List.rev answers in
          [ (ctx.origin, Message.Cache_answers { query = ctx.query; src = t.id; version; answers }) ]
      in
      let items = List.rev ctx.result_buffer in
      ctx.result_buffer <- [];
      let home =
        if items = [] && bindings = [] then alone ctx controls
        else
          aboard ctx controls (fun credit ->
              Message.Result { query = ctx.query; payload = payload items; bindings; credit })
      in
      (fill @ home, terminated)
    end

  let answer ctx det ~src ~stitch (m : msg) =
    match m with
    | Result { credit; _ } | Credit_return { credit; _ } ->
      recv ctx det ~src [] false (P.controls credit)
    | Gather_result { src = site; nodes; credit; _ } ->
      (* escaped chains split their shares here, before the gather's
         credit lands, so the detector cannot converge while they still
         owe work *)
      stitch ~src:site nodes;
      recv ctx det ~src [] false (P.controls credit)
    | _ -> ([], false)

  (* A site with classic work pending for the query keeps the scatter's
     share until that work drains; an idle one drains now, its controls
     for the originator riding the gather, so credit can never overtake
     the nodes it covers. *)
  let scatter_reply t ctx det ~src ~roots work =
    let acks, _ = deposit ctx det ~src work in
    let nodes = eval_domain t ctx ~roots in
    let controls, terminated = if ready ctx then D.on_drain det else ([], false) in
    let gather credit = Message.Gather_result { query = ctx.query; src = t.id; nodes; credit } in
    (acks @ aboard ctx controls gather, terminated)

  (* The receiver provably never processed the work (dedup would have
     acked it), so its pledge comes back without double-counting; the
     notice goes first, so it cannot arrive after the credit it
     explains. *)
  let unwind t ctx det ~dst work =
    let controls, terminated = D.on_send_failed det ~dst (P.tag work) in
    let notice =
      if t.id = ctx.origin then (note_unreachable ctx.final dst; [])
      else [ (ctx.origin, Message.Site_unreachable { query = ctx.query; dead = dst }) ]
    in
    (notice @ alone ctx controls, terminated)
end
