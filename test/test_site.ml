(* Tests for Hf_server.Site on its own — no simulator, no sockets: the
   cache control plane's learning rules, the work path (one step, cache
   routing, the release of items parked behind a validation, and the
   counters it keeps), result bookkeeping, the drain test, and the
   planner's inputs and scatter bookkeeping. *)

module Oid = Hf_data.Oid
module Store = Hf_data.Store
module Tuple = Hf_data.Tuple
module Site = Hf_server.Site
module Rc = Hf_index.Remote_cache
module Work_item = Hf_engine.Work_item

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Site 0, with the cache and the Bloofi tree on, at a frozen clock. *)
let origin () =
  Site.create ~id:0 ~store:(Store.create ~site:0)
    ~clock:(fun () -> 0.0)
    ~cache:(Some Rc.default) ~serve_hits:true ~bloofi:true
    ~bloofi_depth:(Hf_obs.Histogram.create ())

(* A peer store holding one object per keyword, and its summary. *)
let peer_store site keywords =
  let store = Store.create ~site in
  let oids =
    List.map
      (fun k ->
        let oid = Store.fresh_oid store in
        Store.insert store (Hf_data.Hobject.of_tuples oid [ Tuple.keyword k ]);
        oid)
      keywords
  in
  (oids, Rc.summary_of_store Rc.default store)

(* Store-state-only, so every item's verdict is cacheable; an item
   entering at filter 0 needs "cold" at its destination, one entering
   at filter 1 needs "hot". *)
let program = Hf_query.Parser.parse_program "(Keyword, \"cold\", ?) (Keyword, \"hot\", ?)"

let query = { Hf_proto.Message.originator = 0; serial = 1 }

let context ?(program = program) ?(n_sites = 2) () =
  Site.context ~metrics:(Hf_server.Metrics.create ~n_sites) ~n_sites ~query ~span:0 program

(* What the work path handed a driver, oldest first. *)
type handed = {
  mutable locals : Work_item.t list;
  mutable shipped : (int * Work_item.t) list;
  mutable verdicts : (int * Site.route) list;
}

let recorder () =
  let h = { locals = []; shipped = []; verdicts = [] } in
  ( h,
    {
      Site.local = (fun wi -> h.locals <- h.locals @ [ wi ]);
      ship = (fun dst wi -> h.shipped <- h.shipped @ [ (dst, wi) ]);
      verdict = (fun dst route -> h.verdicts <- h.verdicts @ [ (dst, route) ]);
    } )

(* The counters the work path keeps. *)
let check_counts msg expected (m : Hf_server.Metrics.t) =
  Alcotest.(check (list (pair string int)))
    msg expected
    [
      ("hits", m.cache_hits);
      ("misses", m.cache_misses);
      ("invalidations", m.cache_invalidations);
      ("prunes", m.cache_prunes);
      ("validations", m.cache_validations);
      ("fills", m.cache_fills);
      ("fallbacks", m.scatter_fallbacks);
    ]

let counts ?(hits = 0) ?(misses = 0) ?(invalidations = 0) ?(prunes = 0) ?(validations = 0)
    ?(fills = 0) ?(fallbacks = 0) () =
  [
    ("hits", hits);
    ("misses", misses);
    ("invalidations", invalidations);
    ("prunes", prunes);
    ("validations", validations);
    ("fills", fills);
    ("fallbacks", fallbacks);
  ]

let same_items = List.for_all2 Work_item.equal

(* The credit paths over a detector, its payloads as they are (the
   simulator's instance). *)
module Paths (D : Hf_termination.Detector.S) = Site.Termination (D) (Site.Identity (D))
module Weighted = Hf_termination.Weighted
module W = Paths (Weighted)

(* What [site] (id [self]) sends as [ctx]'s drain tail, holding no
   credit. *)
let drain_sends ~self site ctx =
  fst (W.drain site ctx (Weighted.create ~n_sites:3 ~origin:0 ~self))

let answer oid passed : Hf_proto.Message.cache_answer =
  { oid; start = 0; iters = [||]; passed }

let key ctx ~dst wi =
  Rc.entry_key ~dst ~plan:ctx.Site.plan ~start:(Work_item.start wi) ~iters:(Work_item.iters wi)
    ~oid:(Work_item.oid wi)

let leaf site peer =
  match Site.bloofi site with
  | Some tree -> Hf_index.Bloofi.mem tree ~site:peer
  | None -> Alcotest.fail "bloofi tree missing"

let cache_of site =
  match Site.cache site with Some c -> c | None -> Alcotest.fail "cache missing"

let lookup site ctx ~dst ~version oid =
  Rc.lookup (cache_of site) ~now:0.0 ~key:(key ctx ~dst (Work_item.initial ctx.Site.plan oid))
    ~version

let is_hit = function Rc.Hit _ -> true | Rc.Invalidated | Rc.Absent -> false

(* A summary as a Cache_version reply carries it. *)
let wire summary = Some (Hf_index.Bloom.to_string summary)

(* A Cache_version whose epoch is lower than the last one seen from
   that peer means its lineage restarted: its summary, Bloofi leaf and
   cached verdicts go; another peer's stay. *)
let test_epoch_regression () =
  let site = origin () in
  let ctx = context () in
  let oids1, summary1 = peer_store 1 [ "cold" ] in
  let oids2, summary2 = peer_store 2 [ "cold" ] in
  Site.learn site ~peer:1 ~version:3 ~epoch:2 (wire summary1);
  Site.learn site ~peer:2 ~version:5 ~epoch:1 (wire summary2);
  Site.fill site ctx ~src:1 ~version:3 [ answer (List.hd oids1) true ];
  Site.fill site ctx ~src:2 ~version:5 [ answer (List.hd oids2) true ];
  check_int "verdicts from both counted" 2 ctx.metrics.cache_fills;
  check_bool "leaf 1 installed" true (leaf site 1);
  (* peer 1 restarted: same version number, older epoch *)
  Site.learn site ~peer:1 ~version:3 ~epoch:1 None;
  check_bool "summary 1 dropped" true (Option.is_none (Site.learned site ~peer:1));
  check_bool "leaf 1 dropped" false (leaf site 1);
  check_bool "verdicts from 1 dropped" false
    (is_hit (lookup site ctx ~dst:1 ~version:3 (List.hd oids1)));
  check_bool "summary 2 kept" true
    (match Site.learned site ~peer:2 with
     | Some (5, s) -> Hf_index.Bloom.equal s summary2
     | Some _ | None -> false);
  check_bool "leaf 2 kept" true (leaf site 2);
  check_bool "verdicts from 2 kept" true
    (is_hit (lookup site ctx ~dst:2 ~version:5 (List.hd oids2)))

(* No summary aboard means "you already hold this version's": at the
   version we hold that is a no-op, at a new one our summary is stale
   and must never prune again. *)
let test_told_at_new_version () =
  let site = origin () in
  let _, summary = peer_store 1 [ "cold" ] in
  Site.learn site ~peer:1 ~version:3 ~epoch:1 (wire summary);
  Site.learn site ~peer:1 ~version:3 ~epoch:1 None;
  check_bool "same version: kept" true (Option.is_some (Site.learned site ~peer:1));
  check_bool "same version: leaf kept" true (leaf site 1);
  Site.learn site ~peer:1 ~version:4 ~epoch:1 None;
  check_bool "new version: stale summary dropped" true (Option.is_none (Site.learned site ~peer:1));
  check_bool "new version: leaf dropped" false (leaf site 1);
  (* a summary that does not decode teaches nothing *)
  Site.learn site ~peer:1 ~version:5 ~epoch:1 (wire summary);
  Site.learn site ~peer:1 ~version:6 ~epoch:1 (Some "garbled");
  check_bool "garbled: previous summary kept" true (Option.is_some (Site.learned site ~peer:1))

let route_name = function
  | Site.Ship -> "ship"
  | Site.Pruned -> "pruned"
  | Site.Hit passed -> Printf.sprintf "hit %b" passed
  | Site.Miss { invalidated } -> Printf.sprintf "miss invalidated=%b" invalidated
  | Site.Parked -> "parked"
  | Site.Validate -> "validate"
  | Site.Dangling -> "dangling"

(* The verdicts [h] saw since the last call, by name. *)
let verdicts h =
  let names = List.map (fun (_, route) -> route_name route) h.verdicts in
  h.verdicts <- [];
  names

let check_names = Alcotest.(check (list string))

(* Items bound for a destination whose version is not known yet park
   behind one validation; its reply releases them in arrival order, and
   each gets the verdict the summary and the answer cache give for the
   same key, counted once. *)
let test_parked_release () =
  let site = origin () in
  let ctx = context () in
  let version = 7 in
  (* peer 1 holds "cold" objects but nothing "hot" *)
  let oids, summary = peer_store 1 [ "cold"; "cold"; "cold"; "cold" ] in
  let hit, miss, stale, dead =
    match oids with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  Site.fill site ctx ~src:1 ~version [ answer hit true ];
  Site.fill site ctx ~src:1 ~version:(version - 1) [ answer stale false ];
  let items =
    [
      Work_item.initial ctx.plan hit;
      Work_item.initial ctx.plan miss;
      Work_item.initial ctx.plan stale;
      Work_item.make ~oid:dead ~start:1 ~iters:[||];
    ]
  in
  (* What the summary and a twin cache say for each key. *)
  let twin = Rc.create Rc.default in
  Rc.put twin ~now:0.0 ~key:(key ctx ~dst:1 (List.nth items 0)) ~version ~passed:true;
  Rc.put twin ~now:0.0 ~key:(key ctx ~dst:1 (List.nth items 2)) ~version:(version - 1)
    ~passed:false;
  let expected =
    List.map
      (fun wi ->
        let probes =
          Rc.prune_probes ctx.plan ~start:(Work_item.start wi) ~iters:(Work_item.iters wi)
        in
        if probes <> [] && Rc.summary_misses summary probes then Site.Pruned
        else
          match Rc.lookup twin ~now:0.0 ~key:(key ctx ~dst:1 wi) ~version with
          | Rc.Hit passed -> Site.Hit passed
          | Rc.Invalidated -> Site.Miss { invalidated = true }
          | Rc.Absent -> Site.Miss { invalidated = false })
      items
  in
  check_names "the expectation covers prune, hit and both misses"
    [ "hit true"; "miss invalidated=false"; "miss invalidated=true"; "pruned" ]
    (List.map route_name expected);
  let h, sink = recorder () in
  Site.dispatch site ctx sink items;
  check_names "first item validates, the rest wait" [ "validate"; "parked"; "parked"; "parked" ]
    (verdicts h);
  check_int "parked" 4 ctx.parked_count;
  Site.dispatch site ctx sink [ Work_item.initial ctx.plan (Oid.make ~birth_site:9 ~serial:1) ];
  check_names "a destination outside the cluster dangles, unparked" [ "dangling" ] (verdicts h);
  check_int "still parked" 4 ctx.parked_count;
  check_bool "not ready while parked" false (Site.ready ctx);
  check_bool "nothing shipped yet" true (h.shipped = []);
  (* the Cache_version reply *)
  Site.learn site ~peer:1 ~version ~epoch:1 (wire summary);
  check_int "all released" 4 (Site.unpark site ctx sink ~dst:1 ~version:(Some version));
  check_names "verdicts in arrival order match the summary and the cache"
    (List.map route_name expected) (verdicts h);
  check_bool "the misses ship, in order" true
    (List.for_all2
       (fun (dst, wi) wj -> dst = 1 && Work_item.equal wi wj)
       h.shipped [ List.nth items 1; List.nth items 2 ]);
  check_int "what ships is buffered" 2 ctx.buffered;
  check_int "nothing parked" 0 ctx.parked_count;
  check_bool "the hit's result is recorded" true (Oid.Set.mem hit ctx.final.set);
  check_counts "each verdict counted once"
    (counts ~hits:1 ~misses:2 ~invalidations:1 ~prunes:1 ~validations:1 ~fills:2 ())
    ctx.metrics;
  Site.dispatch site ctx sink [ Work_item.initial ctx.plan miss ];
  check_names "the destination stays vouched for" [ "miss invalidated=false" ] (verdicts h)

(* A validation that died releases every parked item to ship plainly. *)
let test_release_without_version () =
  let site = origin () in
  let ctx = context () in
  let oids, _ = peer_store 1 [ "cold"; "cold" ] in
  let items = List.map (Work_item.initial ctx.plan) oids in
  let h, sink = recorder () in
  Site.dispatch site ctx sink items;
  ignore (verdicts h);
  check_int "released" 2 (Site.unpark site ctx sink ~dst:1 ~version:None);
  check_names "all ship" [ "ship"; "ship" ] (verdicts h);
  check_bool "in arrival order" true (same_items items (List.map snd h.shipped));
  check_int "nothing parked" 0 ctx.parked_count;
  Site.dispatch site ctx sink [ List.hd items ];
  check_names "the next item validates again" [ "validate" ] (verdicts h);
  check_counts "one validation each time" (counts ~validations:2 ()) ctx.metrics

(* The summary probes an item entering a one-filter keyword program
   makes. *)
let needs keyword =
  let program = Hf_query.Parser.parse_program (Printf.sprintf "(Keyword, %S, ?)" keyword) in
  Rc.prune_probes (Hf_engine.Plan.make program) ~start:0 ~iters:[||]

(* A prune needs the summary of the version the destination vouched
   for: one learned at another version proves nothing. *)
let test_prune_needs_validated_version () =
  let site = origin () in
  let oids, summary = peer_store 1 [ "cold" ] in
  Site.learn site ~peer:1 ~version:3 ~epoch:1 (wire summary);
  (* entering at filter 1 needs "hot", which peer 1's summary rules out *)
  let item = Work_item.make ~oid:(List.hd oids) ~start:1 ~iters:[||] in
  let routed ~version =
    let ctx = context () in
    let h, sink = recorder () in
    Site.dispatch site ctx sink [ item ];
    ignore (verdicts h);
    ignore (Site.unpark site ctx sink ~dst:1 ~version:(Some version));
    verdicts h
  in
  check_names "vouched at the learned version" [ "pruned" ] (routed ~version:3);
  check_names "vouched at another version" [ "miss invalidated=false" ] (routed ~version:4)

(* With the cache off every item ships at once and the control plane
   is silent. *)
let test_cache_off () =
  let store = Store.create ~site:0 in
  let site =
    Site.create ~id:0 ~store ~clock:(fun () -> 0.0) ~cache:None
      ~serve_hits:true ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let ctx = context () in
  let oids, _ = peer_store 1 [ "cold" ] in
  let wi = Work_item.initial ctx.plan (List.hd oids) in
  let h, sink = recorder () in
  Site.dispatch site ctx sink [ wi ];
  check_names "route" [ "ship" ] (verdicts h);
  check_bool "handed to the batcher" true (same_items [ wi ] (List.map snd h.shipped));
  check_int "and counted as buffered" 1 ctx.buffered;
  check_int "nothing parked" 0 ctx.parked_count;
  Site.fill site ctx ~src:1 ~version:1 [ answer (List.hd oids) true ];
  check_counts "nothing counted" (counts ()) ctx.metrics;
  let version, bloom = Site.validate_reply site ~peer:1 in
  check_int "version-only reply" (Store.version store) version;
  check_bool "no summary aboard" true (Option.is_none bloom);
  check_int "epoch" 0 (Site.epoch site);
  check_bool "no own summary" true (Option.is_none (Site.summary site));
  check_bool "no tree" true (Option.is_none (Site.bloofi site));
  check_bool "no descent" true (Option.is_none (Site.descend site [ needs "cold" ]))

(* A driver that may not serve hits (the simulator's distributed-set
   modes) ships a cached item anyway, and records no result for it. *)
let test_hits_not_served () =
  let store = Store.create ~site:0 in
  let site =
    Site.create ~id:0 ~store ~clock:(fun () -> 0.0)
      ~cache:(Some Rc.default) ~serve_hits:false ~bloofi:false
      ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let ctx = context () in
  let oids, summary = peer_store 1 [ "cold"; "cold" ] in
  let cached, other = match oids with [ a; b ] -> (a, b) | _ -> assert false in
  Site.fill site ctx ~src:1 ~version:2 [ answer cached true ];
  Site.learn site ~peer:1 ~version:2 ~epoch:1 (wire summary);
  let items = List.map (Work_item.initial ctx.plan) [ cached; other ] in
  let h, sink = recorder () in
  Site.dispatch site ctx sink items;
  ignore (verdicts h);
  ignore (Site.unpark site ctx sink ~dst:1 ~version:(Some 2));
  check_names "the hit ships, the miss misses" [ "ship"; "miss invalidated=false" ] (verdicts h);
  check_bool "no result recorded" true (Oid.Set.is_empty ctx.final.set);
  check_counts "no hit counted" (counts ~misses:1 ~validations:1 ~fills:1 ()) ctx.metrics

(* A validation reply carries this store's summary once per peer and
   version; only a rebuild advances the epoch. *)
let test_validate_reply () =
  let store = Store.create ~site:0 in
  ignore (Store.create_object store [ Tuple.keyword "cold" ]);
  let site =
    Site.create ~id:0 ~store ~clock:(fun () -> 0.0)
      ~cache:(Some Rc.default) ~serve_hits:true ~bloofi:false
      ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let v1 = Store.version store in
  let reply peer =
    let version, bloom = Site.validate_reply site ~peer in
    (version, Option.is_some bloom)
  in
  let pair = Alcotest.(pair int bool) in
  Alcotest.check pair "first ask: summary aboard" (v1, true) (reply 1);
  check_int "first build" 1 (Site.epoch site);
  Alcotest.check pair "repeat ask: version only" (v1, false) (reply 1);
  Alcotest.check pair "another peer: summary aboard" (v1, true) (reply 2);
  check_int "no rebuild for another peer" 1 (Site.epoch site);
  check_bool "the reply's summary is the memo" true
    (match (Site.validate_reply site ~peer:3, Site.summary site) with
     | (_, Some sent), Some own -> String.equal sent (Hf_index.Bloom.to_string own)
     | _ -> false);
  ignore (Store.create_object store [ Tuple.keyword "hot" ]);
  let v2 = Store.version store in
  check_bool "the store moved" true (v2 <> v1);
  Alcotest.check pair "new version: summary aboard again" (v2, true) (reply 1);
  check_int "rebuilt" 2 (Site.epoch site);
  check_bool "the new summary holds the new keyword" true
    (match Site.summary site with
     | Some own -> not (Rc.summary_misses own (needs "hot"))
     | None -> false);
  check_int "reading the summary does not advance the epoch" 2 (Site.epoch site)

(* Site [id] over a store holding [n] "hot" objects, and their oids. *)
let hot_site ?cache id n =
  let store = Store.create ~site:id in
  let oids =
    List.init n (fun _ -> Hf_data.Hobject.oid (Store.create_object store [ Tuple.keyword "hot" ]))
  in
  ( Site.create ~id ~store ~clock:(fun () -> 0.0) ~cache ~serve_hits:true ~bloofi:false
      ~bloofi_depth:(Hf_obs.Histogram.create ()),
    oids )

let hot = Hf_query.Parser.parse_program "(Keyword, \"hot\", ?)"

let steps site ctx oids =
  let _, sink = recorder () in
  List.iter
    (fun oid -> ignore (Site.step site ctx sink ~record:true (Work_item.initial ctx.Site.plan oid)))
    oids

(* At the originator a passing object goes straight into the answer,
   once. *)
let test_results_at_origin () =
  let site, oids = hot_site 0 2 in
  let ctx = context ~program:hot () in
  let a, b = match oids with [ a; b ] -> (a, b) | _ -> assert false in
  steps site ctx [ a; b; a ];
  check_int "answer" 2 (List.length ctx.final.results);
  check_bool "newest first" true (List.for_all2 Oid.equal [ b; a ] ctx.final.results);
  check_int "local set" 2 (Oid.Set.cardinal ctx.local_result_set);
  check_bool "nothing buffered" true (ctx.result_buffer = []);
  check_bool "nothing to ship home" true (drain_sends ~self:0 site ctx = [])

(* An object answered twice — here by cached verdicts for two entry
   points — joins the answer once. *)
let test_result_once () =
  let site = origin () in
  let ctx = context () in
  let x = List.hd (fst (peer_store 1 [ "cold" ])) in
  let at start = Work_item.make ~oid:x ~start ~iters:[||] in
  Site.fill site ctx ~src:1 ~version:7
    (List.map
       (fun start -> { Hf_proto.Message.oid = x; start; iters = [||]; passed = true })
       [ 0; 1 ]);
  let _, sink = recorder () in
  Site.dispatch site ctx sink [ at 0; at 1 ];
  ignore (Site.unpark site ctx sink ~dst:1 ~version:(Some 7));
  check_int "two hits" 2 ctx.metrics.cache_hits;
  check_bool "one result" true (List.length ctx.final.results = 1 && Oid.Set.mem x ctx.final.set)

(* Away from the originator results and bindings wait in the buffer
   until the drain tail ships them, oldest first. *)
let test_results_away () =
  let site, oids = hot_site 1 2 in
  let ctx = context ~program:hot () in
  let a, b = match oids with [ a; b ] -> (a, b) | _ -> assert false in
  steps site ctx [ a; b; a ];
  Hashtbl.replace ctx.bindings "title" [ Hf_data.Value.Str "x" ];
  (match drain_sends ~self:1 site ctx with
   | [ (0, Hf_proto.Message.Result { payload = Items results; bindings; _ }) ] ->
     check_bool "oldest first, once each" true
       (List.length results = 2 && List.for_all2 Oid.equal [ a; b ] results);
     check_bool "bindings taken" true (bindings = [ ("title", [ Hf_data.Value.Str "x" ]) ])
   | _ -> Alcotest.fail "expected one Result for the originator");
  check_bool "the answer is the originator's" true (Oid.Set.is_empty ctx.final.set);
  check_bool "emptied" true (drain_sends ~self:1 site ctx = []);
  steps site ctx [ a ];
  check_bool "a repeat stays out of the buffer" true (drain_sends ~self:1 site ctx = [])

(* Bindings append per target, both as results arrive at the
   originator and when its drain publishes what it emitted itself. *)
let test_bindings () =
  let v s = Hf_data.Value.Str s in
  let ctx = context () in
  let result bindings =
    Hf_proto.Message.Result { query = ctx.query; payload = Items []; bindings; credit = [] }
  in
  Site.join ctx.final (result [ ("t", [ v "a" ]); ("u", [ v "b" ]) ]);
  Site.join ctx.final (result [ ("t", [ v "c"; v "d" ]) ]);
  check_bool "t appended" true (Hashtbl.find ctx.final.bindings "t" = [ v "a"; v "c"; v "d" ]);
  check_bool "u kept" true (Hashtbl.find ctx.final.bindings "u" = [ v "b" ]);
  Hashtbl.replace ctx.bindings "t" [ v "e" ];
  ignore (W.drain (origin ()) ctx (Weighted.create ~n_sites:2 ~origin:0 ~self:0));
  check_bool "published after what the answer held" true
    (Hashtbl.find ctx.final.bindings "t" = [ v "a"; v "c"; v "d"; v "e" ]);
  check_int "emitted bindings moved" 0 (Hashtbl.length ctx.bindings)

(* One step runs the object against this site's store: a passing
   retrieve emits into the context, a dereference spawns — a spawn for
   this store goes to the driver as it is, one for another site is
   routed, unless a mark table shared across sites already holds it —
   and the mark table suppresses a second entry. *)
let test_step () =
  let store = Store.create ~site:0 in
  let target = Oid.make ~birth_site:1 ~serial:7 in
  let local = Oid.make ~birth_site:0 ~serial:99 in
  let obj =
    Store.create_object store
      [ Tuple.string_ ~key:"Title" "x"; Tuple.pointer ~key:"R" target; Tuple.pointer ~key:"R" local ]
  in
  let site =
    Site.create ~id:0 ~store ~clock:(fun () -> 0.0) ~cache:None
      ~serve_hits:true ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let program = Hf_query.Parser.parse_program "(String, \"Title\", ->title) (Pointer, \"R\", ?X) ^^X" in
  let ctx = context ~program () in
  let wi = Work_item.initial ctx.plan (Hf_data.Hobject.oid obj) in
  let h, sink = recorder () in
  let first = Site.step site ctx sink ~record:true wi in
  check_bool "passed" true first.passed;
  check_bool "not skipped" false first.skipped;
  check_bool "in the answer" true (Oid.Set.mem (Hf_data.Hobject.oid obj) ctx.final.set);
  check_bool "emitted" true
    (Hashtbl.find_opt ctx.bindings "title" = Some [ Hf_data.Value.Str "x" ]);
  let serials l = List.map (fun w -> Oid.serial (Work_item.oid w)) l in
  Alcotest.(check (list int))
    "spawned both targets" [ 7; 99 ]
    (List.sort Int.compare (serials first.spawned));
  Alcotest.(check (list int)) "the local one is handed over" [ 99 ] (serials h.locals);
  check_bool "the remote one ships to its birth site" true
    (List.map fst h.shipped = [ 1 ] && serials (List.map snd h.shipped) = [ 7 ]);
  check_names "one verdict" [ "ship" ] (verdicts h);
  check_int "processed" 1 ctx.stats.objects_processed;
  let again = Site.step site ctx sink ~record:true wi in
  check_bool "second entry suppressed" true again.skipped;
  check_bool "nothing spawned" true (again.spawned = []);
  check_int "nothing more shipped" 1 (List.length h.shipped);
  (* a shared table that marked the remote spawn already *)
  let marks = Hf_engine.Mark_table.create () in
  let spawn = List.hd first.spawned in
  Hf_engine.Mark_table.add marks target (Work_item.start spawn) ~iters:(Work_item.iters spawn);
  let shared =
    Site.context ~marks ~metrics:(Hf_server.Metrics.create ~n_sites:2) ~n_sites:2 ~query ~span:0
      program
  in
  let h, sink = recorder () in
  ignore (Site.step site shared sink ~record:true wi);
  check_bool "a marked remote spawn is not sent" true (h.shipped = [] && h.verdicts = []);
  Alcotest.(check (list int)) "the local one still is" [ 99 ] (serials h.locals)

(* The step counts each routing verdict of its spawns once, in the
   record of the context it runs in: validation, parking and dangling
   as they are routed, and prune, hit and both misses as the parked
   items are released. *)
let test_step_counts () =
  let oids1, summary1 = peer_store 1 [ "hot"; "hot"; "hot" ] in
  let oids2, summary2 = peer_store 2 [ "cold" ] in
  let hit, miss, stale = match oids1 with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let pruned = List.hd oids2 in
  let far = Oid.make ~birth_site:9 ~serial:1 in
  let store = Store.create ~site:0 in
  let obj =
    Store.create_object store
      (List.map (Tuple.pointer ~key:"R") [ hit; miss; stale; pruned; far ])
  in
  let site =
    Site.create ~id:0 ~store ~clock:(fun () -> 0.0) ~cache:(Some Rc.default) ~serve_hits:true
      ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let program = Hf_query.Parser.parse_program "(Pointer, \"R\", ?X) ^^X (Keyword, \"hot\", ?)" in
  let ctx = context ~program ~n_sites:3 () in
  let other = context ~program ~n_sites:3 () in
  let h, sink = recorder () in
  let r = Site.step site ctx sink ~record:true (Work_item.initial ctx.plan (Hf_data.Hobject.oid obj)) in
  check_int "five spawns" 5 (List.length r.spawned);
  (* in the object's tuple order: the first item for each destination
     validates, the rest park, and site 9 is outside the cluster *)
  let dsts = List.map (fun w -> Oid.birth_site (Work_item.oid w)) r.spawned in
  check_names "routed as they came"
    (List.mapi
       (fun i dst ->
         if dst = 9 then "dangling"
         else if List.mem dst (List.filteri (fun j _ -> j < i) dsts) then "parked"
         else "validate")
       dsts)
    (verdicts h);
  check_counts "validations counted" (counts ~validations:2 ()) ctx.metrics;
  (* verdicts [1] computed at version 7: one current, one older *)
  let entry = Work_item.start (List.hd r.spawned) in
  let verdict oid passed = { Hf_proto.Message.oid; start = entry; iters = [||]; passed } in
  Site.fill site ctx ~src:1 ~version:7 [ verdict hit true ];
  Site.fill site ctx ~src:1 ~version:6 [ verdict stale true ];
  Site.learn site ~peer:1 ~version:7 ~epoch:1 (wire summary1);
  Site.learn site ~peer:2 ~version:3 ~epoch:1 (wire summary2);
  check_int "three released at 1" 3 (Site.unpark site ctx sink ~dst:1 ~version:(Some 7));
  check_int "one released at 2" 1 (Site.unpark site ctx sink ~dst:2 ~version:(Some 3));
  let released oid =
    if Oid.equal oid hit then "hit true"
    else if Oid.equal oid miss then "miss invalidated=false"
    else "miss invalidated=true"
  in
  check_names "released verdicts, in arrival order"
    (List.filter_map
       (fun w ->
         let oid = Work_item.oid w in
         if Oid.birth_site oid = 1 then Some (released oid) else None)
       r.spawned
    @ [ "pruned" ])
    (verdicts h);
  check_counts "each verdict counted once"
    (counts ~hits:1 ~misses:2 ~invalidations:1 ~prunes:1 ~validations:2 ~fills:2 ())
    ctx.metrics;
  check_int "the misses are buffered" 2 ctx.buffered;
  check_counts "another context's record is untouched" (counts ()) other.metrics

(* A site away from the originator keeps the cacheable verdicts of the
   items it ran for real, for one store version, and ships them home
   once. *)
let test_record_answers () =
  let store = Store.create ~site:1 in
  let site =
    Site.create ~id:1 ~store ~clock:(fun () -> 0.0)
      ~cache:(Some Rc.default) ~serve_hits:true ~bloofi:false
      ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let a = Hf_data.Hobject.oid (Store.create_object store [ Tuple.keyword "cold"; Tuple.keyword "hot" ]) in
  let b = Hf_data.Hobject.oid (Store.create_object store [ Tuple.keyword "hot" ]) in
  let _, sink = recorder () in
  let step ?(record = true) ctx oid =
    ignore (Site.step site ctx sink ~record (Work_item.initial ctx.Site.plan oid))
  in
  (* the cache fill the drain tail sends home *)
  let fill ctx =
    match drain_sends ~self:1 site ctx with
    | (0, Hf_proto.Message.Cache_answers { version; answers; _ }) :: _ -> Some (version, answers)
    | _ -> None
  in
  let ctx = context () in
  step ctx a;
  step ctx b;
  step ctx a;
  check_bool "capture order at the store's version, the skipped entry left out" true
    (match fill ctx with
     | Some (v, [ x; y ]) ->
       v = Store.version store && Oid.equal x.oid a && x.passed && Oid.equal y.oid b
       && not y.passed
     | Some _ | None -> false);
  check_bool "emptied" true (Option.is_none (fill ctx));
  let ctx = context () in
  step ctx a;
  ignore (Store.create_object store [ Tuple.keyword "warm" ]);
  step ctx b;
  check_bool "a store change drops the older verdicts" true
    (match fill ctx with
     | Some (v, [ y ]) -> v = Store.version store && Oid.equal y.oid b
     | Some _ | None -> false);
  let ctx = context () in
  step ~record:false ctx a;
  check_bool "nothing recorded unasked" true (ctx.answers = []);
  (* the originator computes its own verdicts; nothing to send home *)
  let home = origin () in
  let ctx = context () in
  ignore (Site.step home ctx sink ~record:true (Work_item.initial ctx.plan a));
  check_bool "nothing recorded at the originator" true (ctx.answers = [])

(* The drain test waits for queued, active, buffered and parked work
   and for every scattered site's gather. *)
let test_ready () =
  let site = origin () in
  let ctx : int Site.ctx = context () in
  check_bool "fresh" true (Site.ready ctx);
  Hf_util.Deque.push_back ctx.work 1;
  check_bool "queued work" false (Site.ready ctx);
  ignore (Hf_util.Deque.pop_front ctx.work);
  ctx.active <- 1;
  check_bool "active work" false (Site.ready ctx);
  ctx.active <- 0;
  ctx.buffered <- 1;
  check_bool "buffered items" false (Site.ready ctx);
  ctx.buffered <- 0;
  let oids, _ = peer_store 1 [ "cold" ] in
  let _, sink = recorder () in
  Site.dispatch site ctx sink [ Work_item.initial ctx.plan (List.hd oids) ];
  check_bool "parked items" false (Site.ready ctx);
  Site.drop_parked ctx;
  check_bool "parked items dropped" true (Site.ready ctx);
  ignore (Site.scatter_seed site ctx ~sites:[ 1 ] []);
  check_bool "gathers outstanding" false (Site.ready ctx);
  ignore (Site.stitch site ctx sink ~site:0 []);
  check_bool "one gather outstanding" false (Site.ready ctx);
  Site.gather_lost ctx ~site:1;
  check_bool "the lost site's slot closed" true (Site.ready ctx)

let decision ~eligible ~predicted ~chosen : Hf_query.Plan.decision =
  let estimate = { Hf_query.Plan.rounds = 1; bytes = 1; latency = 1.0 } in
  {
    eligible;
    reason = None;
    predicted;
    remainder = [];
    index = None;
    ship = estimate;
    scatter = estimate;
    chosen;
  }

(* Scatter or ship: the planner runs unless the mode is ship, and a
   query scatters only when the engine allows it, the program is
   eligible and some site is predicted. *)
let test_select () =
  let ran = ref 0 in
  let sites (_, s) = s in
  let ctx = context () in
  let select exec ~scatter_ok d =
    Site.select ctx exec ~scatter_ok (fun () ->
        incr ran;
        d)
  in
  let scatter = decision ~eligible:true ~predicted:[ 1; 2 ] ~chosen:Hf_query.Plan.Scatter in
  let ship = decision ~eligible:true ~predicted:[ 1; 2 ] ~chosen:Hf_query.Plan.Ship in
  let expect = Alcotest.(check (option (list int))) in
  check_bool "ship: no decision" true
    (Option.is_none (fst (select Site.Exec_ship ~scatter_ok:true scatter)));
  check_int "ship: the planner never runs" 0 !ran;
  expect "scatter forces scatter" (Some [ 1; 2 ])
    (sites (select Site.Exec_scatter ~scatter_ok:true ship));
  expect "auto follows the planner to scatter" (Some [ 1; 2 ])
    (sites (select Site.Exec_auto ~scatter_ok:true scatter));
  expect "auto follows the planner to ship" None
    (sites (select Site.Exec_auto ~scatter_ok:true ship));
  expect "the engine forbids scatter" None
    (sites (select Site.Exec_scatter ~scatter_ok:false scatter));
  expect "ineligible program" None
    (sites
       (select Site.Exec_scatter ~scatter_ok:true
          (decision ~eligible:false ~predicted:[ 1 ] ~chosen:Hf_query.Plan.Scatter)));
  expect "no site predicted" None
    (sites
       (select Site.Exec_scatter ~scatter_ok:true
          (decision ~eligible:true ~predicted:[] ~chosen:Hf_query.Plan.Scatter)));
  check_bool "the decision is returned" true
    (match select Site.Exec_auto ~scatter_ok:true ship with
     | Some d, _ -> d == ship
     | None, _ -> false);
  check_int "the planner ran once per non-ship call" 7 !ran;
  check_int "choices to scatter counted" 2 ctx.metrics.planner_scatter;
  check_int "choices to ship counted" 5 ctx.metrics.planner_ship

(* The Bloofi leaves follow the summaries the driver vouches for, and
   a descent answers for indexed sites only. *)
let test_bloofi_sync () =
  let site = origin () in
  let _, cold = peer_store 1 [ "cold" ] in
  let _, warm = peer_store 2 [ "warm" ] in
  let _, own = peer_store 0 [ "cold" ] in
  let summaries = Hashtbl.create 4 in
  List.iter (fun (s, b) -> Hashtbl.replace summaries s b) [ (0, own); (1, cold); (2, warm) ];
  let sync () = Site.sync_bloofi site ~n_sites:4 ~summary:(Hashtbl.find_opt summaries) in
  check_bool "empty tree: no descent" true (Option.is_none (Site.descend site [ needs "cold" ]));
  sync ();
  Alcotest.(check (list bool))
    "peers with a summary are indexed, this site never" [ false; true; true; false ]
    (List.map (leaf site) [ 0; 1; 2; 3 ]);
  (match Site.descend site [ needs "cold" ] with
   | None -> Alcotest.fail "expected a descent"
   | Some d ->
     Alcotest.(check (list (option bool)))
       "verdicts" [ Some true; Some false; None ]
       (List.map (fun s -> Site.may_match d ~site:s) [ 1; 2; 3 ]));
  Hashtbl.remove summaries 2;
  sync ();
  check_bool "a withdrawn summary loses its leaf" false (leaf site 2);
  check_bool "the other leaf stays" true (leaf site 1);
  let _, hot = peer_store 1 [ "hot" ] in
  Hashtbl.replace summaries 1 hot;
  sync ();
  match Site.descend site [ needs "cold" ] with
  | None -> Alcotest.fail "expected a descent"
  | Some d ->
    Alcotest.(check (option bool))
      "a changed summary replaces the leaf" (Some false) (Site.may_match d ~site:1)

(* The originator partitions the seeds over itself and the scattered
   sites; a seed stored elsewhere ships classically. *)
let test_scatter_seed () =
  let site = origin () in
  let ctx = context () in
  let oid s n = Oid.make ~birth_site:s ~serial:n in
  let seeds = [ oid 1 1; oid 0 1; oid 2 1; oid 1 2; oid 3 1 ] in
  let roots, stray = Site.scatter_seed site ctx ~sites:[ 1; 3 ] seeds in
  let serials l = List.map (fun o -> (Oid.birth_site o, Oid.serial o)) l in
  let expect = Alcotest.(check (list (pair int int))) in
  expect "the originator's roots" [ (0, 1) ] (serials (roots 0));
  expect "site 1's roots in seed order" [ (1, 1); (1, 2) ] (serials (roots 1));
  expect "site 3's roots" [ (3, 1) ] (serials (roots 3));
  expect "outside the set: no roots" [] (serials (roots 2));
  expect "stray seeds ship" [ (2, 1) ] (serials stray);
  match ctx.scatter with
  | None -> Alcotest.fail "no stitch installed"
  | Some stitch -> check_int "one gather per member" 3 (Hf_engine.Scatter.Stitch.outstanding stitch)

(* Gathers stitch into the originator's answer; a chain escaping the
   scattered sites is counted as a fallback and routed to ship. *)
let test_gather () =
  let store0 = Store.create ~site:0 and store1 = Store.create ~site:1 in
  let b = Hf_data.Hobject.oid (Store.create_object store1 [ Tuple.keyword "hot" ]) in
  let escaped = Oid.make ~birth_site:2 ~serial:1 in
  let a =
    Hf_data.Hobject.oid
      (Store.create_object store0 [ Tuple.pointer ~key:"R" b; Tuple.pointer ~key:"R" escaped ])
  in
  let make id store =
    Site.create ~id ~store ~clock:(fun () -> 0.0) ~cache:None
      ~serve_hits:true ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())
  in
  let site0 = make 0 store0 and site1 = make 1 store1 in
  let program = Hf_query.Parser.parse_program "(Pointer, \"R\", ?X) ^X (Keyword, \"hot\", ?)" in
  let ctx0 = context ~program ~n_sites:3 () in
  let roots, stray = Site.scatter_seed site0 ctx0 ~sites:[ 1 ] [ a ] in
  check_bool "no stray seed" true (stray = []);
  let h, sink = recorder () in
  let own = Site.stitch site0 ctx0 sink ~site:0 (Site.eval_domain site0 ctx0 ~roots:(roots 0)) in
  check_bool "no result before site 1 gathers" true (Oid.Set.is_empty ctx0.final.set);
  let ctx1 = context ~program ~n_sites:3 () in
  let remote = Site.stitch site0 ctx0 sink ~site:1 (Site.eval_domain site1 ctx1 ~roots:(roots 1)) in
  check_bool "site 1's object is the answer" true
    (Oid.Set.equal (Oid.Set.singleton b) ctx0.final.set);
  check_int "one chain escaped" 1 (own + remote);
  Alcotest.(check (list (pair int int)))
    "the escaped chain ships" [ (2, 1) ]
    (List.map (fun (dst, w) -> (dst, Oid.serial (Work_item.oid w))) h.shipped);
  check_counts "counted as a fallback" (counts ~fallbacks:1 ()) ctx0.metrics;
  check_bool "its batcher holds the drain" true (ctx0.buffered = 1 && not (Site.ready ctx0));
  ctx0.buffered <- 0;
  check_bool "drained once it ships" true (Site.ready ctx0)

(* --- the credit paths, over Weighted and Dijkstra–Scholten --- *)

(* [holds d]: detector instance [d] still holds credit (Weighted) or
   awaits acknowledgements (Dijkstra–Scholten). *)
module Credit_cases
    (D : Hf_termination.Detector.S) (K : sig
      val holds : D.t -> bool
    end) =
struct
  module C = Paths (D)
  module Message = Hf_proto.Message

  let site id =
    Site.create ~id ~store:(Store.create ~site:id)
      ~clock:(fun () -> 0.0)
      ~cache:None ~serve_hits:true ~bloofi:false ~bloofi_depth:(Hf_obs.Histogram.create ())

  let det self = D.create ~n_sites:3 ~origin:0 ~self

  (* One control aboard, as a drain hands home what it held. *)
  let one_control = function [ _ ] -> true | _ -> false

  (* Away from the originator, holding work from it. *)
  let away () =
    let origin = det 0 in
    D.on_seed origin;
    let d = det 1 in
    let ctx = context () in
    ignore (C.deposit ctx d ~src:0 (C.split origin ~dst:1));
    (site 1, ctx, d)

  let test_drain_tail () =
    let s, ctx, d = away () in
    (match C.drain s ctx d with
     | [ (0, Message.Credit_return { credit; _ }) ], false ->
       check_bool "away, no results: the controls alone" true (one_control credit)
     | _ -> Alcotest.fail "away, no results: expected one Credit_return home");
    check_bool "away: nothing held after the drain" false (K.holds d);
    let s, ctx, d = away () in
    ctx.result_buffer <- [ Oid.make ~birth_site:1 ~serial:1 ];
    (match C.drain s ctx d with
     | [ (0, Message.Result { payload = Items [ _ ]; credit; _ }) ], false ->
       check_bool "away, results: the controls aboard" true (one_control credit)
     | _ -> Alcotest.fail "away, results: expected one Result home");
    let o = det 0 and ctx = context () in
    D.on_seed o;
    Hashtbl.replace ctx.bindings "t" [ Hf_data.Value.Str "x" ];
    check_bool "at the originator: nothing sent, termination known" true
      (C.drain (site 0) ctx o = ([], true));
    check_bool "its bindings join the answer" true (Hashtbl.mem ctx.final.bindings "t")

  (* An answer reaching [ctx], taken as both engines take it. *)
  let deliver ctx d ~src m =
    Site.join ctx.Site.final m;
    C.answer ctx d ~src ~stitch:(fun ~src:_ _ -> ()) m

  (* Deliver [out]'s answers to the originator, in order; the
     termination verdicts seen there. *)
  let settle ~origin:(o, octx) out =
    List.concat_map
      (fun (dst, m) ->
        check_int "answers go to the originator" 0 dst;
        [ snd (deliver octx o ~src:1 m) ])
      (fst out)
    @ [ snd out ]

  let test_unwind () =
    (* a Deref_request or a Work_batch group from site 1 to site 2 *)
    let o = det 0 and octx = context () in
    D.on_seed o;
    let d1 = det 1 and ctx1 = context () in
    let acks = C.deposit ctx1 d1 ~src:0 (C.split o ~dst:1) in
    let share = C.split d1 ~dst:2 in
    let out = C.unwind (site 1) ctx1 d1 ~dst:2 share in
    (match fst out with
     | (0, Message.Site_unreachable { dead = 2; _ }) :: _ -> ()
     | _ -> Alcotest.fail "the notice goes first");
    let verdicts =
      settle ~origin:(o, octx) acks
      @ settle ~origin:(o, octx) out
      @ settle ~origin:(o, octx) (C.drain (site 1) ctx1 d1)
      @ [ snd (C.drain (site 0) octx o) ]
    in
    check_bool "partial: the notice reached the answer" true (octx.final.unreachable = [ 2 ]);
    check_int "termination known once" 1 (List.length (List.filter Fun.id verdicts));
    check_bool "site 1 holds nothing" false (K.holds d1);
    (* a Scatter from the originator: its slot in the stitch closes *)
    let o = det 0 and octx = context () in
    D.on_seed o;
    ignore (Site.scatter_seed (site 0) octx ~sites:[ 1 ] []);
    let share = C.split o ~dst:1 in
    ignore (Site.stitch (site 0) octx (snd (recorder ())) ~site:0 []);
    check_bool "the scattered site's gather holds the drain" false (Site.ready octx);
    check_bool "noted at the originator, nothing sent" true
      (C.unwind (site 0) octx o ~dst:1 share = ([], false));
    Site.gather_lost octx ~site:1;
    check_bool "the slot closed" true (Site.ready octx);
    check_bool "the drain terminates" true (snd (C.drain (site 0) octx o));
    check_bool "partial" true (octx.final.unreachable = [ 1 ]);
    (* a Cache_validate: the items parked behind it are released to
       ship, their group's send fails too, and its share is unwound *)
    let s = origin () and ctx = context () and o = det 0 in
    D.on_seed o;
    let oids, _ = peer_store 1 [ "cold"; "hot" ] in
    let h, sink = recorder () in
    Site.dispatch s ctx sink (List.map (Work_item.initial ctx.plan) oids);
    check_bool "the parked items hold the drain" false (Site.ready ctx);
    ignore (Site.unpark s ctx sink ~dst:1 ~version:None);
    check_bool "released to ship" true (List.map fst h.shipped = [ 1; 1 ]);
    let group = C.group ctx o ~dst:1 (List.map snd h.shipped) in
    check_bool "one group for both, out of the batcher" true
      (List.length group.items = 2 && ctx.buffered = 0);
    check_bool "the group's share unwound, nothing sent" true
      (C.unwind s ctx o ~dst:1 group.credit = ([], false));
    check_bool "the drain terminates" true (snd (C.drain s ctx o));
    check_bool "partial" true (ctx.final.unreachable = [ 1 ])

  let test_scatter_reply () =
    let reply ~pending =
      let s = site 1 and ctx = context () and d = det 1 and o = det 0 in
      if pending then
        Hf_util.Deque.push_back ctx.work (Work_item.initial ctx.plan (Oid.make ~birth_site:1 ~serial:9));
      D.on_seed o;
      (s, ctx, d, C.scatter_reply s ctx d ~src:0 ~roots:[] (C.split o ~dst:1))
    in
    (match reply ~pending:false with
     | _, _, d, ([ (0, Message.Gather_result { credit; _ }) ], false) ->
       check_bool "ready: the controls ride the gather" true (one_control credit);
       check_bool "ready: nothing held" false (K.holds d)
     | _ -> Alcotest.fail "ready: expected one Gather_result");
    match reply ~pending:true with
    | s, ctx, d, ([ (0, Message.Gather_result { credit; _ }) ], false) ->
      check_bool "pending: the gather carries nothing" true (credit = []);
      ignore (Hf_util.Deque.pop_front ctx.work);
      (match C.drain s ctx d with
       | [ (0, Message.Credit_return { credit; _ }) ], false ->
         check_bool "pending: the share goes home with the drain" true (one_control credit)
       | _ -> Alcotest.fail "pending: expected the drain's Credit_return")
    | _ -> Alcotest.fail "pending: expected one Gather_result"

  (* Origin 0 sends work to sites 1 and 2, site 1 to site 2; each site
     drains; every answer and control is delivered in order. *)
  let test_exchange () =
    let sites = Array.init 3 site in
    let dets = Array.init 3 det in
    let ctxs = Array.init 3 (fun _ -> context ()) in
    let queue = Queue.create () in
    let verdicts = ref [] in
    let post ~src (sends, terminated) =
      if terminated then verdicts := src :: !verdicts;
      List.iter (fun (dst, m) -> Queue.push (src, dst, m) queue) sends
    in
    let work ~src ~dst = post ~src:dst (C.deposit ctxs.(dst) dets.(dst) ~src (C.split dets.(src) ~dst)) in
    D.on_seed dets.(0);
    work ~src:0 ~dst:1;
    work ~src:0 ~dst:2;
    post ~src:0 (C.drain sites.(0) ctxs.(0) dets.(0));
    work ~src:1 ~dst:2;
    post ~src:1 (C.drain sites.(1) ctxs.(1) dets.(1));
    post ~src:2 (C.drain sites.(2) ctxs.(2) dets.(2));
    while not (Queue.is_empty queue) do
      let src, dst, m = Queue.pop queue in
      post ~src:dst (deliver ctxs.(dst) dets.(dst) ~src m)
    done;
    Alcotest.(check (list int)) "the originator knows, once" [ 0 ] !verdicts;
    Array.iteri (fun i d -> check_bool (Fmt.str "site %d holds nothing" i) false (K.holds d)) dets

  let cases =
    [
      Alcotest.test_case (D.name ^ ": drain tail") `Quick test_drain_tail;
      Alcotest.test_case (D.name ^ ": unwinding") `Quick test_unwind;
      Alcotest.test_case (D.name ^ ": scatter reply") `Quick test_scatter_reply;
      Alcotest.test_case (D.name ^ ": an exchange over three sites") `Quick test_exchange;
    ]
end

module Weighted_cases =
  Credit_cases
    (Weighted)
    (struct
      let holds d = not (Hf_termination.Credit.is_zero (Weighted.held d))
    end)

module Ds = Hf_termination.Dijkstra_scholten

module Ds_cases =
  Credit_cases
    (Ds)
    (struct
      let holds d = Ds.deficit d > 0
    end)

let () =
  Alcotest.run "hf_site"
    [
      ( "cache control plane",
        [
          Alcotest.test_case "epoch regression drops one peer" `Quick test_epoch_regression;
          Alcotest.test_case "version-only reply at a new version" `Quick
            test_told_at_new_version;
        ] );
      ( "parking",
        [
          Alcotest.test_case "release in arrival order with cache verdicts" `Quick
            test_parked_release;
          Alcotest.test_case "release after a dead validation" `Quick
            test_release_without_version;
          Alcotest.test_case "prune needs the validated version" `Quick
            test_prune_needs_validated_version;
          Alcotest.test_case "cache off: everything ships" `Quick test_cache_off;
          Alcotest.test_case "hits not served: cached items ship" `Quick test_hits_not_served;
        ] );
      ( "validation reply",
        [ Alcotest.test_case "summary once per peer and version" `Quick test_validate_reply ] );
      ( "results",
        [
          Alcotest.test_case "at the originator" `Quick test_results_at_origin;
          Alcotest.test_case "a result joins the answer once" `Quick test_result_once;
          Alcotest.test_case "away from the originator" `Quick test_results_away;
          Alcotest.test_case "bindings append per target" `Quick test_bindings;
          Alcotest.test_case "one eval step" `Quick test_step;
          Alcotest.test_case "one step counts each verdict once" `Quick test_step_counts;
          Alcotest.test_case "cacheable verdicts for the originator" `Quick test_record_answers;
          Alcotest.test_case "drain test" `Quick test_ready;
        ] );
      ( "planning",
        [
          Alcotest.test_case "scatter or ship" `Quick test_select;
          Alcotest.test_case "bloofi leaves follow the summaries" `Quick test_bloofi_sync;
          Alcotest.test_case "seed partition" `Quick test_scatter_seed;
          Alcotest.test_case "gathers stitch the answer" `Quick test_gather;
        ] );
      ("credit paths", Weighted_cases.cases @ Ds_cases.cases);
    ]
