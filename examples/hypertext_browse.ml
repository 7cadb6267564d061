(* The "lost in hyperspace" problem (paper, Section 6): in a large
   hypermedia database, users cannot retrieve a document because they
   cannot manually construct the right browsing path to it.

   This example builds a web-like hypertext of 400 nodes over three
   sites, then contrasts:

   1. manual browsing — simulated as a random walk over links, counting
      how many node visits it takes to stumble on the target;
   2. a single HyperFile filter query that finds every matching node in
      the reachable graph at once, plus what it cost.

   It also shows the script runner, driving the session the way the
   paper's experimental client replayed query scripts.

   Run with:  dune exec examples/hypertext_browse.exe *)

module E = Hf_client.Embedded
module Tuple = Hf_data.Tuple

let n_nodes = 400

let build server prng =
  (* scale-free-ish hypertext: early nodes accumulate more in-links *)
  let nodes = ref [] in
  let all = Array.make n_nodes None in
  for i = 0 to n_nodes - 1 do
    let site = Hf_util.Prng.next_int prng 3 in
    let links =
      if i = 0 then []
      else
        List.init
          (1 + Hf_util.Prng.next_int prng 4)
          (fun _ ->
            let j = Hf_util.Prng.next_int prng i in
            Option.get all.(j))
    in
    let section =
      [| "intro"; "methods"; "results"; "appendix"; "errata" |].(Hf_util.Prng.next_int prng 5)
    in
    let oid =
      E.create_object server ~site
        ([ Tuple.string_ ~key:"Section" section;
           Tuple.number ~key:"Node" i;
           Tuple.keyword "filler";
         ]
        @ List.map (fun target -> Tuple.pointer ~key:"Link" target) links)
    in
    (* terminator self-link so leaf pages remain filterable in closures *)
    (if links = [] then
       let store = E.store server site in
       let obj = Option.get (Hf_data.Store.find store oid) in
       Hf_data.Store.replace store (Hf_data.Hobject.add obj (Tuple.pointer ~key:"Link" oid)));
    all.(i) <- Some oid;
    nodes := oid :: !nodes
  done;
  (Array.map Option.get all, List.rev !nodes)

(* Manual browsing: a random walk following links from the root until
   the predicate holds, as a (generous) model of a lost user clicking
   around. *)
let browse_until server prng ~root ~matches ~give_up =
  let visits = ref 0 in
  let current = ref root in
  let rec step () =
    incr visits;
    let store = E.store server (Hf_data.Oid.birth_site !current) in
    match Hf_data.Store.find store !current with
    | None -> None
    | Some obj ->
      if matches obj then Some !visits
      else if !visits >= give_up then None
      else begin
        let links =
          List.filter
            (fun l -> not (Hf_data.Oid.equal l !current))
            (Hf_data.Hobject.pointers_with_key obj ~key:"Link")
        in
        (match links with
         | [] -> current := root (* dead end: back to the home page *)
         | links ->
           current := List.nth links (Hf_util.Prng.next_int prng (List.length links)));
        step ()
      end
  in
  step ()

let () =
  let prng = Hf_util.Prng.create 7 in
  let server = E.create ~n_sites:3 () in
  let all, _ = build server prng in
  let root = all.(0) in
  (* links point backwards (node i links to earlier nodes), so browse
     and query from the newest node, which reaches the whole graph *)
  let entry = all.(n_nodes - 1) in
  E.define_set server "Home" [ entry ];

  (* Hide a 'treasure' keyword on a page deep inside the reachable part
     of the hypertext (so both browsing and querying can in principle
     find it). *)
  let reachable = E.query server "Home [ (Pointer, \"Link\", ?X) ^^X ]* (?, ?, ?)" in
  let target =
    List.nth reachable.E.oids (List.length reachable.E.oids / 2)
  in
  let tstore = E.store server (Hf_data.Oid.birth_site target) in
  Hf_data.Store.replace tstore
    (Hf_data.Hobject.add (Option.get (Hf_data.Store.find tstore target)) (Tuple.keyword "treasure"));

  Fmt.pr "== Browsing vs querying for the page tagged 'treasure' ==@.";
  let matches obj = List.mem "treasure" (Hf_data.Hobject.keywords obj) in
  (match browse_until server prng ~root:entry ~matches ~give_up:100_000 with
   | Some visits -> Fmt.pr "  random-walk browsing found it after %d node visits@." visits
   | None -> Fmt.pr "  random-walk browsing gave up after 100000 node visits@.");
  ignore root;

  let r = E.query server "Home [ (Pointer, \"Link\", ?X) ^^X ]* (Keyword, \"treasure\", ?)" in
  let s = r.E.outcome.Hf_server.Cluster.engine_stats in
  Fmt.pr "  one HyperFile query found %d page(s), examining each reachable page once:@."
    (List.length r.E.oids);
  Fmt.pr "    %d pages processed, %d duplicate arrivals skipped, %.3fs simulated@."
    s.Hf_engine.Stats.objects_processed s.Hf_engine.Stats.objects_skipped
    r.E.outcome.Hf_server.Cluster.response_time;

  Fmt.pr "@.== Structured browsing automation with a query script ==@.";
  let script =
    "; find all results sections near home, then hunt the treasure\n\
     Home [ (Pointer, \"Link\", ?X) ^^X ]^3 (String, \"Section\", \"results\") -> NearResults\n\
     Home [ (Pointer, \"Link\", ?X) ^^X ]* (Keyword, \"treasure\", ?) -> Gold\n\
     Gold (Number, \"Node\", ->where)\n"
  in
  let report = Hf_client.Script.run server script in
  Fmt.pr "%a@." Hf_client.Script.pp_report report
