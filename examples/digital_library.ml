(* Distributed digital library: two institutions plus an archive server
   transparently share papers that cite each other across sites — the
   paper's motivating deployment ("two geographically distant
   institutions may want to transparently share information").

   Shows: distributed query shipping with message metrics, the
   distributed-set (count-only) optimisation for low-selectivity
   queries, index-accelerated evaluation, and partial results when a
   site is down.

   Run with:  dune exec examples/digital_library.exe *)

module E = Hf_client.Embedded
module C = Hf_server.Instances.Weighted
module Tuple = Hf_data.Tuple

let institutions = [| "Princeton"; "Stanford"; "Archive" |]

let build server prng =
  (* 60 papers, 20 per site; papers cite 1-3 earlier papers, usually
     from another institution; each carries topical keywords. *)
  let topics = [| "databases"; "distributed"; "hypertext"; "filing"; "networks" |] in
  let papers = ref [] in
  for i = 0 to 59 do
    let site = i mod 3 in
    let cites =
      List.filter_map
        (fun _ ->
          match !papers with
          | [] -> None
          | earlier ->
            Some (List.nth earlier (Hf_util.Prng.next_int prng (List.length earlier))))
        (List.init (1 + Hf_util.Prng.next_int prng 3) Fun.id)
    in
    let keywords =
      List.filter_map
        (fun t -> if Hf_util.Prng.next_bool prng 0.4 then Some (Tuple.keyword t) else None)
        (Array.to_list topics)
    in
    let oid =
      E.create_object server ~site
        ([ Tuple.string_ ~key:"Title" (Printf.sprintf "Paper #%d from %s" i institutions.(site));
           Tuple.number ~key:"Year" (1975 + Hf_util.Prng.next_int prng 16);
           Tuple.text ~key:"Body" (String.make 1024 'x');
         ]
        @ keywords
        @ List.map (fun target -> Tuple.pointer ~key:"Cites" target) cites
        (* terminator self-citation so leaves stay filterable in
           closures (see DESIGN.md) *)
        @ (if cites = [] then [] else []))
    in
    (* every paper cites itself as terminator if it cites nothing *)
    (if cites = [] then
       let store = E.store server site in
       let obj = Option.get (Hf_data.Store.find store oid) in
       Hf_data.Store.replace store (Hf_data.Hobject.add obj (Tuple.pointer ~key:"Cites" oid)));
    papers := oid :: !papers
  done;
  List.rev !papers

let pp_metrics outcome =
  let m = outcome.Hf_server.Cluster.metrics in
  Fmt.pr
    "    %.3fs simulated | %d work msgs (%dB) | %d result msgs (%dB) | %d results shipped@."
    outcome.Hf_server.Cluster.response_time m.Hf_server.Metrics.work_messages
    m.Hf_server.Metrics.work_bytes m.Hf_server.Metrics.result_messages
    m.Hf_server.Metrics.result_bytes m.Hf_server.Metrics.results_shipped

let () =
  let prng = Hf_util.Prng.create 2026 in
  let server = E.create ~n_sites:3 () in
  let papers = build server prng in
  let newest = List.nth papers 59 in
  E.define_set server "Reading" [ newest ];

  Fmt.pr "== A citation-closure search from the newest paper ==@.";
  let r =
    E.query server "Reading [ (Pointer, \"Cites\", ?X) ^^X ]* (Keyword, \"distributed\", ?) -> Hits"
  in
  Fmt.pr "  %d papers in the closure carry keyword 'distributed'@." (List.length r.E.oids);
  pp_metrics r.E.outcome;

  Fmt.pr "== Depth-2 variant (just what this paper builds on directly) ==@.";
  let r2 =
    E.query server "Reading [ (Pointer, \"Cites\", ?X) ^^X ]^2 (Keyword, \"distributed\", ?)"
  in
  Fmt.pr "  %d papers within two citation hops@." (List.length r2.E.oids);
  pp_metrics r2.E.outcome;

  Fmt.pr "== Year-range filter with the numeric pattern ==@.";
  let r3 =
    E.query server "Reading [ (Pointer, \"Cites\", ?X) ^^X ]* (Number, \"Year\", 1985..1990)"
  in
  Fmt.pr "  %d papers published 1985-1990 in the closure@." (List.length r3.E.oids);

  Fmt.pr "== Low-selectivity query: ship counts, not members (Section 5) ==@.";
  let counted =
    E.create ~config:{ Hf_server.Cluster.default_config with
                        Hf_server.Cluster.result_mode = Hf_server.Cluster.Ship_counts }
      ~n_sites:3 ()
  in
  let papers2 = build counted (Hf_util.Prng.create 2026) in
  let newest2 = List.nth papers2 59 in
  E.define_set counted "Reading" [ newest2 ];
  let r4 = E.query counted "Reading [ (Pointer, \"Cites\", ?X) ^^X ]* (?, ?, ?)" in
  Fmt.pr "  per-site result counts (members stayed server-side):@.";
  List.iter
    (fun (site, n) -> Fmt.pr "    %-10s %d papers@." institutions.(site) n)
    r4.E.outcome.Hf_server.Cluster.counts;
  pp_metrics r4.E.outcome;

  Fmt.pr "== Index-accelerated evaluation (Section 2's indexing facility) ==@.";
  (* Build reachability + keyword indexes over a single-store copy. *)
  let lib_store = Hf_data.Store.create ~site:0 in
  List.iteri
    (fun i oid ->
      (* copy the 3-site library into one store for local indexing *)
      let obj = Option.get (Hf_data.Store.find (E.store server (i mod 3)) oid) in
      Hf_data.Store.insert lib_store obj)
    papers;
  let indexes =
    { Hf_index.Indexed_eval.reachability =
        Some (Hf_index.Reachability.of_store ~key:"Cites" lib_store);
      keywords = Some (Hf_index.Keyword_index.of_store lib_store);
    }
  in
  let ast =
    Hf_query.Parser.parse_body "[ (Pointer, \"Cites\", ?X) ^^X ]* (Keyword, \"distributed\", ?)"
  in
  (match Hf_index.Indexed_eval.explain indexes ast with
   | Hf_index.Indexed_eval.Indexed how -> Fmt.pr "  plan: %s@." how
   | Hf_index.Indexed_eval.Scan -> Fmt.pr "  plan: scan@.");
  let answer =
    Hf_index.Indexed_eval.answer ~indexes ~find:(Hf_data.Store.find lib_store) ast [ newest ]
  in
  Fmt.pr "  index answer: %d papers (engine agreed: %b)@."
    (Hf_data.Oid.Set.cardinal answer)
    (Hf_data.Oid.Set.equal answer
       (Hf_engine.Local.run_query ~store:lib_store ast [ newest ]).Hf_engine.Local.result_set);

  Fmt.pr "== Partial results when Stanford is down (Section 1) ==@.";
  C.kill_site (E.cluster server) 1;
  let r5 =
    E.query server "Reading [ (Pointer, \"Cites\", ?X) ^^X ]* (Keyword, \"distributed\", ?)"
  in
  Fmt.pr "  terminated=%b — %d of %d papers still found without Stanford@."
    r5.E.outcome.Hf_server.Cluster.terminated (List.length r5.E.oids) (List.length r.E.oids)
