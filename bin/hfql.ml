(* hfql — command-line front end for HyperFile queries.

   Subcommands:
     hfql check "<query>"        parse, validate and show the compiled program
     hfql run script.hfq         run a query script against a demo server
     hfql demo                   run a canned query against the demo server

   The demo server loads the paper's synthetic dataset (270 objects over
   N simulated sites) and predefines the set "Root" holding the dataset
   root; scripts can traverse Chain/Tree/RandNN pointer classes and
   filter on the Unique/Common/Rand10/Rand100/Rand1000 search keys. *)

let setup_server ?tracer ?(cache = false) ?in_flight ?(exec = Hf_server.Cluster.Exec_ship)
    ~sites ~objects ~seed () =
  let config =
    if cache || in_flight <> None || exec <> Hf_server.Cluster.Exec_ship then
      Some
        { Hf_server.Cluster.default_config with
          Hf_server.Cluster.cache =
            (if cache then Some Hf_index.Remote_cache.default else None);
          admission =
            { Hf_server.Sched.unlimited with Hf_server.Sched.in_flight_cap = in_flight };
          exec;
        }
    else None
  in
  let server = Hf_client.Embedded.create ?config ?tracer ~n_sites:sites () in
  let params =
    { Hf_workload.Synthetic.default_params with
      Hf_workload.Synthetic.n_objects = objects;
      seed;
      blob_bytes = 256;
    }
  in
  let dataset = Hf_workload.Synthetic.generate ~params () in
  let placed =
    Hf_workload.Synthetic.materialize dataset ~n_sites:sites
      ~store_of:(Hf_client.Embedded.store server)
  in
  Hf_client.Embedded.define_set server "Root" [ placed.Hf_workload.Synthetic.root ];
  server

(* --- check --- *)

let check_query text =
  match Hf_query.Parser.parse_query text with
  | exception Hf_query.Parser.Parse_error { message; pos } ->
    Fmt.epr "parse error at line %d, column %d: %s@." pos.Hf_query.Parser.line
      pos.Hf_query.Parser.col message;
    1
  | { Hf_query.Parser.source; body; target } ->
    (match source with Some s -> Fmt.pr "source set: %s@." s | None -> ());
    (match target with Some t -> Fmt.pr "result set: %s@." t | None -> ());
    let issues = Hf_query.Validate.check body in
    List.iter (fun i -> Fmt.pr "%a@." Hf_query.Validate.pp_issue i) issues;
    if Hf_query.Validate.is_valid body then begin
      let program = Hf_query.Compile.compile body in
      Fmt.pr "compiled program (%d filters, ~%d bytes on the wire):@.%a@."
        (Hf_query.Program.length program)
        (Hf_query.Program.byte_size program)
        Hf_query.Program.pp program;
      0
    end
    else 1

(* --- run --- *)

let run_script ~sites ~objects ~seed ~origin path =
  let source =
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  let server = setup_server ~sites ~objects ~seed () in
  let report = Hf_client.Script.run ~origin server source in
  Fmt.pr "%a@." Hf_client.Script.pp_report report;
  if report.Hf_client.Script.failures = 0 then 0 else 1

(* --- demo --- *)

(* Write the trace (if requested) and report what went to disk. *)
let finish_trace tracer = function
  | None -> ()
  | Some path ->
    Hf_obs.Tracer.write_file tracer path;
    Fmt.pr "trace: %d span(s) -> %s%s@." (Hf_obs.Tracer.count tracer) path
      (match Hf_obs.Tracer.sampled_out tracer with
       | 0 -> ""
       | n ->
         Printf.sprintf " (%d skipped by sampling at rate %.2f)" n
           (Hf_obs.Tracer.sample_rate tracer))

(* A truncated trace silently understates every profile built from it —
   make it loud (satellite of DESIGN.md §4i). *)
let warn_dropped tracer =
  match Hf_obs.Tracer.dropped tracer with
  | 0 -> ()
  | n ->
    Fmt.epr
      "hfql: warning: %d span(s) dropped past the tracer limit — traces and profiles for \
       this run are incomplete@."
      n

(* Resolve a query's seed set and ask the planner for its verdict
   without running the query (doc/execution_modes.md).  The planner is
   a pure cost comparison, so this works under any --mode. *)
let explain_query server ~origin text =
  match Hf_query.Parser.parse_query text with
  | exception Hf_query.Parser.Parse_error { message; pos } ->
    Error
      (Printf.sprintf "parse error at %d:%d: %s" pos.Hf_query.Parser.line
         pos.Hf_query.Parser.col message)
  | { Hf_query.Parser.source; body; _ } ->
    let initial =
      match source with
      | None -> []
      | Some name ->
        (match Hf_client.Embedded.find_set server name with
         | Some oids -> oids
         | None -> [])
    in
    let program = Hf_query.Compile.compile body in
    let module C = Hf_client.Embedded.C in
    Ok (C.explain (Hf_client.Embedded.cluster server) ~origin program initial)

let exec_of_mode = function
  | `Ship -> Hf_server.Cluster.Exec_ship
  | `Scatter -> Hf_server.Cluster.Exec_scatter
  | `Auto -> Hf_server.Cluster.Exec_auto

let demo ~sites ~objects ~seed ~in_flight ~mode ~explain_plan ~trace ~profile ~profile_json
    ~slow_ms ~sample_rate =
  let tracing = trace <> None || profile || profile_json <> None || slow_ms <> None in
  (* The sim cluster installs its virtual clock on the tracer. *)
  let tracer =
    if tracing then Hf_obs.Tracer.create ~sample_rate () else Hf_obs.Tracer.noop
  in
  let server =
    setup_server ~tracer ~exec:(exec_of_mode mode)
      ?in_flight:(if in_flight > 1 then Some in_flight else None)
      ~sites ~objects ~seed ()
  in
  let module C = Hf_client.Embedded.C in
  let cluster = Hf_client.Embedded.cluster server in
  (* Output waits until every query has run, so the profile after each
     query's lines comes from one pass over the tracer's spans. *)
  let parts = ref [] in
  let say fmt = Format.kdprintf (fun print -> parts := `Text print :: !parts) fmt in
  let profiled ?text h = if tracing then parts := `Profile (text, h) :: !parts in
  let queries =
    [
      "Root [ (Pointer, \"Tree\", ?X) ^^X ]* (Number, \"Rand10\", 5) -> Hits";
      "Hits (Number, \"Unique\", ->ids)";
    ]
  in
  List.iter
    (fun text ->
      say "query: %s@." text;
      if explain_plan then begin
        match explain_query server ~origin:0 text with
        | Ok decision -> say "  plan: %a@." Hf_query.Plan.pp decision
        | Error message -> Fmt.epr "hfql: cannot explain: %s@." message
      end;
      let r = Hf_client.Embedded.query server text in
      say "  %d result(s) in %.3f simulated seconds (mode: %s)@."
        (List.length r.Hf_client.Embedded.oids)
        r.Hf_client.Embedded.outcome.Hf_server.Cluster.response_time
        (Hf_query.Plan.mode_name r.Hf_client.Embedded.outcome.Hf_server.Cluster.mode);
      List.iter
        (fun (target, values) ->
          say "  %s = %a@." target (Fmt.list ~sep:Fmt.comma Hf_data.Value.pp) values)
        r.Hf_client.Embedded.values;
      profiled ~text r.Hf_client.Embedded.handle)
    queries;
  (* --in-flight N: submit N copies of the closure query at once; the
     admission gate keeps all of them running and the per-query slices
     interleave (DESIGN.md §4h), so the batch finishes in a fraction of
     N back-to-back runs. *)
  if in_flight > 1 then begin
    let program =
      Hf_query.Compile.compile
        (Hf_query.Parser.parse_body "[ (Pointer, \"Tree\", ?X) ^^X ]* (Number, \"Rand10\", 5)")
    in
    let root = Option.value ~default:[] (Hf_client.Embedded.find_set server "Root") in
    say "@.concurrent batch: %d copies of the closure query, all in flight@." in_flight;
    let handles = List.init in_flight (fun _ -> C.submit cluster ~origin:0 program root) in
    C.await_quiescence cluster;
    let times =
      List.map
        (fun h -> (C.outcome cluster h).Hf_server.Cluster.response_time)
        handles
    in
    let makespan = List.fold_left Float.max 0.0 times in
    let fastest = List.fold_left Float.min makespan times in
    say "  batch makespan %.3f simulated seconds (%.2f queries/s); one at a time \
         would take roughly %.3f@."
      makespan
      (float_of_int in_flight /. makespan)
      (float_of_int in_flight *. fastest);
    (* Under contention the interesting profile is the slowest query's:
       its Wait rows show what the batch cost it. *)
    List.fold_left
      (fun acc h ->
        let rt = (C.outcome cluster h).Hf_server.Cluster.response_time in
        match acc with Some (_, best) when best >= rt -> acc | _ -> Some (h, rt))
      None handles
    |> Option.iter (fun (h, _) -> profiled h)
  end;
  (* EXPLAIN ANALYZE per query; the slow-query log fires on virtual
     response time, so it is deterministic for a given seed.  The log
     line names the execution mode that ran, so a slow entry already
     says whether the planner's choice was involved. *)
  let spans = Hf_obs.Profile.by_query (Hf_obs.Tracer.spans tracer) in
  let profiles =
    List.filter_map
      (function
        | `Text print ->
          print Format.std_formatter;
          None
        | `Profile (text, h) ->
          let prof = C.profile ~spans cluster h in
          if profile then Fmt.pr "%a@." Hf_obs.Profile.pp prof;
          let o = C.outcome cluster h in
          (match (text, slow_ms) with
           | Some text, Some threshold
             when o.Hf_server.Cluster.response_time *. 1000.0 >= threshold ->
             Fmt.epr "hfql: slow query (%.1f ms >= %.1f ms, mode: %s): %s@.%a@."
               (o.Hf_server.Cluster.response_time *. 1000.0)
               threshold
               (Hf_query.Plan.mode_name o.Hf_server.Cluster.mode)
               text Hf_obs.Profile.pp prof
           | _ -> ());
          Some prof)
      (List.rev !parts)
  in
  (match profile_json with
   | None -> ()
   | Some path ->
     let json = Hf_obs.Json.List (List.map Hf_obs.Profile.to_json profiles) in
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Hf_obs.Json.to_string json));
     Fmt.pr "profiles: %d -> %s@." (List.length profiles) path);
  finish_trace tracer trace;
  warn_dropped tracer;
  0

(* --- interactive REPL --- *)

let repl ~sites ~objects ~seed ~origin ~cache ~mode =
  let server = setup_server ~cache ~exec:(exec_of_mode mode) ~sites ~objects ~seed () in
  (* Session totals for :cache-stats — the counters live in each
     outcome's metrics, so we sum them as queries run. *)
  let hits = ref 0 and misses = ref 0 and prunes = ref 0 in
  let validations = ref 0 and fills = ref 0 and invalidations = ref 0 in
  let tally (o : Hf_server.Cluster.outcome) =
    let m = o.Hf_server.Cluster.metrics in
    hits := !hits + m.Hf_server.Metrics.cache_hits;
    misses := !misses + m.Hf_server.Metrics.cache_misses;
    prunes := !prunes + m.Hf_server.Metrics.cache_prunes;
    validations := !validations + m.Hf_server.Metrics.cache_validations;
    fills := !fills + m.Hf_server.Metrics.cache_fills;
    invalidations := !invalidations + m.Hf_server.Metrics.cache_invalidations
  in
  Fmt.pr "HyperFile query shell — %d simulated site(s), %d objects%s%s.@." sites objects
    (if cache then ", remote-answer cache on" else "")
    (match mode with
     | `Ship -> ""
     | `Scatter -> ", scatter-gather mode"
     | `Auto -> ", cost-based mode selection");
  Fmt.pr
    "The set \"Root\" holds the dataset root.  Commands: :sets, :plan <query>, \
     :cache-stats, :quit.@.";
  Fmt.pr "Example: Root [ (Pointer, \"Tree\", ?X) ^^X ]* (Number, \"Rand10\", 5) -> Hits@.";
  let rec loop () =
    Fmt.pr "hfql> %!";
    match In_channel.input_line In_channel.stdin with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line when String.trim line = ":quit" || String.trim line = ":q" -> ()
    | Some line when String.trim line = ":sets" ->
      List.iter
        (fun (name, oids) -> Fmt.pr "  %-12s %d object(s)@." name (List.length oids))
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (Hf_client.Embedded.sets server));
      loop ()
    | Some line
      when String.length (String.trim line) >= 5
           && String.sub (String.trim line) 0 5 = ":plan" ->
      (* :plan <query> — the planner's cost comparison for this query,
         without running it (doc/execution_modes.md) *)
      let text = String.trim (String.sub (String.trim line) 5 (String.length (String.trim line) - 5)) in
      if text = "" then Fmt.pr "usage: :plan <query>@."
      else
        (match explain_query server ~origin text with
         | Ok decision -> Fmt.pr "%a@." Hf_query.Plan.pp decision
         | Error message -> Fmt.pr "error: %s@." message);
      loop ()
    | Some line when String.trim line = ":cache-stats" ->
      if not cache then Fmt.pr "remote-answer cache is off (start the repl with --cache)@."
      else begin
        Fmt.pr "  hits          %d@." !hits;
        Fmt.pr "  misses        %d@." !misses;
        Fmt.pr "  prunes        %d@." !prunes;
        Fmt.pr "  validations   %d@." !validations;
        Fmt.pr "  fills         %d@." !fills;
        Fmt.pr "  invalidations %d@." !invalidations;
        let asked = !hits + !misses in
        if asked > 0 then
          Fmt.pr "  hit rate      %.0f%%@." (100.0 *. float_of_int !hits /. float_of_int asked)
      end;
      loop ()
    | Some line ->
      (match Hf_client.Embedded.query ~origin server line with
       | r ->
         tally r.Hf_client.Embedded.outcome;
         Fmt.pr "%d result(s) in %.3f simulated seconds%s%s@."
           (List.length r.Hf_client.Embedded.oids)
           r.Hf_client.Embedded.outcome.Hf_server.Cluster.response_time
           (* name the mode only when a planner could have run, so the
              default shell output is unchanged *)
           (if mode = `Ship then ""
            else
              Printf.sprintf " (mode: %s)"
                (Hf_query.Plan.mode_name r.Hf_client.Embedded.outcome.Hf_server.Cluster.mode))
           (match r.Hf_client.Embedded.target with
            | Some t -> Printf.sprintf " -> %s" t
            | None -> "");
         List.iter
           (fun (target, values) ->
             Fmt.pr "  %s = %a@." target (Fmt.list ~sep:Fmt.comma Hf_data.Value.pp) values)
           r.Hf_client.Embedded.values
       | exception Hf_client.Embedded.Invalid_query message -> Fmt.pr "error: %s@." message);
      loop ()
  in
  loop ();
  0

(* --- snapshots --- *)

let save_demo ~sites ~objects ~seed path =
  let server = setup_server ~sites ~objects ~seed () in
  (* snapshot every site: path becomes path.siteN *)
  List.iter
    (fun site ->
      let store = Hf_client.Embedded.store server site in
      let site_path = Printf.sprintf "%s.site%d" path site in
      Hf_persist.Snapshot.save store ~path:site_path;
      Fmt.pr "site %d: %d objects -> %s@." site (Hf_data.Store.cardinal store) site_path)
    (List.init sites Fun.id);
  0

let dump_snapshot path =
  match Hf_persist.Snapshot.load ~path with
  | exception Hf_persist.Snapshot.Corrupt message ->
    Fmt.epr "corrupt snapshot: %s@." message;
    1
  | exception Sys_error message ->
    Fmt.epr "%s@." message;
    1
  | store ->
    Fmt.pr "site %d, %d object(s), next serial %d@." (Hf_data.Store.site store)
      (Hf_data.Store.cardinal store) (Hf_data.Store.next_serial store);
    let shown = ref 0 in
    Hf_data.Store.iter store (fun obj ->
        if !shown < 5 then begin
          incr shown;
          Fmt.pr "%a@." Hf_data.Hobject.pp obj
        end);
    if Hf_data.Store.cardinal store > 5 then
      Fmt.pr "... and %d more@." (Hf_data.Store.cardinal store - 5);
    0

(* --- TCP demo --- *)

let tcp_demo ~sites ~objects ~seed ~batch ~reliable ~mode ~trace ~profile ~stats ~monitor
    ~linger ~sample_rate =
  let module Tcp = Hf_net.Tcp_site in
  let exec =
    match mode with
    | `Ship -> Tcp.Exec_ship
    | `Scatter -> Tcp.Exec_scatter
    | `Auto -> Tcp.Exec_auto
  in
  let tracing = trace <> None || profile in
  (* One shared tracer across the in-process sites: wire messages carry
     span ids, so remote spans still parent on the originating site. *)
  let tracer =
    if tracing then begin
      let t0 = Unix.gettimeofday () in
      Hf_obs.Tracer.create ~clock:(fun () -> Unix.gettimeofday () -. t0) ~sample_rate ()
    end
    else Hf_obs.Tracer.noop
  in
  let reliability = if reliable then Some Hf_proto.Reliable.default else None in
  let endpoints =
    Array.init sites (fun site ->
        Tcp.create ~site ~batch ?reliability ~exec ~tracer
          ?monitor_port:(if monitor then Some 0 else None)
          ())
  in
  let addresses = Array.map Tcp.address endpoints in
  Array.iter (fun s -> Tcp.set_peers s addresses) endpoints;
  Array.iteri
    (fun i addr ->
      match addr with
      | Unix.ADDR_INET (_, port) -> Fmt.pr "site %d on 127.0.0.1:%d@." i port
      | Unix.ADDR_UNIX _ -> ())
    addresses;
  if monitor then
    Array.iter
      (fun s ->
        match Tcp.monitor_address s with
        | Some (Unix.ADDR_INET (_, port)) ->
          Fmt.pr "monitor for site %d on 127.0.0.1:%d (try: hfql stats %d)@." (Tcp.id s)
            port port
        | Some (Unix.ADDR_UNIX _) | None -> ())
      endpoints;
  let params =
    { Hf_workload.Synthetic.default_params with
      Hf_workload.Synthetic.n_objects = objects;
      seed;
      blob_bytes = 256;
    }
  in
  let dataset = Hf_workload.Synthetic.generate ~params () in
  let placed =
    Hf_workload.Synthetic.materialize dataset ~n_sites:sites ~store_of:(fun s ->
        Tcp.store endpoints.(s))
  in
  let program =
    Hf_workload.Queries.closure_program ~pointer_key:Hf_workload.Synthetic.tree_key
      (Hf_workload.Queries.select_rand10 5)
  in
  let handle = Tcp.submit_query endpoints.(0) program [ placed.Hf_workload.Synthetic.root ] in
  let outcome = Tcp.await endpoints.(0) handle in
  let status_text =
    match outcome.Tcp.status with
    | Tcp.Complete -> "complete"
    | Tcp.Partial dead ->
      Fmt.str "partial (unreachable: %a)" Fmt.(list ~sep:comma int) dead
    | Tcp.Timed_out -> "timed out (peers may merely be slow)"
    | Tcp.Cancelled -> "cancelled"
  in
  Fmt.pr "closure over TCP: %d result(s), %s, %.1f ms, %d message(s), %d bytes, mode %s@."
    (List.length outcome.Tcp.results) status_text
    (outcome.Tcp.response_time *. 1000.0)
    outcome.Tcp.messages_sent outcome.Tcp.bytes_sent
    (Hf_query.Plan.mode_name outcome.Tcp.mode);
  if profile then Fmt.pr "%a@." Hf_obs.Profile.pp (Tcp.profile endpoints.(0) handle outcome);
  (* Cluster-wide scrape over the wire: every peer answers a credit-free
     Stats_pull, and the per-site registries merge bucket-exactly. *)
  if stats then begin
    let per_site = Tcp.pull_stats endpoints.(0) in
    Fmt.pr "cluster stats (%d site(s) merged):@.%a@."
      (List.length per_site)
      Hf_obs.Registry.pp_snapshot
      (Hf_obs.Registry.merge_snapshots (List.map snd per_site))
  end;
  (* Keep the sites (and their monitoring ports) up so an external
     scraper can connect before everything tears down. *)
  if linger > 0.0 then begin
    Fmt.pr "lingering %.0f s for scrapers...@." linger;
    Thread.delay linger
  end;
  Array.iter Tcp.shutdown endpoints;
  finish_trace tracer trace;
  warn_dropped tracer;
  match outcome.Tcp.status with
  | Tcp.Complete -> 0
  | Tcp.Timed_out | Tcp.Cancelled -> 1
  | Tcp.Partial _ -> 2

(* --- stats: read a site's monitoring surface --- *)

(* The monitor endpoint speaks no protocol at all: connect, read the
   Prometheus text dump to EOF, done.  This command is a convenience
   over [nc]. *)
let stats_dump ~host ~port =
  match Unix.inet_addr_of_string host with
  | exception Failure _ ->
    Fmt.epr "hfql stats: bad host %S (use a dotted address, e.g. 127.0.0.1)@." host;
    1
  | inet -> (
    let addr = Unix.ADDR_INET (inet, port) in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      Fmt.epr "hfql stats: cannot connect to %s:%d: %s@." host port (Unix.error_message err);
      1
    | () ->
      let buf = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          print_string (Bytes.sub_string buf 0 n);
          drain ()
      in
      Fun.protect ~finally:(fun () -> Unix.close fd) drain;
      0)

(* --- cmdliner plumbing --- *)

open Cmdliner

(* The synthetic corpus places whole groups of objects on sites: the
   site count must divide the group count, and every group needs an
   object.  Checked while parsing, before any site is built. *)
let n_groups = Hf_workload.Synthetic.default_params.Hf_workload.Synthetic.n_groups

let checked_int ~valid ~expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when valid n -> Ok n
    | Some _ | None -> Error (Printf.sprintf "invalid value %S, expected %s" s expected)
  in
  Arg.conv' (parse, Format.pp_print_int)

let sites_arg =
  let divisors = List.filter (fun d -> n_groups mod d = 0) (List.init n_groups succ) in
  let expected =
    Printf.sprintf "a divisor of the corpus's %d groups (%s)" n_groups
      (String.concat ", " (List.map string_of_int divisors))
  in
  Arg.(value
       & opt (checked_int ~valid:(fun n -> n >= 1 && n_groups mod n = 0) ~expected) 3
       & info [ "sites" ] ~docv:"N" ~doc:"Number of sites; must divide the corpus's groups.")

let objects_arg =
  let expected = Printf.sprintf "at least the corpus's %d groups" n_groups in
  Arg.(value
       & opt (checked_int ~valid:(fun n -> n >= n_groups) ~expected) 270
       & info [ "objects" ] ~docv:"N" ~doc:"Synthetic dataset size; at least one object per group.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Dataset seed.")

let origin_arg =
  Arg.(value & opt int 0 & info [ "origin" ] ~docv:"SITE" ~doc:"Originating site for queries.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a causal span trace to $(docv): Chrome trace_event JSON (load it in \
                 Perfetto or chrome://tracing), or one JSON object per span when $(docv) \
                 ends in .jsonl.")

let mode_arg =
  Arg.(value
       & opt (enum [ ("ship", `Ship); ("scatter", `Scatter); ("auto", `Auto) ]) `Ship
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Execution mode (doc/execution_modes.md): $(b,ship) is classic query \
                 shipping (the paper's protocol, the default), $(b,scatter) forces \
                 single-round scatter-gather for every eligible query, $(b,auto) lets \
                 the cost-based planner choose per query.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print an EXPLAIN ANALYZE profile per query: per-site phase time \
                 breakdown, ship rounds, queue wait vs execution, and the engine's \
                 per-query message/byte/cache counters (DESIGN.md §4i).")

let sample_rate_arg =
  Arg.(value & opt float 1.0
       & info [ "sample-rate" ] ~docv:"R"
           ~doc:"Trace only fraction $(docv) of queries (whole queries, chosen \
                 deterministically); keeps tracing affordable under concurrent load.")

let check_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Query text.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse, validate and display a query's compiled form.")
    Term.(const check_query $ query_arg)

let run_cmd =
  let script_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SCRIPT" ~doc:"Query script ('-' for stdin); one query per line.")
  in
  let run sites objects seed origin path = run_script ~sites ~objects ~seed ~origin path in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a query script against the demo server.")
    Term.(const run $ sites_arg $ objects_arg $ seed_arg $ origin_arg $ script_arg)

let demo_cmd =
  let in_flight_arg =
    Arg.(value & opt int 1
         & info [ "in-flight" ] ~docv:"N"
             ~doc:"Keep $(docv) queries in flight at once (admission cap; DESIGN.md §4h) \
                   and finish the demo with a concurrent batch of $(docv) closure queries.")
  in
  let profile_json_arg =
    Arg.(value & opt (some string) None
         & info [ "profile-json" ] ~docv:"FILE"
             ~doc:"Write every query's profile to $(docv) as a JSON array.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-query log: print the profile of any query whose response time \
                   reaches $(docv) milliseconds to stderr.")
  in
  let explain_plan_arg =
    Arg.(value & flag
         & info [ "explain-plan" ]
             ~doc:"Print the cost-based planner's verdict (predicted sites, modeled \
                   shipping vs scatter cost, chosen mode) before each query runs; \
                   independent of $(b,--mode).")
  in
  let run sites objects seed in_flight mode explain_plan trace profile profile_json slow_ms
      sample_rate =
    if sample_rate < 0.0 || sample_rate > 1.0 then begin
      Fmt.epr "hfql: --sample-rate must be in [0, 1] (got %g)@." sample_rate;
      2
    end
    else
      demo ~sites ~objects ~seed ~in_flight ~mode ~explain_plan ~trace ~profile
        ~profile_json ~slow_ms ~sample_rate
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run canned queries against the demo server.")
    Term.(const run $ sites_arg $ objects_arg $ seed_arg $ in_flight_arg $ mode_arg
          $ explain_plan_arg $ trace_arg $ profile_arg $ profile_json_arg $ slow_ms_arg
          $ sample_rate_arg)

let save_demo_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH" ~doc:"Snapshot path prefix (one file per site).")
  in
  let run sites objects seed path = save_demo ~sites ~objects ~seed path in
  Cmd.v
    (Cmd.info "save-demo" ~doc:"Snapshot the demo server's stores to disk.")
    Term.(const run $ sites_arg $ objects_arg $ seed_arg $ path_arg)

let dump_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Inspect a store snapshot.")
    Term.(const dump_snapshot $ path_arg)

let repl_cmd =
  let cache_arg =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Enable the remote-answer cache and Bloom ship pruning (DESIGN.md §4g); \
                   inspect it with the :cache-stats shell command.")
  in
  let run sites objects seed origin cache mode =
    repl ~sites ~objects ~seed ~origin ~cache ~mode
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query shell over the demo server.")
    Term.(const run $ sites_arg $ objects_arg $ seed_arg $ origin_arg $ cache_arg $ mode_arg)

let tcp_demo_cmd =
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"K"
             ~doc:"Coalesce up to $(docv) same-destination work items per message (1 = the \
                   paper's one-message-per-item protocol, 0 = only flush when the site \
                   drains).")
  in
  let reliable_arg =
    Arg.(value & flag
         & info [ "reliable" ]
             ~doc:"Layer ack/retransmit delivery under the protocol (see \
                   doc/fault_tolerance.md); exit status 2 marks a partial answer \
                   (unreachable peer).")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"After the query, pull every site's registry over the wire \
                   (credit-free Stats_pull/Stats_report) and print the merged \
                   cluster-wide snapshot.")
  in
  let monitor_flag =
    Arg.(value & flag
         & info [ "monitor" ]
             ~doc:"Bind an always-on monitoring listener per site (ephemeral loopback \
                   port, printed at startup); each answers any connection with a \
                   Prometheus text dump — readable with $(b,hfql stats PORT) or nc.")
  in
  let linger_arg =
    Arg.(value & opt float 0.0
         & info [ "linger" ] ~docv:"S"
             ~doc:"Keep the sites (and any $(b,--monitor) ports) up for $(docv) seconds \
                   after the query, so external scrapers can connect.")
  in
  let run sites objects seed batch reliable mode trace profile stats monitor linger
      sample_rate =
    match
      if batch = 0 then Ok Hf_proto.Batch.Flush_on_drain
      else if batch >= 1 then Ok (Hf_proto.Batch.Flush_at batch)
      else Error ()
    with
    | Ok batch ->
      if sample_rate < 0.0 || sample_rate > 1.0 then begin
        Fmt.epr "hfql: --sample-rate must be in [0, 1] (got %g)@." sample_rate;
        2
      end
      else
        tcp_demo ~sites ~objects ~seed ~batch ~reliable ~mode ~trace ~profile ~stats
          ~monitor ~linger ~sample_rate
    | Error () ->
      Fmt.epr "hfql: --batch must be >= 0 (got %d)@." batch;
      2
  in
  Cmd.v
    (Cmd.info "tcp-demo"
       ~doc:"Run a closure query across real loopback TCP sites (the wire protocol, not the \
             simulator).")
    Term.(const run $ sites_arg $ objects_arg $ seed_arg $ batch_arg $ reliable_arg
          $ mode_arg $ trace_arg $ profile_arg $ stats_flag $ monitor_flag $ linger_arg
          $ sample_rate_arg)

let stats_cmd =
  let port_arg =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"PORT" ~doc:"Monitoring port (see $(b,tcp-demo --monitor)).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Monitoring host (dotted address).")
  in
  let run host port = stats_dump ~host ~port in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dump a site's metrics from its monitoring port (Prometheus text format).")
    Term.(const run $ host_arg $ port_arg)

let () =
  let doc = "HyperFile filtering-query runner (paper reproduction demo)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "hfql" ~doc)
          [
            check_cmd; run_cmd; demo_cmd; repl_cmd; save_demo_cmd; dump_cmd; tcp_demo_cmd;
            stats_cmd;
          ]))
