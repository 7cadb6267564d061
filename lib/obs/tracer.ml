(* The span collector.

   [noop] is the disabled tracer: every operation is a single variant
   check, no allocation, no lock — instrumentation left in hot paths
   costs (almost) nothing when tracing is off, provided the call site
   builds no strings for it.  Arguments are evaluated before the call,
   so a span name formatted with [Fmt.str] costs its allocation whether
   or not the tracer keeps it; hot call sites build names and details
   only under [enabled].

   An active tracer keeps open spans in a table and completed spans in
   a bounded list with a [dropped] counter, so truncated traces are
   detectable rather than silently short.  All operations take a mutex:
   the event loops of the TCP sites sharing one tracer start and finish
   spans concurrently.

   Span ids are positive and unique per tracer; 0 means "no span" and
   threads through instrumentation as the absent parent, so call sites
   never juggle options. *)

type active = {
  mutable clock : unit -> float;
  limit : int;
  mutable next_id : int;
  open_spans : (int, Span.t) Hashtbl.t;
  mutable closed : Span.t list; (* newest first *)
  mutable closed_count : int;
  mutable dropped : int;
  sample_rate : float; (* fraction of queries traced; 1.0 = all *)
  sample_cutoff : int; (* rate scaled to [0, 1_000_000] for the hash test *)
  sample_seed : int;
  sampled_out : int Atomic.t; (* spans skipped by the sampling decision *)
  lock : Mutex.t;
}

type t = Noop | Active of active

let noop = Noop

let default_limit = 200_000

let create ?(limit = default_limit) ?(clock = fun () -> 0.0) ?(sample_rate = 1.0) ?(seed = 0) ()
    =
  if Float.is_nan sample_rate || sample_rate < 0.0 || sample_rate > 1.0 then
    invalid_arg "Tracer.create: sample_rate must be in [0, 1]";
  Active
    {
      clock;
      limit;
      next_id = 1;
      open_spans = Hashtbl.create 64;
      closed = [];
      closed_count = 0;
      dropped = 0;
      sample_rate;
      sample_cutoff = int_of_float (sample_rate *. 1_000_000.0);
      sample_seed = seed;
      sampled_out = Atomic.make 0;
      lock = Mutex.create ();
    }

let enabled = function Noop -> false | Active _ -> true

let set_clock t clock = match t with Noop -> () | Active a -> a.clock <- clock

let now t = match t with Noop -> 0.0 | Active a -> a.clock ()

(* The sampling decision is per QUERY, not per span: a query is traced
   in full or not at all (a partial causal tree is worse than none).
   Hashing the rendered query id makes the decision deterministic and —
   crucial for in-process clusters sharing one wire — identical on
   every site holding a tracer with the same seed, so a sampled-out
   query's spans are absent everywhere rather than half-stitched.

   The decision is pure and lock-free on purpose: at sample_rate 0.1
   it runs for ten times as many spans as are recorded, so it must cost
   a hash and a compare, not a mutex round-trip — that difference alone
   is most of E18's overhead budget.  [seeded_hash] hashes the string
   in place without allocating a pair. *)
let sampled a ~query =
  a.sample_cutoff >= 1_000_000
  || a.sample_cutoff > 0
     && Hashtbl.seeded_hash a.sample_seed query mod 1_000_000 < a.sample_cutoff

let sample_rate = function Noop -> 1.0 | Active a -> a.sample_rate

let sampled_out = function Noop -> 0 | Active a -> Atomic.get a.sampled_out

let locked a f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

let retain a span =
  if a.closed_count < a.limit then begin
    a.closed <- span :: a.closed;
    a.closed_count <- a.closed_count + 1
  end
  else a.dropped <- a.dropped + 1

let start t ?(parent = 0) ~query ~site ~phase name =
  match t with
  | Noop -> 0
  | Active a when not (sampled a ~query) ->
    Atomic.incr a.sampled_out;
    0
  | Active a ->
    locked a (fun () ->
        let id = a.next_id in
        a.next_id <- id + 1;
        let now = a.clock () in
        let span =
          { Span.id; parent; query; site; phase; name; start = now; finish = now; detail = "" }
        in
        Hashtbl.replace a.open_spans id span;
        id)

(* [set_detail] and [finish] skip the lock entirely on id 0 — the id a
   sampled-out [start] hands back — so the untraced 90% of queries at
   sample_rate 0.1 pay only a branch here (E18's overhead bound). *)
let set_detail t id detail =
  match t with
  | Noop -> ()
  | Active _ when id = 0 -> ()
  | Active a ->
    locked a (fun () ->
        match Hashtbl.find_opt a.open_spans id with
        | Some span -> span.Span.detail <- detail
        | None -> ())

let finish ?detail t id =
  match t with
  | Noop -> ()
  | Active _ when id = 0 -> ()
  | Active a ->
    locked a (fun () ->
        match Hashtbl.find_opt a.open_spans id with
        | None -> () (* id 0, unknown, or already finished: ignore *)
        | Some span ->
          Hashtbl.remove a.open_spans id;
          span.Span.finish <- a.clock ();
          (match detail with Some d -> span.Span.detail <- d | None -> ());
          retain a span)

(* Record a span whose interval is already over — e.g. a queue wait
   measured by the scheduler only once the task finally runs.  The
   caller supplies both timestamps; the tracer's clock is not
   consulted, so retroactive spans and live spans interleave cleanly
   under a virtual clock. *)
let complete t ?(parent = 0) ?(detail = "") ~query ~site ~phase ~start ~finish name =
  match t with
  | Noop -> 0
  | Active a when not (sampled a ~query) ->
    Atomic.incr a.sampled_out;
    0
  | Active a ->
    locked a (fun () ->
        let id = a.next_id in
        a.next_id <- id + 1;
        retain a { Span.id; parent; query; site; phase; name; start; finish; detail };
        id)

let instant t ?(parent = 0) ?(detail = "") ~query ~site ~phase name =
  match t with
  | Noop -> 0
  | Active a when not (sampled a ~query) ->
    Atomic.incr a.sampled_out;
    0
  | Active a ->
    locked a (fun () ->
        let id = a.next_id in
        a.next_id <- id + 1;
        let now = a.clock () in
        retain a
          { Span.id; parent; query; site; phase; name; start = now; finish = now; detail };
        id)

let spans t =
  match t with
  | Noop -> []
  | Active a ->
    locked a (fun () ->
        let open_ones = Hashtbl.fold (fun _ span acc -> span :: acc) a.open_spans [] in
        List.sort
          (fun (x : Span.t) y -> Int.compare x.Span.id y.Span.id)
          (List.rev_append a.closed open_ones))

let count t = match t with Noop -> 0 | Active a -> a.closed_count + Hashtbl.length a.open_spans

let dropped t = match t with Noop -> 0 | Active a -> a.dropped

let clear t =
  match t with
  | Noop -> ()
  | Active a ->
    locked a (fun () ->
        Hashtbl.reset a.open_spans;
        a.closed <- [];
        a.closed_count <- 0;
        a.dropped <- 0;
        Atomic.set a.sampled_out 0)

(* Surface the tracer's own health as metrics: a truncated trace
   ([dropped] > 0) used to be visible only by noticing the Perfetto
   file was short. *)
let register t registry ~prefix =
  Registry.register_counter registry (prefix ^ ".trace_spans") (fun () -> count t);
  Registry.register_counter registry (prefix ^ ".trace_dropped") (fun () -> dropped t);
  Registry.register_counter registry (prefix ^ ".trace_sampled_out") (fun () -> sampled_out t);
  Registry.register_gauge registry (prefix ^ ".trace_sample_rate") (fun () -> sample_rate t)

let pp ppf t =
  match t with
  | Noop -> Fmt.pf ppf "(tracing off)"
  | Active a ->
    Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Span.pp) (spans t);
    if a.dropped > 0 then Fmt.pf ppf "@,... and %d dropped span(s) past the limit" a.dropped

(* --- exporters --- *)

let span_json (span : Span.t) =
  Json.Obj
    [
      ("id", Json.Int span.id);
      ("parent", Json.Int span.parent);
      ("query", Json.Str span.query);
      ("site", Json.Int span.site);
      ("phase", Json.Str (Span.phase_name span.phase));
      ("name", Json.Str span.name);
      ("start", Json.Float span.start);
      ("finish", Json.Float span.finish);
      ("detail", Json.Str span.detail);
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun span ->
      Json.to_buffer buf (span_json span);
      Buffer.add_char buf '\n')
    (spans t);
  Buffer.contents buf

(* Chrome trace_event JSON (the Perfetto / chrome://tracing format):
   complete ("X") events with pid = site and tid = query, process/thread
   name metadata, and flow events binding every child span to its
   parent so the causal chain renders as arrows across sites. *)
let to_chrome_json t =
  let all = spans t in
  let us time = time *. 1e6 in
  (* one Perfetto "thread" per (site, query) pair *)
  let tids = Hashtbl.create 16 in
  let tid_of (span : Span.t) =
    match Hashtbl.find_opt tids (span.site, span.query) with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids (span.site, span.query) tid;
      tid
  in
  let args (span : Span.t) =
    Json.Obj
      ([
         ("span", Json.Int span.id);
         ("parent", Json.Int span.parent);
         ("query", Json.Str span.query);
         ("phase", Json.Str (Span.phase_name span.phase));
       ]
      @ if span.detail = "" then [] else [ ("detail", Json.Str span.detail) ])
  in
  let complete (span : Span.t) =
    Json.Obj
      [
        ("name", Json.Str span.name);
        ("cat", Json.Str (Span.phase_name span.phase));
        ("ph", Json.Str "X");
        ("ts", Json.Float (us span.start));
        ("dur", Json.Float (us (Span.duration span)));
        ("pid", Json.Int span.site);
        ("tid", Json.Int (tid_of span));
        ("args", args span);
      ]
  in
  let by_id = Hashtbl.create (List.length all) in
  List.iter (fun (span : Span.t) -> Hashtbl.replace by_id span.Span.id span) all;
  let flows (span : Span.t) =
    if span.parent = 0 then []
    else
      match Hashtbl.find_opt by_id span.parent with
      | None -> []
      | Some parent ->
        let flow ph (at : Span.t) ts extra =
          Json.Obj
            ([
               ("name", Json.Str "causes");
               ("cat", Json.Str "flow");
               ("ph", Json.Str ph);
               ("id", Json.Int span.id);
               ("ts", Json.Float (us ts));
               ("pid", Json.Int at.site);
               ("tid", Json.Int (tid_of at));
             ]
            @ extra)
        in
        [
          flow "s" parent parent.start [];
          flow "f" span span.start [ ("bp", Json.Str "e") ];
        ]
  in
  let metadata =
    List.concat_map
      (fun (span : Span.t) ->
        [
          Json.Obj
            [
              ("name", Json.Str "process_name");
              ("ph", Json.Str "M");
              ("pid", Json.Int span.site);
              ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "site %d" span.site)) ]);
            ];
          Json.Obj
            [
              ("name", Json.Str "thread_name");
              ("ph", Json.Str "M");
              ("pid", Json.Int span.site);
              ("tid", Json.Int (tid_of span));
              ("args", Json.Obj [ ("name", Json.Str span.query) ]);
            ];
        ])
      all
  in
  (* dedupe metadata (one per pid / pid+tid) while keeping order *)
  let seen = Hashtbl.create 16 in
  let metadata =
    List.filter
      (fun json ->
        let key = Json.to_string json in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      metadata
  in
  let events = metadata @ List.map complete all @ List.concat_map flows all in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ])

let write_file t path =
  let contents =
    if Filename.check_suffix path ".jsonl" then to_jsonl t else to_chrome_json t
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
