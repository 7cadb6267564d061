(* tcpbench: the real-socket benchmark.

   Three Hf_net.Tcp_site sites run inside this process over loopback TCP
   and hold the paper's 270-object corpus.  One workload is driven
   through the public Tcp_site API for --seconds, and every answer is
   checked against the single-site Hf_engine.Local oracle.  The last line
   of standard output is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer ledger with --trace 1.  README.md in this directory
   describes the workloads, the metrics and how the ledger is built. *)

module Tcp = Hf_net.Tcp_site
module Oid = Hf_data.Oid
module Store = Hf_data.Store
module Registry = Hf_obs.Registry
module Histogram = Hf_obs.Histogram
module Synthetic = Hf_workload.Synthetic
module Prng = Hf_util.Prng
module W = Workload

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let await_timeout = 10.0

(* Queries of the traced phase replayed through the kernels. *)
let replay_limit = 48

let burst_size = 8

let burst_period = 0.25

(* Timed set-ups per run: setup_s is their median. *)
let setups = 5

let median = function
  | [] -> 0.0
  | xs -> Hf_util.Stats.percentile (Array.of_list xs) 0.5

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let clear t = t.len <- 0

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  (* 0 for an empty sample: a layer that did no work reports none. *)
  let percentile t p =
    if t.len = 0 then 0.0 else Hf_util.Stats.percentile (Array.sub t.data 0 t.len) p
end

(* The benchmark's own spans: one per call it makes into the system —
   submit_query and await in the traced phase, and every kernel call of
   the replay.  Kept in memory and written out at the end.  A span is
   five floats in one flat buffer (kind, query, start_ns, dur_ns, minor
   words allocated inside it), so recording one leaves nothing live in
   the minor heap: span records would be promoted by whichever timed
   kernel call next triggers a minor collection, and charged to it. *)
module Spans = struct
  type kind = Submit | Await | Eval | Encode | Decode | Credit

  let kinds = [| Submit; Await; Eval; Encode; Decode; Credit |]

  let kind_name = function
    | Submit -> "submit"
    | Await -> "await"
    | Eval -> "eval"
    | Encode -> "encode"
    | Decode -> "decode"
    | Credit -> "credit"

  let code = function Submit -> 0 | Await -> 1 | Eval -> 2 | Encode -> 3 | Decode -> 4 | Credit -> 5

  let width = 5

  let create = Samples.create

  let add t kind ~query ~start_ns ~dur_ns ~words =
    Samples.add t (float_of_int (code kind));
    Samples.add t (float_of_int query);
    Samples.add t start_ns;
    Samples.add t dur_ns;
    Samples.add t words

  (* Time [f] and count the minor words it allocates.  The clock is read
     outside the allocation window, so boxing its reading is never
     charged to [f]. *)
  let timed t kind ~query f =
    let start = Monotonic_clock.now () in
    let w0 = Gc.minor_words () in
    let result = f () in
    let w1 = Gc.minor_words () in
    let stop = Monotonic_clock.now () in
    add t kind ~query ~start_ns:(Int64.to_float start)
      ~dur_ns:(Int64.to_float (Int64.sub stop start))
      ~words:(w1 -. w0);
    result

  let count t = Samples.length t / width

  (* The spans from the [from]th on. *)
  let iter ?(from = 0) t f =
    for i = from to count t - 1 do
      let field j = t.Samples.data.((i * width) + j) in
      f kinds.(int_of_float (field 0)) (int_of_float (field 1)) (field 2) (field 3) (field 4)
    done

  type total = { seconds : float; words : float }

  let total ?from t kind =
    let seconds = ref 0.0 and words = ref 0.0 in
    iter ?from t (fun k _ _ dur_ns w ->
        if k = kind then begin
          seconds := !seconds +. (dur_ns *. 1e-9);
          words := !words +. w
        end);
    { seconds = !seconds; words = !words }

  let write t path =
    Out_channel.with_open_text path (fun oc ->
        output_string oc "kind\tquery\tstart_ns\tdur_ns\tminor_words\n";
        iter t (fun k query start_ns dur_ns words ->
            Printf.fprintf oc "%s\t%d\t%.0f\t%.0f\t%.0f\n" (kind_name k) query start_ns dur_ns words))
end

(* Kernel replay: traced-phase queries re-executed in process, without
   sockets, as classic query shipping over the same stores.  Each site
   keeps its own mark table and pushes objects through Eval.run_object;
   each cross-site spawn has its credit split with Credit, is encoded
   and framed as a Deref_request, and is decoded again.  Every kernel
   call is a span, which gives the per-object and per-message costs the
   layer ledger is built from.  The replay is checked too: its result
   sets must match the oracle and its credit must add back up to one. *)
module Kernel = struct
  module Credit = Hf_termination.Credit
  module Message = Hf_proto.Message
  module Codec = Hf_proto.Codec
  module Frame = Hf_proto.Frame
  module Eval = Hf_engine.Eval
  module Work_item = Hf_engine.Work_item

  type counts = {
    mutable queries : int;
    mutable objects : int;  (* removals that ran the filters *)
    mutable skipped : int;  (* removals the mark table suppressed *)
    mutable tuples : int;
    mutable marks : int;
    mutable messages : int;  (* cross-site Deref_requests *)
    mutable mismatches : int;  (* wrong result set or unrecovered credit *)
  }

  let replay_query spans counts ~stores ~serial ~origin (q : W.query) =
    let n = Array.length stores in
    let plan = Hf_engine.Plan.make q.W.program in
    let marks = Array.init n (fun _ -> Hf_engine.Mark_table.create ()) in
    let work = Array.init n (fun _ -> Queue.create ()) in
    let held = Array.make n Credit.zero in
    held.(origin) <- Credit.one;
    let stats = Hf_engine.Stats.create () in
    let decoder = Frame.Decoder.create () in
    let query_id = { Message.originator = origin; serial } in
    let results = ref Oid.Set.empty in
    let route ~src item =
      let dst = Oid.birth_site (Work_item.oid item) in
      if dst = src then Queue.push item work.(dst)
      else begin
        counts.messages <- counts.messages + 1;
        let credit =
          Spans.timed spans Spans.Credit ~query:serial (fun () ->
              let kept, given = Credit.split held.(src) in
              held.(src) <- kept;
              Credit.atoms given)
        in
        let message =
          Message.Deref_request
            {
              Message.query = query_id;
              body = q.W.program;
              oid = Work_item.oid item;
              start = Work_item.start item;
              iters = Work_item.iters item;
              credit;
            }
        in
        let frame =
          Spans.timed spans Spans.Encode ~query:serial (fun () ->
              Frame.frame (Codec.encode message))
        in
        let received =
          Spans.timed spans Spans.Decode ~query:serial (fun () ->
              Frame.Decoder.feed decoder frame;
              Option.map Codec.decode (Frame.Decoder.next decoder))
        in
        match received with
        | Some (Ok (Message.Deref_request r)) ->
          Spans.timed spans Spans.Credit ~query:serial (fun () ->
              held.(dst) <- Credit.add held.(dst) (Credit.of_atoms r.Message.credit));
          Queue.push
            (Work_item.make ~oid:r.Message.oid ~start:r.Message.start ~iters:r.Message.iters)
            work.(dst)
        | Some (Ok _) | Some (Error _) | None ->
          failwith "kernel replay: a Deref_request did not survive Codec and Frame"
      end
    in
    List.iter (fun oid -> route ~src:origin (Work_item.initial plan oid)) q.W.initial;
    let emit ~target:_ _ = () in
    let recovered = ref Credit.zero in
    while Array.exists (fun queue -> not (Queue.is_empty queue)) work do
      for site = 0 to n - 1 do
        let find = Store.find stores.(site) in
        let drained = not (Queue.is_empty work.(site)) in
        while not (Queue.is_empty work.(site)) do
          let item = Queue.pop work.(site) in
          let step =
            Spans.timed spans Spans.Eval ~query:serial (fun () ->
                Eval.run_object ~plan ~find ~marks:marks.(site) ~stats ~emit item)
          in
          List.iter (route ~src:site) step.Eval.spawned;
          if step.Eval.passed then results := Oid.Set.add (Work_item.oid item) !results
        done;
        (* as in the protocol, a drained site sends its credit home *)
        if drained then
          Spans.timed spans Spans.Credit ~query:serial (fun () ->
              recovered := Credit.add !recovered held.(site);
              held.(site) <- Credit.zero)
      done
    done;
    (* an origin whose seeds all shipped never drained: its share goes home too *)
    let recovered =
      Spans.timed spans Spans.Credit ~query:serial (fun () ->
          Array.fold_left Credit.add !recovered held)
    in
    counts.queries <- counts.queries + 1;
    counts.objects <- counts.objects + stats.Hf_engine.Stats.objects_processed;
    counts.skipped <- counts.skipped + stats.Hf_engine.Stats.objects_skipped;
    counts.tuples <- counts.tuples + stats.Hf_engine.Stats.tuples_examined;
    counts.marks <-
      Array.fold_left (fun acc m -> acc + Hf_engine.Mark_table.total_marks m) counts.marks marks;
    if
      not
        (Credit.is_one recovered
        && W.equal_digest (W.digest_of_set !results) q.W.expected)
    then begin
      counts.mismatches <- counts.mismatches + 1;
      prerr_endline ("tcpbench: FAILED kernel replay of " ^ q.W.label)
    end

  let rounds = 5

  (* Replay [queries] [rounds] times.  A kernel's cost is its median
     total over the rounds, so a preemption from outside the process
     inflates one round and not the ledger.  The counts are one round's;
     mismatches are summed over all of them. *)
  let replay spans ~stores queries =
    let round () =
      let counts =
        { queries = 0; objects = 0; skipped = 0; tuples = 0; marks = 0; messages = 0; mismatches = 0 }
      in
      let from = Spans.count spans in
      List.iteri (fun serial (origin, q) -> replay_query spans counts ~stores ~serial ~origin q) queries;
      ( counts,
        List.map
          (fun kind -> (kind, Spans.total ~from spans kind))
          [ Spans.Eval; Spans.Encode; Spans.Decode; Spans.Credit ] )
    in
    let runs = List.init rounds (fun _ -> round ()) in
    let counts = fst (List.hd runs) in
    counts.mismatches <- List.fold_left (fun acc (c, _) -> acc + c.mismatches) 0 runs;
    let cost kind =
      let totals = List.map (fun (_, totals) -> List.assoc kind totals) runs in
      {
        Spans.seconds = median (List.map (fun (t : Spans.total) -> t.Spans.seconds) totals);
        words = median (List.map (fun (t : Spans.total) -> t.Spans.words) totals);
      }
    in
    (counts, cost)
end

(* GC pauses read back from the runtime's own event ring (the stdlib
   runtime_events library).  A pause is a minor collection or a major
   slice; phases nested inside one collapse into the outermost. *)
module Pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    durations : Samples.t;
  }

  let is_pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let start () =
    Runtime_events.start ();
    let durations = Samples.create () in
    let depth = ref 0 and began = ref 0L in
    let stamp = Runtime_events.Timestamp.to_int64 in
    let runtime_begin _ring ts phase =
      if is_pause phase then begin
        if !depth = 0 then began := stamp ts;
        incr depth
      end
    in
    let runtime_end _ring ts phase =
      if is_pause phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          Samples.add durations (Int64.to_float (Int64.sub (stamp ts) !began) *. 1e-9)
      end
    in
    (* an overwritten stretch of the ring loses its begin/end pairing *)
    let lost_events _ring _count = depth := 0 in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
      durations;
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  let reset t =
    poll t;
    Samples.clear t.durations
end

(* --- answers --- *)

let failures_printed = ref 0

(* Failures go to standard error; the first twenty are spelled out. *)
let report_failure fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures_printed;
      if !failures_printed <= 20 then prerr_endline ("tcpbench: FAILED " ^ msg))
    fmt

let status_name = function
  | Tcp.Complete -> "complete"
  | Tcp.Partial _ -> "partial"
  | Tcp.Timed_out -> "timed out"
  | Tcp.Cancelled -> "cancelled"

(* An answer passes when it is Complete and its result set has the
   oracle's digest. *)
let check (q : W.query) (o : Tcp.outcome) =
  match o.Tcp.status with
  | Tcp.Complete ->
    let got = W.digest_of_set o.Tcp.result_set in
    W.equal_digest got q.W.expected
    || begin
         report_failure "%s: %d result(s) do not match the oracle's %d" q.W.label got.W.size
           q.W.expected.W.size;
         false
       end
  | status ->
    report_failure "%s: status %s" q.W.label (status_name status);
    false

(* --corrupt-digest: flip the oracle digest of the first measured query,
   which that query and every later draw of its pool entry must then
   fail. *)
let corrupt_next = ref false

let next_query gen =
  let q = W.next gen in
  if !corrupt_next then begin
    corrupt_next := false;
    q.W.expected <- { q.W.expected with W.hash = q.W.expected.W.hash lxor 1 }
  end;
  q

(* --- one measured phase --- *)

type phase = {
  latency : Samples.t;  (* client-observed, seconds *)
  submit : Samples.t;  (* time spent inside submit_query *)
  reported : Samples.t;  (* the outcome's response_time *)
  tail : Samples.t;  (* latency minus response_time *)
  queue_wait : Samples.t;  (* the outcome's admission wait *)
  mutable attempted : int;
  mutable failed : int;  (* wrong or incomplete answers *)
  mutable rejected : int;  (* admission rejections, counted by the submitter *)
  mutable scattered : int;
  mutable queued : int;
  mutable gen_lag_max : float;
  mutable ran : (int * W.query) list;  (* (origin, query) of the first completions *)
  mutable wall : float;
  mutable cpu : float;  (* process CPU seconds, the benchmark's hook left out *)
  mutable minor_words : float;  (* likewise *)
  mutable hook_cpu : float;  (* CPU seconds and minor words spent in the hook *)
  mutable hook_words : float;
  mutable minor_collections : int;
  mutable promoted_words : float;
  mutable registry : Registry.snapshot;  (* deltas, summed over the sites *)
}

let new_phase () =
  {
    latency = Samples.create ();
    submit = Samples.create ();
    reported = Samples.create ();
    tail = Samples.create ();
    queue_wait = Samples.create ();
    attempted = 0;
    failed = 0;
    rejected = 0;
    scattered = 0;
    queued = 0;
    gen_lag_max = 0.0;
    ran = [];
    wall = 0.0;
    cpu = 0.0;
    minor_words = 0.0;
    hook_cpu = 0.0;
    hook_words = 0.0;
    minor_collections = 0;
    promoted_words = 0.0;
    registry = [];
  }

let completed ph = Samples.length ph.latency

let failures ph = ph.failed + ph.rejected

let record ph ~origin (q : W.query) (o : Tcp.outcome) ~due ~t0 ~t1 ~t2 =
  let latency = t2 -. due in
  Samples.add ph.latency latency;
  Samples.add ph.submit (t1 -. t0);
  Samples.add ph.reported o.Tcp.response_time;
  Samples.add ph.tail (latency -. o.Tcp.response_time);
  Samples.add ph.queue_wait o.Tcp.queue_wait_s;
  (* an admitted query is seeded inside submit_query; a queued one only
     after it has returned *)
  if o.Tcp.queue_wait_s > t1 -. t0 then ph.queued <- ph.queued + 1;
  if Hf_query.Plan.equal_mode o.Tcp.mode Hf_query.Plan.Scatter then
    ph.scattered <- ph.scattered + 1;
  if completed ph <= replay_limit then ph.ran <- (origin, q) :: ph.ran;
  if not (check q o) then ph.failed <- ph.failed + 1

type cluster = { sites : Tcp.t array; placed : Synthetic.placed }

let shutdown cl = Array.iter Tcp.shutdown cl.sites

(* Closed loop: one client at site 0 issues its next query only when the
   previous one has returned. *)
let closed_loop cl gen ph ~until ~after =
  let site = cl.sites.(0) in
  while now () < until do
    let q = next_query gen in
    let serial = ph.attempted in
    ph.attempted <- serial + 1;
    let t0 = now () in
    let handle = Tcp.submit_query site q.W.program q.W.initial in
    let t1 = now () in
    let o = Tcp.await ~timeout:await_timeout site handle in
    let t2 = now () in
    record ph ~origin:0 q o ~due:t0 ~t0 ~t1 ~t2;
    after ~serial ~t0 ~t1 ~t2
  done;
  now ()

type pending = {
  origin : int;
  handle : Tcp.handle;
  query : W.query;
  serial : int;
  due : float;
  t0 : float;
  t1 : float;
}

(* Open loop: a burst of [burst_size] queries is due every
   [burst_period] at one origin, the origin rotating over the sites.
   This thread submits; a second one awaits in submission order (there
   is no await-any), and latency runs from the burst's due time. *)
let open_loop cl gen ph ~start ~seconds ~after ~rewrite ~origins =
  let queue = Queue.create () in
  let lock = Mutex.create () in
  let ready = Condition.create () in
  let push item =
    Mutex.lock lock;
    Queue.push item queue;
    Condition.signal ready;
    Mutex.unlock lock
  in
  let pop () =
    Mutex.lock lock;
    while Queue.is_empty queue do
      Condition.wait ready lock
    done;
    let item = Queue.pop queue in
    Mutex.unlock lock;
    item
  in
  let last_done = ref start in
  let rec await_all () =
    match pop () with
    | None -> ()
    | Some p ->
      let o = Tcp.await ~timeout:await_timeout cl.sites.(p.origin) p.handle in
      let t2 = now () in
      record ph ~origin:p.origin p.query o ~due:p.due ~t0:p.t0 ~t1:p.t1 ~t2;
      last_done := t2;
      after ~serial:p.serial ~t0:p.t0 ~t1:p.t1 ~t2;
      await_all ()
  in
  let awaiter = Thread.create await_all () in
  let bursts = Int.max 1 (int_of_float (seconds /. burst_period)) in
  for k = 0 to bursts - 1 do
    let due = start +. (float_of_int k *. burst_period) in
    let ahead = due -. now () in
    if ahead > 0.0 then Thread.delay ahead;
    ph.gen_lag_max <- Float.max ph.gen_lag_max (now () -. due);
    rewrite ();
    let origin = origins.(k mod Array.length origins) in
    for _ = 1 to burst_size do
      let query = next_query gen in
      let serial = ph.attempted in
      ph.attempted <- serial + 1;
      let t0 = now () in
      match Tcp.submit_query cl.sites.(origin) query.W.program query.W.initial with
      | handle -> push (Some { origin; handle; query; serial; due; t0; t1 = now () })
      | exception Failure reason ->
        ph.rejected <- ph.rejected + 1;
        report_failure "%s: admission rejected (%s)" query.W.label reason
    done
  done;
  push None;
  Thread.join awaiter;
  !last_done

(* A content-preserving rewrite: an existing object replaced by its own
   tuples.  The store version moves, which invalidates cached verdicts
   and re-sends Bloom summaries, while every oracle answer stays valid. *)
let rewrite cl prng () =
  let i = Prng.next_int prng (Array.length cl.placed.Synthetic.oids) in
  let oid = cl.placed.Synthetic.oids.(i) in
  let store = Tcp.store cl.sites.(cl.placed.Synthetic.site_of.(i)) in
  Option.iter
    (fun obj -> Store.replace store (Hf_data.Hobject.of_tuples oid (Hf_data.Hobject.tuples obj)))
    (Store.find store oid)

type setup_times = { sites_s : float; load_s : float; warmup_s : float }

(* Create the sites, introduce them to each other, load the corpus and
   warm up.  Warm-up answers are checked like every other. *)
let setup kind dataset ~tracer ~warmup warm =
  Gc.full_major ();
  let t0 = now () in
  let sites = Array.init W.n_sites (W.create_site kind ~tracer) in
  let addresses = Array.map Tcp.address sites in
  Array.iter (fun site -> Tcp.set_peers site addresses) sites;
  let t1 = now () in
  let placed =
    Synthetic.materialize dataset ~n_sites:W.n_sites ~store_of:(fun s -> Tcp.store sites.(s))
  in
  let t2 = now () in
  let answers =
    List.map
      (fun (origin, (q : W.query)) ->
        (q, Tcp.run_query ~timeout:await_timeout sites.(origin) q.W.program q.W.initial))
      warmup
  in
  let t3 = now () in
  List.iter
    (fun (q, o) ->
      warm.attempted <- warm.attempted + 1;
      if not (check q o) then warm.failed <- warm.failed + 1)
    answers;
  ({ sites; placed }, { sites_s = t1 -. t0; load_s = t2 -. t1; warmup_s = t3 -. t2 })

let registry_snapshot cl =
  Registry.merge_snapshots
    (Array.to_list (Array.map (fun site -> Registry.snapshot (Tcp.registry site)) cl.sites))

let no_hook ~serial:_ ~t0:_ ~t1:_ ~t2:_ = ()

(* [after] runs once per completed query.  It is the benchmark's own
   work (span records, GC-ring polls, tracer drains), so its CPU and
   minor words are kept out of the phase's totals. *)
let measure kind cl gen ~seconds ~after ~rewrite ~origins =
  let ph = new_phase () in
  let after ~serial ~t0 ~t1 ~t2 =
    let cpu0 = cpu_seconds () in
    let words0 = Gc.minor_words () in
    after ~serial ~t0 ~t1 ~t2;
    ph.hook_words <- ph.hook_words +. (Gc.minor_words () -. words0);
    ph.hook_cpu <- ph.hook_cpu +. (cpu_seconds () -. cpu0)
  in
  Gc.compact ();
  let registry0 = registry_snapshot cl in
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  let cpu0 = cpu_seconds () in
  let start = now () in
  let finish =
    match kind with
    | W.Ship_local | W.Ship_remote -> closed_loop cl gen ph ~until:(start +. seconds) ~after
    | W.Service_mix -> open_loop cl gen ph ~start ~seconds ~after ~rewrite ~origins
  in
  let cpu1 = cpu_seconds () in
  let words1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  ph.registry <- Registry.diff ~older:registry0 ~newer:(registry_snapshot cl);
  ph.wall <- finish -. start;
  ph.cpu <- cpu1 -. cpu0 -. ph.hook_cpu;
  ph.minor_words <- words1 -. words0 -. ph.hook_words;
  ph.minor_collections <- gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  ph.promoted_words <- gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
  ph

(* --- metrics --- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

let cpu_per_query ph = ph.cpu /. float_of_int (Int.max 1 (completed ph))

let counter snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Registry.Counter_value n) -> float_of_int n
  | Some _ | None -> 0.0

(* A percentile from a histogram's power-of-two buckets, linear inside
   the bucket: registry deltas carry bucket shapes, not samples. *)
let bucket_percentile snapshot name p =
  match List.assoc_opt name snapshot with
  | Some (Registry.Histogram_value h) when Histogram.count h > 0 ->
    let target = p *. float_of_int (Histogram.count h) in
    let rec walk seen = function
      | [] -> Histogram.vmax h
      | (i, n) :: rest ->
        let upto = seen +. float_of_int n in
        if upto < target then walk upto rest
        else begin
          let lo, hi = Histogram.bucket_bounds i in
          let lo = if Float.is_finite lo then lo else 0.0 in
          let hi = if Float.is_finite hi then hi else Histogram.vmax h in
          lo +. ((hi -. lo) *. ((target -. seen) /. float_of_int n))
        end
    in
    walk 0.0 (Histogram.buckets h)
  | Some _ | None -> 0.0

let heap_top_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

let end_to_end ph ~setup_s ~heap_mb =
  let n = float_of_int (Int.max 1 (completed ph)) in
  [
    ("latency_p50_ms", "ms", 1e3 *. Samples.percentile ph.latency 0.5);
    ("latency_p99_ms", "ms", 1e3 *. Samples.percentile ph.latency 0.99);
    ("throughput_qps", "queries/s", ratio (float_of_int (completed ph)) ph.wall);
    ("cpu_ms_per_query", "ms", 1e3 *. cpu_per_query ph);
    ("alloc_kwords_per_query", "kwords", ph.minor_words /. n /. 1e3);
    ("messages_per_query", "count", counter ph.registry "hf.net.messages_sent" /. n);
    ("bytes_per_query", "B", counter ph.registry "hf.net.bytes_sent" /. n);
    ("heap_top_mb", "MB", heap_mb);
    ("setup_s", "s", setup_s);
  ]

(* The per-layer ledger.  [a] is the untraced phase (ledger totals,
   registry counts, client-API and GC figures), [b] the traced phase
   (Ship transit, spans, traced CPU), [kernel] the replay's median cost
   of each kernel.
   Codec and credit work happens once per message: their per-message
   costs from the replay are scaled by the messages per query that the
   registry counted in [a].  The remainder is what the named parts do
   not cover, so the two ledgers close exactly. *)
let per_layer ~a ~b ~kernel ~(counts : Kernel.counts) ~times ~transit ~spans_seen ~pauses =
  let qa = float_of_int (Int.max 1 (completed a)) in
  let qb = float_of_int (Int.max 1 (completed b)) in
  let reg = a.registry in
  let per_query name = counter reg name /. qa in
  let messages = per_query "hf.net.messages_sent" in
  let cpu_ms = 1e3 *. cpu_per_query a in
  let alloc_kw = a.minor_words /. qa /. 1e3 in
  let eval = kernel Spans.Eval in
  let encode = kernel Spans.Encode in
  let decode = kernel Spans.Decode in
  let credit = kernel Spans.Credit in
  let replayed = float_of_int (Int.max 1 counts.Kernel.queries) in
  let shipped = float_of_int (Int.max 1 counts.Kernel.messages) in
  let objects = float_of_int counts.Kernel.objects in
  let eval_ms = 1e3 *. eval.Spans.seconds /. replayed in
  let eval_kw = eval.Spans.words /. replayed /. 1e3 in
  let encode_us = 1e6 *. encode.Spans.seconds /. shipped in
  let decode_us = 1e6 *. decode.Spans.seconds /. shipped in
  let codec_kw_per_msg = (encode.Spans.words +. decode.Spans.words) /. shipped /. 1e3 in
  let codec_ms = (encode_us +. decode_us) *. messages /. 1e3 in
  let codec_kw = codec_kw_per_msg *. messages in
  let credit_ms = 1e3 *. credit.Spans.seconds /. shipped *. messages in
  let credit_kw = credit.Spans.words /. shipped /. 1e3 *. messages in
  let hits = counter reg "hf.net.cache_hits" in
  let misses = counter reg "hf.net.cache_misses" in
  let setup f = median (List.map f times) in
  [
    ("tcp_site.await_tail_ms_p50", "ms", 1e3 *. Samples.percentile a.tail 0.5);
    ("tcp_site.reported_ms_p50", "ms", 1e3 *. Samples.percentile a.reported 0.5);
    ("tcp_site.reported_ms_p99", "ms", 1e3 *. Samples.percentile a.reported 0.99);
    ("tcp_site.submit_us_p50", "us", 1e6 *. Samples.percentile a.submit 0.5);
    ("eval.objects_per_query", "count", objects /. replayed);
    ("eval.tuples_per_query", "count", float_of_int counts.Kernel.tuples /. replayed);
    ( "eval.skipped_frac",
      "fraction",
      ratio (float_of_int counts.Kernel.skipped) (objects +. float_of_int counts.Kernel.skipped) );
    ("eval.us_per_object", "us", 1e6 *. ratio eval.Spans.seconds objects);
    ("eval.ms_per_query", "ms", eval_ms);
    ("eval.kwords_per_query", "kwords", eval_kw);
    ("mark_table.marks_per_query", "count", float_of_int counts.Kernel.marks /. replayed);
    ("codec.encode_us_per_msg", "us", encode_us);
    ("codec.decode_us_per_msg", "us", decode_us);
    ("codec.kwords_per_msg", "kwords", codec_kw_per_msg);
    ("codec.ms_per_query", "ms", codec_ms);
    ("codec.kwords_per_query", "kwords", codec_kw);
    ("tcp_site.frame_bytes_p50", "B", bucket_percentile reg "hf.net.sent_frame_bytes" 0.5);
    ("credit.ms_per_query", "ms", credit_ms);
    ("credit.kwords_per_query", "kwords", credit_kw);
    ("tcp_site.ship_transit_us_p50", "us", 1e6 *. Samples.percentile transit 0.5);
    ("tcp_site.other_ms_per_query", "ms", cpu_ms -. eval_ms -. codec_ms -. credit_ms);
    ("tcp_site.other_kwords_per_query", "kwords", alloc_kw -. eval_kw -. codec_kw -. credit_kw);
    ("sched.admission_wait_ms_p50", "ms", 1e3 *. Samples.percentile a.queue_wait 0.5);
    ("sched.admission_wait_ms_p99", "ms", 1e3 *. Samples.percentile a.queue_wait 0.99);
    ("sched.queued_frac", "fraction", float_of_int a.queued /. qa);
    ("reliable.acks_per_query", "count", per_query "hf.net.acks_sent");
    ("reliable.retransmits_per_query", "count", per_query "hf.net.retransmits");
    ("reliable.dup_drops_per_query", "count", per_query "hf.net.dup_drops");
    ("reliable.ack_latency_ms_p50", "ms", 1e3 *. bucket_percentile reg "hf.net.ack_latency_s" 0.5);
    ("plan.scatter_share", "fraction", float_of_int a.scattered /. qa);
    ("scatter.gather_nodes_per_query", "count", per_query "hf.net.gather_nodes");
    ("scatter.fallbacks_per_query", "count", per_query "hf.net.scatter_fallbacks");
    ("remote_cache.validations_per_query", "count", per_query "hf.net.cache_validations");
    ("remote_cache.hit_ratio", "fraction", ratio hits (hits +. misses));
    ("remote_cache.prunes_per_query", "count", per_query "hf.net.cache_prunes");
    ("remote_cache.invalidations_per_query", "count", per_query "hf.net.cache_invalidations");
    ("bloofi.probes_per_query", "count", per_query "hf.index.bloofi_probes");
    ("bloofi.pruned_sites_per_query", "count", per_query "hf.index.bloofi_pruned_sites");
    ("tracer.overhead_frac", "fraction", ratio (cpu_per_query b) (cpu_per_query a) -. 1.0);
    ("tracer.spans_per_query", "count", float_of_int spans_seen /. qb);
    ("gc.minor_per_query", "count", float_of_int a.minor_collections /. qa);
    ("gc.promoted_kwords_per_query", "kwords", a.promoted_words /. qa /. 1e3);
    ("gc.pause_ms_p99", "ms", 1e3 *. Samples.percentile pauses 0.99);
    ("gc.pause_ms_per_query", "ms", 1e3 *. Samples.sum pauses /. qa);
    ("bench.gen_lag_ms_max", "ms", 1e3 *. a.gen_lag_max);
    ("setup.sites_s", "s", setup (fun t -> t.sites_s));
    ("setup.load_s", "s", setup (fun t -> t.load_s));
    ("setup.warmup_s", "s", setup (fun t -> t.warmup_s));
    ("ledger.cpu_ms_per_query", "ms", cpu_ms);
    ("ledger.alloc_kwords_per_query", "kwords", alloc_kw);
  ]

(* --- output --- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_phase name ph =
  let n = completed ph in
  Printf.printf
    "%s: %d attempted, %d completed in %.3f s, %d failed; %d latency samples (%d beyond p99)\n"
    name ph.attempted n ph.wall (failures ph) n (n / 100)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-38s %16.6f %s\n" name v unit) metrics;
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let usage =
  "tcpbench.exe --workload ship-local|ship-remote|service-mix [--seed N] [--seconds S] [--trace \
   0|1] [--corrupt-digest]"

(* With --trace 1, the benchmark's spans are written here, relative to
   the working directory. *)
let spans_dir = ".tcpbench"

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 32.0 in
  let trace = ref 0 in
  let corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ship-local, ship-remote or service-mix");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 32)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0, default) or per-layer ledger (1)");
      ("--corrupt-digest", Arg.Set corrupt, " corrupt the first measured query's oracle digest");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  let kind =
    match List.assoc_opt !workload W.kinds with
    | Some kind -> kind
    | None ->
      prerr_endline usage;
      exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  Printf.printf "tcpbench %s, seed %d, %g s, trace %d\n%!" !workload !seed !seconds !trace;
  (* Inputs: the fixed corpus, then the seeded query pool and its oracle
     digests, computed before anything is timed. *)
  let dataset = Synthetic.generate () in
  let oracle_stores = Array.init W.n_sites (fun site -> Store.create ~site) in
  let placed =
    Synthetic.materialize dataset ~n_sites:W.n_sites ~store_of:(fun s -> oracle_stores.(s))
  in
  let prng = Prng.create !seed in
  let pool = W.make_pool kind (Prng.split prng) placed in
  W.set_oracle pool ~find:(fun oid -> Store.find oracle_stores.(Oid.birth_site oid) oid);
  let gen = W.generator pool (Prng.split prng) in
  let rewrite_prng = Prng.split prng in
  let origins = Array.init W.n_sites Fun.id in
  Prng.shuffle_in_place (Prng.split prng) origins;
  let warmup = W.warmup kind pool in
  (* Set up several times: setup_s is the median, and the last cluster
     carries the load. *)
  let warm = new_phase () in
  let times = ref [] in
  let cluster = ref None in
  for _ = 1 to setups do
    Option.iter shutdown !cluster;
    let cl, t = setup kind dataset ~tracer:Hf_obs.Tracer.noop ~warmup warm in
    times := t :: !times;
    cluster := Some cl
  done;
  let cl = Option.get !cluster in
  let setup_s = median (List.map (fun t -> t.sites_s +. t.load_s +. t.warmup_s) !times) in
  let measure_on cl ~seconds ~after =
    measure kind cl gen ~seconds ~after ~rewrite:(rewrite cl rewrite_prng) ~origins
  in
  corrupt_next := !corrupt;
  let phases, metrics, replay_failures =
    if !trace = 0 then begin
      let a = measure_on cl ~seconds:!seconds ~after:no_hook in
      shutdown cl;
      print_phase "measured" a;
      ([ a ], end_to_end a ~setup_s ~heap_mb:(heap_top_mb ()), 0)
    end
    else begin
      (* Phase A: untraced sites, GC pauses read from the runtime ring. *)
      let pauses = Pauses.start () in
      Pauses.reset pauses;
      let a =
        measure_on cl ~seconds:(!seconds /. 2.0) ~after:(fun ~serial:_ ~t0:_ ~t1:_ ~t2:_ ->
            Pauses.poll pauses)
      in
      Pauses.poll pauses;
      Runtime_events.pause ();
      shutdown cl;
      (* Phase B: a fresh cluster whose sites share one wall-clock tracer. *)
      let tracer = Hf_obs.Tracer.create ~limit:1_000_000 ~clock:now () in
      let traced, _ = setup kind dataset ~tracer ~warmup warm in
      Hf_obs.Tracer.clear tracer;
      let spans = Spans.create () in
      let transit = Samples.create () in
      let spans_seen = ref 0 in
      (* Fold finished Ship spans into transit times and empty the tracer. *)
      let drain () =
        let all = Hf_obs.Tracer.spans tracer in
        spans_seen := !spans_seen + List.length all + Hf_obs.Tracer.dropped tracer;
        Hf_obs.Tracer.clear tracer;
        List.iter
          (fun (s : Hf_obs.Span.t) ->
            match s.Hf_obs.Span.phase with
            | Hf_obs.Span.Ship when s.Hf_obs.Span.finish > s.Hf_obs.Span.start ->
              Samples.add transit (s.Hf_obs.Span.finish -. s.Hf_obs.Span.start)
            | _ -> ())
          all
      in
      (* with one query in flight its spans are complete once await returns *)
      let drain_each = match kind with W.Service_mix -> false | W.Ship_local | W.Ship_remote -> true in
      let span kind ~query ~start ~stop =
        Spans.add spans kind ~query ~start_ns:(start *. 1e9) ~dur_ns:((stop -. start) *. 1e9)
          ~words:0.0
      in
      let after ~serial ~t0 ~t1 ~t2 =
        span Spans.Submit ~query:serial ~start:t0 ~stop:t1;
        span Spans.Await ~query:serial ~start:t1 ~stop:t2;
        if drain_each then drain ()
      in
      let b = measure_on traced ~seconds:(!seconds /. 2.0) ~after in
      drain ();
      let counts, kernel =
        Kernel.replay spans ~stores:(Array.map Tcp.store traced.sites) (List.rev b.ran)
      in
      shutdown traced;
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      Spans.write spans (Filename.concat spans_dir (Printf.sprintf "spans-%s.tsv" !workload));
      print_phase "untraced phase" a;
      print_phase "traced phase" b;
      Printf.printf
        "kernel replay: %d rounds of %d queries, %d objects, %d messages, %d mismatches\n"
        Kernel.rounds counts.Kernel.queries counts.Kernel.objects counts.Kernel.messages
        counts.Kernel.mismatches;
      ( [ a; b ],
        per_layer ~a ~b ~kernel ~counts ~times:!times ~transit
          ~spans_seen:!spans_seen ~pauses:pauses.Pauses.durations,
        counts.Kernel.mismatches )
    end
  in
  let attempted = List.fold_left (fun acc ph -> acc + ph.attempted) warm.attempted phases in
  let failed =
    List.fold_left (fun acc ph -> acc + failures ph) (failures warm) phases + replay_failures
  in
  let correct = failed = 0 && attempted > 0 in
  Printf.printf "warm-up: %d queries, %d failed\n" warm.attempted (failures warm);
  Printf.printf "all: %d attempted, %d failed (failed_frac %.6f)\n" attempted failed
    (ratio (float_of_int failed) (float_of_int attempted));
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
