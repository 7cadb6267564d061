(* Tests for the observability layer: log-bucketed histograms, the
   metrics registry, the span tracer and its exports, the traced wire
   envelope, and a golden causal-chain test on a 2-site cluster — the
   PR's acceptance property that every remote-site span has a parent on
   the originating site. *)

module Histogram = Hf_obs.Histogram
module Registry = Hf_obs.Registry
module Tracer = Hf_obs.Tracer
module Span = Hf_obs.Span
module Json = Hf_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- histogram: bucket boundaries -------------------------------------- *)

let test_bucket_edges () =
  (* bucket 0 catches zero and negatives *)
  check_int "zero" 0 (Histogram.bucket_index 0.0);
  check_int "negative" 0 (Histogram.bucket_index (-3.0));
  (* the overflow bucket catches huge values *)
  check_int "overflow" (Histogram.n_buckets - 1) (Histogram.bucket_index 1e300);
  (* interior buckets: lo inclusive, hi exclusive *)
  for i = 1 to Histogram.n_buckets - 2 do
    let lo, hi = Histogram.bucket_bounds i in
    check_int (Printf.sprintf "lo of bucket %d" i) i (Histogram.bucket_index lo);
    check_int (Printf.sprintf "hi of bucket %d" i) (i + 1) (Histogram.bucket_index hi);
    check_bool (Printf.sprintf "lo < hi at %d" i) true (lo < hi)
  done;
  (* a value strictly inside its bucket's bounds *)
  let i = Histogram.bucket_index 2.5 in
  let lo, hi = Histogram.bucket_bounds i in
  check_bool "2.5 within bounds" true (lo <= 2.5 && 2.5 < hi)

let test_bucket_nan_rejected () =
  check_bool "bucket_index nan raises" true
    (match Histogram.bucket_index nan with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let h = Histogram.create () in
  check_bool "observe nan raises" true
    (match Histogram.observe h nan with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- histogram: percentiles match Hf_util.Stats ------------------------ *)

let test_percentiles_match_stats () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = Histogram.create () in
  Array.iter (Histogram.observe h) samples;
  let expected = Hf_util.Stats.summarize samples in
  match Histogram.summary h with
  | None -> Alcotest.fail "summary on non-empty histogram"
  | Some s ->
      check_int "count" expected.Hf_util.Stats.count s.Hf_util.Stats.count;
      check_float "mean" expected.Hf_util.Stats.mean s.Hf_util.Stats.mean;
      check_float "p50" expected.Hf_util.Stats.p50 s.Hf_util.Stats.p50;
      check_float "p90" expected.Hf_util.Stats.p90 s.Hf_util.Stats.p90;
      check_float "p99" expected.Hf_util.Stats.p99 s.Hf_util.Stats.p99;
      check_float "min" expected.Hf_util.Stats.min s.Hf_util.Stats.min;
      check_float "max" expected.Hf_util.Stats.max s.Hf_util.Stats.max

let test_empty_summary () =
  check_bool "empty histogram has no summary" true
    (Histogram.summary (Histogram.create ()) = None)

let test_reservoir_bound () =
  let h = Histogram.create ~sample_limit:8 () in
  for i = 1 to 20 do
    Histogram.observe h (float_of_int i)
  done;
  check_int "count includes all" 20 (Histogram.count h);
  check_int "dropped past the reservoir" 12 (Histogram.dropped_samples h);
  (* exact aggregates still include dropped samples *)
  check_float "sum" 210.0 (Histogram.sum h);
  match Histogram.summary h with
  | None -> Alcotest.fail "summary"
  | Some s ->
      check_int "summary count" 20 s.Hf_util.Stats.count;
      check_float "summary max exact" 20.0 s.Hf_util.Stats.max

let test_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1.0; 2.0 ];
  List.iter (Histogram.observe b) [ 4.0; 8.0; 16.0 ];
  let m = Histogram.merge a b in
  check_int "merged count" 5 (Histogram.count m);
  check_float "merged sum" 31.0 (Histogram.sum m);
  check_int "inputs untouched" 2 (Histogram.count a);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets m) in
  check_int "bucket counts add up" 5 total

(* --- histogram: wire shape and merge stability ------------------------- *)

let test_of_shape () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0.5; 2.0; 2.5; 100.0 ];
  let rebuilt =
    Histogram.of_shape ~count:(Histogram.count h) ~sum:(Histogram.sum h)
      ~vmin:(Histogram.vmin h) ~vmax:(Histogram.vmax h) ~buckets:(Histogram.buckets h) ()
  in
  check_int "count survives" (Histogram.count h) (Histogram.count rebuilt);
  check_float "sum survives" (Histogram.sum h) (Histogram.sum rebuilt);
  check_float "min survives" (Histogram.vmin h) (Histogram.vmin rebuilt);
  check_float "max survives" (Histogram.vmax h) (Histogram.vmax rebuilt);
  check_bool "bucket shape exact" true (Histogram.buckets h = Histogram.buckets rebuilt);
  (* the reservoir does not cross the wire *)
  check_bool "no percentiles after the wire" true (Histogram.summary rebuilt = None);
  (* validation: the decoder faces the network *)
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "negative count rejected" true
    (raises (fun () ->
         Histogram.of_shape ~count:(-1) ~sum:0.0 ~vmin:infinity ~vmax:neg_infinity
           ~buckets:[] ()));
  check_bool "out-of-range bucket rejected" true
    (raises (fun () ->
         Histogram.of_shape ~count:1 ~sum:1.0 ~vmin:1.0 ~vmax:1.0
           ~buckets:[ (Histogram.n_buckets, 1) ] ()));
  check_bool "negative bucket count rejected" true
    (raises (fun () ->
         Histogram.of_shape ~count:1 ~sum:1.0 ~vmin:1.0 ~vmax:1.0 ~buckets:[ (2, -4) ] ()))

let test_merge_percentile_stability () =
  (* Percentiles must be stable under aggregation: merging shards of one
     population reports (within reservoir resolution) the population's
     own percentiles.  This is the property that makes cross-site
     scrape aggregation honest (DESIGN.md §4i). *)
  let population = Array.init 1000 (fun i -> float_of_int (i mod 97) +. 0.5) in
  let whole = Histogram.create () in
  Array.iter (Histogram.observe whole) population;
  let shards = Array.init 4 (fun _ -> Histogram.create ()) in
  Array.iteri (fun i v -> Histogram.observe shards.(i mod 4) v) population;
  let merged = Array.fold_left Histogram.merge (Histogram.create ()) shards in
  check_int "merged count" (Histogram.count whole) (Histogram.count merged);
  check_float "merged sum" (Histogram.sum whole) (Histogram.sum merged);
  check_bool "merged buckets exact" true (Histogram.buckets whole = Histogram.buckets merged);
  match (Histogram.summary whole, Histogram.summary merged) with
  | Some w, Some m ->
      Alcotest.(check (float 1e-9)) "p50 stable" w.Hf_util.Stats.p50 m.Hf_util.Stats.p50;
      Alcotest.(check (float 1e-9)) "p90 stable" w.Hf_util.Stats.p90 m.Hf_util.Stats.p90;
      Alcotest.(check (float 1e-9)) "p99 stable" w.Hf_util.Stats.p99 m.Hf_util.Stats.p99;
      Alcotest.(check (float 1e-9)) "max stable" w.Hf_util.Stats.max m.Hf_util.Stats.max
  | _ -> Alcotest.fail "summaries present on both"

let test_histogram_diff () =
  let older = Histogram.create () in
  List.iter (Histogram.observe older) [ 1.0; 2.0 ];
  let newer = Histogram.copy older in
  List.iter (Histogram.observe newer) [ 4.0; 8.0 ];
  let d = Histogram.diff ~older ~newer in
  check_int "diff count" 2 (Histogram.count d);
  check_float "diff sum" 12.0 (Histogram.sum d);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.buckets d) in
  check_int "diff buckets hold the delta" 2 total;
  (* a restarted source must clamp, not go negative *)
  let reset = Histogram.create () in
  Histogram.observe reset 1.0;
  let clamped = Histogram.diff ~older:newer ~newer:reset in
  check_int "clamped at zero across a reset" 0 (Histogram.count clamped);
  check_float "sum falls back to newer's across a reset" 1.0 (Histogram.sum clamped);
  List.iter
    (fun (_, c) -> check_bool "no negative buckets" true (c >= 0))
    (Histogram.buckets clamped)

(* --- registry ----------------------------------------------------------- *)

let test_registry_views () =
  let r = Registry.create () in
  let hits = ref 0 in
  Registry.register_counter r "hf.test.hits" (fun () -> !hits);
  Registry.register_gauge r "hf.test.load" (fun () -> 0.5);
  let h = Registry.histogram r "hf.test.latency_s" in
  Histogram.observe h 0.25;
  hits := 7;
  (* views read live storage at report time *)
  (match Registry.find r "hf.test.hits" with
  | Some (Registry.Counter read) -> check_int "live counter" 7 (read ())
  | _ -> Alcotest.fail "counter lookup");
  let owned = Registry.counter r "hf.test.owned" in
  incr owned;
  (match Registry.find r "hf.test.owned" with
  | Some (Registry.Counter read) -> check_int "owned counter" 1 (read ())
  | _ -> Alcotest.fail "owned lookup");
  check_int "names registered" 4 (List.length (Registry.names r))

let test_registry_duplicate_rejected () =
  let r = Registry.create () in
  Registry.register_counter r "hf.test.x" (fun () -> 0);
  check_bool "duplicate raises" true
    (match Registry.register_counter r "hf.test.x" (fun () -> 1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "empty name raises" true
    (match Registry.register_gauge r "" (fun () -> 0.0) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_registry_json_sorted () =
  let r = Registry.create () in
  Registry.register_counter r "hf.test.b" (fun () -> 2);
  Registry.register_counter r "hf.test.a" (fun () -> 1);
  match Registry.to_json r with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "sorted by name" [ "hf.test.a"; "hf.test.b" ] (List.map fst fields)
  | _ -> Alcotest.fail "registry json is an object"

(* --- registry snapshots: capture, diff, cross-site merge ---------------- *)

let test_snapshot_capture_and_diff () =
  let r = Registry.create () in
  let hits = Registry.counter r "hf.t.hits" in
  Registry.register_gauge r "hf.t.depth" (fun () -> float_of_int !hits) ;
  let h = Registry.histogram r "hf.t.wait_s" in
  hits := 3;
  Histogram.observe h 0.5;
  let before = Registry.snapshot r in
  (* snapshots are point-in-time: later mutation must not leak in *)
  hits := 10;
  Histogram.observe h 2.0;
  (match List.assoc_opt "hf.t.hits" before with
  | Some (Registry.Counter_value 3) -> ()
  | _ -> Alcotest.fail "counter captured at 3");
  (match List.assoc_opt "hf.t.wait_s" before with
  | Some (Registry.Histogram_value hh) -> check_int "histogram deep-copied" 1 (Histogram.count hh)
  | _ -> Alcotest.fail "histogram captured");
  let after = Registry.snapshot r in
  let d = Registry.diff ~older:before ~newer:after in
  (match List.assoc_opt "hf.t.hits" d with
  | Some (Registry.Counter_value 7) -> ()
  | _ -> Alcotest.fail "counter diff is the delta");
  (match List.assoc_opt "hf.t.depth" d with
  | Some (Registry.Gauge_value g) -> check_float "gauge diff keeps newer" 10.0 g
  | _ -> Alcotest.fail "gauge diff");
  match List.assoc_opt "hf.t.wait_s" d with
  | Some (Registry.Histogram_value hh) -> check_int "histogram diff is the delta" 1 (Histogram.count hh)
  | _ -> Alcotest.fail "histogram diff"

let test_merge_snapshots () =
  (* three sites, overlapping but not identical registries -- the
     cluster_stats aggregation shape *)
  let site id extra =
    let r = Registry.create () in
    let c = Registry.counter r "hf.t.msgs" in
    c := 10 * (id + 1);
    Registry.register_gauge r "hf.t.running" (fun () -> float_of_int id);
    let h = Registry.histogram r "hf.t.wait_s" in
    Histogram.observe h (float_of_int (id + 1));
    if extra then ignore (Registry.counter r "hf.t.only_here");
    Registry.snapshot r
  in
  let merged = Registry.merge_snapshots [ site 0 false; site 1 true; site 2 false ] in
  (match List.assoc_opt "hf.t.msgs" merged with
  | Some (Registry.Counter_value 60) -> ()
  | _ -> Alcotest.fail "counters sum");
  (match List.assoc_opt "hf.t.running" merged with
  | Some (Registry.Gauge_value g) -> check_float "gauges sum" 3.0 g
  | _ -> Alcotest.fail "gauges");
  (match List.assoc_opt "hf.t.wait_s" merged with
  | Some (Registry.Histogram_value h) ->
      check_int "histograms merge" 3 (Histogram.count h);
      check_float "merged sum" 6.0 (Histogram.sum h)
  | _ -> Alcotest.fail "histograms");
  (match List.assoc_opt "hf.t.only_here" merged with
  | Some (Registry.Counter_value 0) -> ()
  | _ -> Alcotest.fail "partial-coverage metric present");
  (* result stays sorted by name, like any snapshot *)
  let names = List.map fst merged in
  check_bool "sorted" true (names = List.sort compare names)

(* --- prometheus text exposition ----------------------------------------- *)

let test_prometheus_names_and_escapes () =
  Alcotest.(check string) "dotted name sanitized" "hf_net_bytes_sent"
    (Hf_obs.Prometheus.sanitize_name "hf.net.bytes_sent");
  Alcotest.(check string) "leading digit guarded" "_9lives"
    (Hf_obs.Prometheus.sanitize_name "9lives");
  Alcotest.(check string) "label escapes" "a\\\\b\\\"c\\nd"
    (Hf_obs.Prometheus.escape_label_value "a\\b\"c\nd")

let test_prometheus_render () =
  let r = Registry.create () in
  let c = Registry.counter r "hf.t.hits" in
  c := 5;
  Registry.register_gauge r "hf.t.load" (fun () -> 0.75);
  let h = Registry.histogram r "hf.t.wait_s" in
  List.iter (Histogram.observe h) [ 0.5; 3.0 ];
  let text = Hf_obs.Prometheus.render ~labels:[ ("site", "2") ] r in
  check_bool "counter TYPE line" true (contains "# TYPE hf_t_hits counter" text);
  check_bool "counter sample with label" true (contains "hf_t_hits{site=\"2\"} 5" text);
  check_bool "gauge TYPE line" true (contains "# TYPE hf_t_load gauge" text);
  check_bool "gauge sample" true (contains "hf_t_load{site=\"2\"} 0.75" text);
  check_bool "histogram TYPE line" true (contains "# TYPE hf_t_wait_s histogram" text);
  check_bool "le label cumulative" true (contains "hf_t_wait_s_bucket{site=\"2\",le=" text);
  check_bool "+Inf bucket" true (contains "le=\"+Inf\"} 2" text);
  check_bool "sum series" true (contains "hf_t_wait_s_sum{site=\"2\"} 3.5" text);
  check_bool "count series" true (contains "hf_t_wait_s_count{site=\"2\"} 2" text);
  (* every non-comment line carries the label set *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           check_bool ("labelled: " ^ line) true (contains "site=\"2\"" line));
  (* cumulative-bucket invariant: counts never decrease as le grows *)
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if String.length line > 0 && line.[0] <> '#'
              && contains "hf_t_wait_s_bucket" line
           then
             match String.rindex_opt line ' ' with
             | Some i ->
                 Some (int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
             | None -> None
           else None)
  in
  check_bool "at least the +Inf bucket" true (List.length bucket_counts >= 1);
  ignore
    (List.fold_left
       (fun prev cnt ->
         check_bool "cumulative monotone" true (cnt >= prev);
         cnt)
       0 bucket_counts)

(* --- tracer ------------------------------------------------------------- *)

let test_noop_tracer () =
  let t = Tracer.noop in
  check_bool "disabled" false (Tracer.enabled t);
  let id = Tracer.start t ~query:"q" ~site:0 ~phase:Span.Query "root" in
  check_int "noop start returns 0" 0 id;
  Tracer.finish t id;
  check_int "nothing recorded" 0 (Tracer.count t)

let test_span_nesting () =
  let clock = ref 0.0 in
  let t = Tracer.create ~clock:(fun () -> !clock) () in
  let root = Tracer.start t ~query:"q1@0" ~site:0 ~phase:Span.Query "query" in
  clock := 1.0;
  let child = Tracer.start t ~parent:root ~query:"q1@0" ~site:0 ~phase:Span.Eval "site-eval" in
  clock := 2.0;
  Tracer.finish t child;
  clock := 3.0;
  Tracer.finish t root ~detail:"done";
  match Tracer.spans t with
  | [ r; c ] ->
      check_int "root is a root" 0 r.Span.parent;
      check_int "child parents on root" root c.Span.parent;
      check_bool "ids distinct and positive" true (root > 0 && child > 0 && root <> child);
      check_float "child duration" 1.0 (Span.duration c);
      check_float "root duration" 3.0 (Span.duration r);
      Alcotest.(check string) "detail recorded" "done" r.Span.detail
  | spans -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans))

let test_tracer_limit_and_dropped () =
  let t = Tracer.create ~limit:2 () in
  for i = 1 to 5 do
    ignore (Tracer.instant t ~query:"q" ~site:0 ~phase:Span.Flush (Printf.sprintf "e%d" i))
  done;
  check_int "retained up to limit" 2 (Tracer.count t);
  check_int "rest counted as dropped" 3 (Tracer.dropped t);
  Tracer.clear t;
  check_int "clear resets count" 0 (Tracer.count t);
  check_int "clear resets dropped" 0 (Tracer.dropped t)

let test_instant_is_zero_duration () =
  let t = Tracer.create ~clock:(fun () -> 42.0) () in
  ignore (Tracer.instant t ~query:"q" ~site:3 ~phase:Span.Drain "drain");
  match Tracer.spans t with
  | [ s ] ->
      check_float "start = finish" s.Span.start s.Span.finish;
      check_int "site" 3 s.Span.site
  | _ -> Alcotest.fail "one span"

let test_exports () =
  let t = Tracer.create () in
  let root = Tracer.start t ~query:"q1@0" ~site:0 ~phase:Span.Query "query" in
  let child = Tracer.start t ~parent:root ~query:"q1@0" ~site:1 ~phase:Span.Eval "site-eval" in
  Tracer.finish t child;
  Tracer.finish t root;
  let jsonl = Tracer.to_jsonl t in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  check_int "one JSONL line per span" 2 (List.length lines);
  List.iter
    (fun l -> check_bool "line is an object" true (String.length l > 0 && l.[0] = '{'))
    lines;
  let chrome = Tracer.to_chrome_json t in
  check_bool "chrome export has traceEvents" true (contains "traceEvents" chrome);
  check_bool "chrome export has complete events" true (contains "\"ph\":\"X\"" chrome);
  check_bool "chrome export has flow arrows" true (contains "\"ph\":\"s\"" chrome)

(* --- tracer: per-query sampling ------------------------------------------ *)

let test_sampling_whole_queries () =
  (* at an interior rate some queries are kept and some skipped, and the
     decision covers the whole query: either all of a query's spans are
     present or none *)
  let t = Tracer.create ~sample_rate:0.4 ~seed:7 () in
  let queries = List.init 50 (fun i -> Printf.sprintf "q%d@0" i) in
  List.iter
    (fun q ->
      let root = Tracer.start t ~query:q ~site:0 ~phase:Span.Query "query" in
      let child = Tracer.start t ~parent:root ~query:q ~site:1 ~phase:Span.Eval "eval" in
      Tracer.finish t child;
      Tracer.finish t root;
      ignore (Tracer.complete t ~query:q ~site:0 ~phase:Span.Wait ~start:0.0 ~finish:1.0 "wait"))
    queries;
  check_bool "some queries kept" true (Tracer.count t > 0);
  check_bool "some queries skipped" true (Tracer.sampled_out t > 0);
  let spans = Tracer.spans t in
  List.iter
    (fun q ->
      let n =
        List.length (List.filter (fun s -> s.Span.query = q) spans)
      in
      check_bool (q ^ " traced in full or not at all") true (n = 0 || n = 3))
    queries

let test_sampling_deterministic_across_tracers () =
  (* same seed => same decisions on every site; different seed =>
     (almost surely) a different subset *)
  let kept seed =
    let t = Tracer.create ~sample_rate:0.5 ~seed () in
    List.filter_map
      (fun i ->
        let q = Printf.sprintf "q%d@0" i in
        let id = Tracer.start t ~query:q ~site:0 ~phase:Span.Query "q" in
        Tracer.finish t id;
        if id <> 0 then Some q else None)
      (List.init 64 Fun.id)
  in
  check_bool "same seed agrees" true (kept 3 = kept 3);
  check_bool "seed changes the subset" true (kept 3 <> kept 4)

let test_sampling_edge_rates () =
  let all = Tracer.create ~sample_rate:1.0 () in
  let none = Tracer.create ~sample_rate:0.0 () in
  for i = 1 to 20 do
    let q = Printf.sprintf "q%d@0" i in
    ignore (Tracer.instant all ~query:q ~site:0 ~phase:Span.Flush "e");
    ignore (Tracer.instant none ~query:q ~site:0 ~phase:Span.Flush "e")
  done;
  check_int "rate 1.0 keeps everything" 20 (Tracer.count all);
  check_int "rate 1.0 skips nothing" 0 (Tracer.sampled_out all);
  check_int "rate 0.0 keeps nothing" 0 (Tracer.count none);
  check_int "rate 0.0 skips everything" 20 (Tracer.sampled_out none);
  check_bool "bad rate rejected" true
    (match Tracer.create ~sample_rate:1.5 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* sampled-out spans yield id 0, and operations on id 0 are no-ops *)
  let id = Tracer.start none ~query:"q1@0" ~site:0 ~phase:Span.Query "q" in
  check_int "sampled-out start yields 0" 0 id;
  Tracer.set_detail none id "ignored";
  Tracer.finish none id;
  check_int "still nothing recorded" 0 (Tracer.count none);
  Tracer.clear none;
  check_int "clear resets sampled_out" 0 (Tracer.sampled_out none)

let test_tracer_registers_health () =
  let t = Tracer.create ~limit:1 ~sample_rate:0.9999 ~seed:1 () in
  let r = Registry.create () in
  Tracer.register t r ~prefix:"hf.test";
  for i = 1 to 50 do
    ignore (Tracer.instant t ~query:(Printf.sprintf "q%d@0" i) ~site:0 ~phase:Span.Flush "e")
  done;
  let read name =
    match Registry.find r name with
    | Some (Registry.Counter read) -> read ()
    | _ -> Alcotest.fail ("missing " ^ name)
  in
  check_int "trace_spans live" (Tracer.count t) (read "hf.test.trace_spans");
  check_int "trace_dropped live" (Tracer.dropped t) (read "hf.test.trace_dropped");
  check_bool "limit actually dropped some" true (Tracer.dropped t > 0);
  check_int "trace_sampled_out live" (Tracer.sampled_out t) (read "hf.test.trace_sampled_out");
  match Registry.find r "hf.test.trace_sample_rate" with
  | Some (Registry.Gauge read) -> check_float "rate gauge" 0.9999 (read ())
  | _ -> Alcotest.fail "missing rate gauge"

(* --- profile: EXPLAIN ANALYZE from spans --------------------------------- *)

module Profile = Hf_obs.Profile

let test_profile_of_spans () =
  let clock = ref 0.0 in
  let t = Tracer.create ~clock:(fun () -> !clock) () in
  let q = "q1@0" in
  (* origin: query root with a local eval, one ship to site 1, whose
     eval ships again to site 2 -- 2 rounds deep *)
  let root = Tracer.start t ~query:q ~site:0 ~phase:Span.Query "query" in
  let e0 = Tracer.start t ~parent:root ~query:q ~site:0 ~phase:Span.Eval "eval" in
  clock := 1.0;
  Tracer.finish t e0;
  let s1 = Tracer.start t ~parent:e0 ~query:q ~site:0 ~phase:Span.Ship "ship" in
  clock := 1.5;
  Tracer.finish t s1;
  let e1 = Tracer.start t ~parent:s1 ~query:q ~site:1 ~phase:Span.Eval "eval" in
  clock := 2.5;
  Tracer.finish t e1;
  let s2 = Tracer.start t ~parent:e1 ~query:q ~site:1 ~phase:Span.Ship "ship" in
  clock := 3.0;
  Tracer.finish t s2;
  let e2 = Tracer.start t ~parent:s2 ~query:q ~site:2 ~phase:Span.Eval "eval" in
  clock := 4.0;
  Tracer.finish t e2;
  Tracer.finish t root;
  (* noise from another query must be ignored *)
  ignore (Tracer.instant t ~query:"q9@9" ~site:0 ~phase:Span.Flush "noise");
  let p =
    Profile.of_spans ~query:q ~scalars:[ ("messages", Profile.Int 4) ]
      ~dropped:(Tracer.dropped t) (Tracer.spans t)
  in
  check_int "span count excludes other queries" 6 p.Profile.span_count;
  check_float "total is the root's duration" 4.0 p.Profile.total_s;
  check_int "two ship rounds" 2 p.Profile.rounds;
  check_int "three sites" 3 (List.length p.Profile.sites);
  let site n = List.find (fun r -> r.Profile.site = n) p.Profile.sites in
  check_float "site 0 busy" 1.0 (site 0).Profile.busy_s;
  check_float "site 1 busy" 1.0 (site 1).Profile.busy_s;
  check_float "site 2 busy" 1.0 (site 2).Profile.busy_s;
  check_int "site 0 ships" 1 (site 0).Profile.ships;
  check_int "site 1 ships" 1 (site 1).Profile.ships;
  check_int "site 2 ships" 0 (site 2).Profile.ships;
  check_bool "scalar lookup" true (Profile.scalar_int p "messages" = Some 4);
  check_bool "missing scalar" true (Profile.scalar_int p "nope" = None);
  (* renderers stay total *)
  check_bool "pp mentions rounds" true (contains "round" (Fmt.str "%a" Profile.pp p));
  match Profile.to_json p with
  | Json.Obj fields -> check_bool "json has sites" true (List.mem_assoc "sites" fields)
  | _ -> Alcotest.fail "profile json is an object"

let test_profile_without_root () =
  (* spans without a Query root (e.g. root dropped at the limit): the
     extent of the remaining spans stands in for the total *)
  let t = Tracer.create ~clock:(fun () -> 2.0) () in
  ignore (Tracer.complete t ~query:"q" ~site:0 ~phase:Span.Eval ~start:1.0 ~finish:3.0 "e");
  ignore (Tracer.complete t ~query:"q" ~site:1 ~phase:Span.Eval ~start:2.0 ~finish:6.0 "e");
  let p = Profile.of_spans ~query:"q" ~dropped:5 (Tracer.spans t) in
  check_float "extent" 5.0 p.Profile.total_s;
  check_int "dropped recorded" 5 p.Profile.dropped_spans;
  check_int "no ships, zero rounds" 0 p.Profile.rounds

(* --- traced wire envelope ----------------------------------------------- *)

let sample_message =
  Hf_proto.Message.Credit_return
    { query = { Hf_proto.Message.originator = 0; serial = 3 }; credit = [ 2; 5 ] }

let test_codec_traced_roundtrip () =
  let encoded = Hf_proto.Codec.encode ~span:9001 sample_message in
  match Hf_proto.Codec.decode_enveloped encoded with
  | Error e -> Alcotest.fail e
  | Ok (m, span, _) ->
      check_int "span survives the wire" 9001 span;
      check_bool "message survives the wire" true (Hf_proto.Message.equal sample_message m)

let test_codec_untraced_bytes_identical () =
  (* span 0 (and no span) must not change the encoding: PR 1 byte
     compatibility, and E10's message-size claim. *)
  let plain = Hf_proto.Codec.encode sample_message in
  Alcotest.(check string) "span:0 is byte-identical" plain
    (Hf_proto.Codec.encode ~span:0 sample_message);
  (match Hf_proto.Codec.decode_enveloped plain with
  | Ok (m, span, _) ->
      check_int "untraced decodes to span 0" 0 span;
      check_bool "message intact" true (Hf_proto.Message.equal sample_message m)
  | Error e -> Alcotest.fail e);
  (* plain decode ignores the envelope *)
  match Hf_proto.Codec.decode (Hf_proto.Codec.encode ~span:77 sample_message) with
  | Ok m -> check_bool "decode drops the span" true (Hf_proto.Message.equal sample_message m)
  | Error e -> Alcotest.fail e

(* --- golden causal chain on a 2-site cluster ---------------------------- *)

module C = Hf_server.Instances.Weighted
module Cluster = Hf_server.Cluster

let test_causal_chain_two_sites () =
  let tracer = Tracer.create () in
  let cluster = C.create ~tracer ~n_sites:2 () in
  let s0 = C.store cluster 0 and s1 = C.store cluster 1 in
  (* A at site 0 points to B at site 1: the query must hop. *)
  let a = Hf_data.Store.fresh_oid s0 in
  let b = Hf_data.Store.fresh_oid s1 in
  Hf_data.Store.insert s0
    (Hf_data.Hobject.of_tuples a
       [ Hf_data.Tuple.number ~key:"id" 0; Hf_data.Tuple.pointer ~key:"R" b ]);
  (* leaf terminator self-pointer, as the workload generator does
     (EXPERIMENTS.md D5): without a matching pointer tuple the leaf dies
     in the traversal body before the trailing filter. *)
  Hf_data.Store.insert s1
    (Hf_data.Hobject.of_tuples b
       [ Hf_data.Tuple.number ~key:"id" 1; Hf_data.Tuple.pointer ~key:"R" b ]);
  let program =
    Hf_query.Parser.parse_program "[ (Pointer, \"R\", ?X) ^^X ]* (Number, \"id\", ?)"
  in
  let outcome = C.run_query cluster ~origin:0 program [ a ] in
  check_bool "terminated" true outcome.Cluster.terminated;
  check_int "both objects matched" 2 (List.length outcome.Cluster.results);
  let spans = Tracer.spans tracer in
  check_bool "spans recorded" true (spans <> []);
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let find_span id = Hashtbl.find_opt by_id id in
  (* every non-root span's parent exists: no orphans *)
  List.iter
    (fun s ->
      if s.Span.parent <> 0 then
        check_bool
          (Printf.sprintf "parent of span %d resolves" s.Span.id)
          true
          (find_span s.Span.parent <> None))
    spans;
  (* the golden chain: remote Eval (site 1) -> Ship (site 0) ->
     origin Eval or Query root (site 0). *)
  let remote_eval =
    List.find_opt (fun s -> s.Span.site = 1 && s.Span.phase = Span.Eval) spans
  in
  (match remote_eval with
  | None -> Alcotest.fail "no Eval span on the remote site"
  | Some re -> (
      match find_span re.Span.parent with
      | Some ship ->
          check_bool "remote eval caused by a Ship span" true (ship.Span.phase = Span.Ship);
          check_int "ship originates at site 0" 0 ship.Span.site;
          check_bool "ship has positive duration (closed at arrival)" true
            (Span.duration ship > 0.0);
          (match find_span ship.Span.parent with
          | Some origin ->
              check_int "ship caused from site 0" 0 origin.Span.site;
              check_bool "ship parents on origin Eval" true (origin.Span.phase = Span.Eval)
          | None -> Alcotest.fail "ship span has no parent")
      | None -> Alcotest.fail "remote eval has no parent"));
  (* walking parents from any span terminates at the one Query root *)
  let rec root_of s =
    if s.Span.parent = 0 then s
    else
      match find_span s.Span.parent with
      | Some p -> root_of p
      | None -> Alcotest.fail "broken parent chain"
  in
  let roots =
    List.sort_uniq compare (List.map (fun s -> (root_of s).Span.id) spans)
  in
  check_int "single causal root" 1 (List.length roots);
  (match find_span (List.hd roots) with
  | Some r -> check_bool "root is a Query span" true (r.Span.phase = Span.Query)
  | None -> assert false);
  (* and with tracing off, the same run records nothing *)
  let quiet = C.create ~n_sites:2 () in
  let q0 = C.store quiet 0 and q1 = C.store quiet 1 in
  let a' = Hf_data.Store.fresh_oid q0 in
  let b' = Hf_data.Store.fresh_oid q1 in
  Hf_data.Store.insert q0
    (Hf_data.Hobject.of_tuples a'
       [ Hf_data.Tuple.number ~key:"id" 0; Hf_data.Tuple.pointer ~key:"R" b' ]);
  Hf_data.Store.insert q1
    (Hf_data.Hobject.of_tuples b'
       [ Hf_data.Tuple.number ~key:"id" 1; Hf_data.Tuple.pointer ~key:"R" b' ]);
  let outcome' = C.run_query quiet ~origin:0 program [ a' ] in
  check_bool "untraced run terminates" true outcome'.Cluster.terminated;
  check_float "untraced timing identical" outcome.Cluster.response_time
    outcome'.Cluster.response_time;
  check_int "noop tracer recorded nothing" 0 (Tracer.count (C.tracer quiet))

(* --- the simulator's event record: spans on a 3-site ring --------------- *)

(* Twelve objects on three sites, each pointing at the next, every
   fourth hot: a closure from object 0 hops sites at every step. *)
let ring_query cluster =
  let n = 12 in
  let oids = Array.init n (fun i -> Hf_data.Store.fresh_oid (C.store cluster (i mod 3))) in
  Array.iteri
    (fun i oid ->
      Hf_data.Store.insert
        (C.store cluster (i mod 3))
        (Hf_data.Hobject.of_tuples oid
           ((if i mod 4 = 0 then [ Hf_data.Tuple.keyword "hot" ] else [])
           @ [ Hf_data.Tuple.pointer ~key:"R" oids.((i + 1) mod n) ])))
    oids;
  let program =
    Hf_query.Parser.parse_program "[ (Pointer, \"R\", ?X) ^^X ]* (Keyword, \"hot\", ?)"
  in
  C.submit cluster ~origin:0 program [ oids.(0) ]

(* Each work message is a Ship span named after its destination, opened
   by the sender and closed when the message arrives; the receiving
   site's first span for it parents on that Ship and starts no earlier
   than the arrival. *)
let test_sim_trace_recording () =
  let tracer = Tracer.create () in
  let cluster = C.create ~tracer ~n_sites:3 () in
  let handle = ring_query cluster in
  C.await_quiescence cluster;
  let outcome = C.outcome cluster handle in
  check_bool "terminated" true outcome.Cluster.terminated;
  let spans = Tracer.spans tracer in
  let ships =
    List.filter
      (fun s -> s.Span.phase = Span.Ship && String.starts_with ~prefix:"work->" s.Span.name)
      spans
  in
  check_bool "the query hopped" true (ships <> []);
  check_int "one Ship span per work message"
    outcome.Cluster.metrics.Hf_server.Metrics.work_messages (List.length ships);
  List.iter
    (fun ship ->
      let dst = int_of_string (String.sub ship.Span.name 6 (String.length ship.Span.name - 6)) in
      check_bool "closed after a transit" true (Span.duration ship > 0.0);
      match List.filter (fun s -> s.Span.parent = ship.Span.id) spans with
      | [ arrival ] ->
        check_int "arrival on the destination" dst arrival.Span.site;
        check_bool "arrival after the ship closed" true (arrival.Span.start >= ship.Span.finish)
      | children -> Alcotest.failf "%s: %d arrival spans" ship.Span.name (List.length children))
    ships;
  Tracer.clear tracer;
  check_int "cleared" 0 (Tracer.count tracer)

(* A tracer's limit caps what a simulated run retains; the rest are
   counted, and the query's profile reports the truncation. *)
let test_sim_trace_dropped () =
  let full = Tracer.create () in
  let reference = C.create ~tracer:full ~n_sites:3 () in
  ignore (ring_query reference);
  C.await_quiescence reference;
  let limited = Tracer.create ~limit:4 () in
  let cluster = C.create ~tracer:limited ~n_sites:3 () in
  let handle = ring_query cluster in
  C.await_quiescence cluster;
  check_int "recorded up to limit" 4 (Tracer.count limited);
  check_int "the rest counted as dropped" (Tracer.count full - 4) (Tracer.dropped limited);
  check_int "profile reports the drop" (Tracer.dropped limited)
    (C.profile cluster handle).Profile.dropped_spans;
  check_bool "pp reports the drop" true (contains "dropped" (Fmt.str "%a" Tracer.pp limited))

(* --- json serializer ----------------------------------------------------- *)

let test_json_serializer () =
  let doc =
    Json.Obj
      [ ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("nan", Json.Float nan);
        ("f", Json.Float 1.5);
      ]
  in
  Alcotest.(check string)
    "escapes and nan-as-null" "{\"a\":1,\"b\":[true,null,\"x\\\"y\\n\"],\"nan\":null,\"f\":1.5}"
    (Json.to_string doc)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "nan rejected" `Quick test_bucket_nan_rejected;
          Alcotest.test_case "percentiles match Stats" `Quick test_percentiles_match_stats;
          Alcotest.test_case "empty summary" `Quick test_empty_summary;
          Alcotest.test_case "reservoir bound" `Quick test_reservoir_bound;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "wire shape (of_shape)" `Quick test_of_shape;
          Alcotest.test_case "percentiles stable under merge" `Quick
            test_merge_percentile_stability;
          Alcotest.test_case "diff" `Quick test_histogram_diff;
        ] );
      ( "registry",
        [
          Alcotest.test_case "live views" `Quick test_registry_views;
          Alcotest.test_case "duplicates rejected" `Quick test_registry_duplicate_rejected;
          Alcotest.test_case "json sorted" `Quick test_registry_json_sorted;
          Alcotest.test_case "snapshot capture and diff" `Quick test_snapshot_capture_and_diff;
          Alcotest.test_case "merge snapshots across sites" `Quick test_merge_snapshots;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "names and escapes" `Quick test_prometheus_names_and_escapes;
          Alcotest.test_case "exposition format" `Quick test_prometheus_render;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "noop" `Quick test_noop_tracer;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "limit and dropped" `Quick test_tracer_limit_and_dropped;
          Alcotest.test_case "instant" `Quick test_instant_is_zero_duration;
          Alcotest.test_case "exports" `Quick test_exports;
          Alcotest.test_case "sampling covers whole queries" `Quick test_sampling_whole_queries;
          Alcotest.test_case "sampling deterministic by seed" `Quick
            test_sampling_deterministic_across_tracers;
          Alcotest.test_case "sampling edge rates" `Quick test_sampling_edge_rates;
          Alcotest.test_case "tracer health in the registry" `Quick test_tracer_registers_health;
        ] );
      ( "profile",
        [
          Alcotest.test_case "of_spans breakdown" `Quick test_profile_of_spans;
          Alcotest.test_case "rootless extent" `Quick test_profile_without_root;
        ] );
      ( "codec",
        [
          Alcotest.test_case "traced roundtrip" `Quick test_codec_traced_roundtrip;
          Alcotest.test_case "untraced bytes identical" `Quick
            test_codec_untraced_bytes_identical;
        ] );
      ( "causal-chain",
        [ Alcotest.test_case "two-site golden trace" `Quick test_causal_chain_two_sites ] );
      ( "sim-trace",
        [
          Alcotest.test_case "recording" `Quick test_sim_trace_recording;
          Alcotest.test_case "dropped counter" `Quick test_sim_trace_dropped;
        ] );
      ("json", [ Alcotest.test_case "serializer" `Quick test_json_serializer ]);
    ]
