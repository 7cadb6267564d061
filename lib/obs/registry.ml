(* Typed metrics registry: named counters, gauges and histograms under
   the `hf.<layer>.<name>` convention, with one pp / to_json path shared
   by the sim cluster, the TCP sites and the bench harness.

   Counters and gauges can be registry-owned (allocated here) or views
   over storage that already exists — the hot paths keep their plain
   mutable records and the registry reads them at report time, so
   registration costs nothing per event. *)

type value =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Histogram of Histogram.t

type t = { mutable metrics : (string * value) list (* newest first *) }

let create () = { metrics = [] }

let names t = List.rev_map fst t.metrics

let find t name = List.assoc_opt name t.metrics

let register t name value =
  if String.length name = 0 then invalid_arg "Registry.register: empty name";
  if List.mem_assoc name t.metrics then
    invalid_arg (Printf.sprintf "Registry.register: duplicate metric %S" name);
  t.metrics <- (name, value) :: t.metrics

let register_counter t name read = register t name (Counter read)

let register_gauge t name read = register t name (Gauge read)

let register_histogram t name histogram = register t name (Histogram histogram)

let counter t name =
  let cell = ref 0 in
  register_counter t name (fun () -> !cell);
  cell

let histogram ?sample_limit t name =
  let h = Histogram.create ?sample_limit () in
  register_histogram t name h;
  h

let sorted t = List.sort (fun (a, _) (b, _) -> String.compare a b) t.metrics

(* --- snapshots --- *)

(* A snapshot decouples the values from the live storage the registry
   views: counters and gauges are read once, histograms deep-copied.
   Snapshots are pure data — they can be diffed against a later one for
   rates, shipped to another site (Stats_report), or merged across a
   cluster. *)

type sampled =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.t

type snapshot = (string * sampled) list (* sorted by name *)

let snapshot t =
  List.map
    (fun (name, value) ->
      ( name,
        match value with
        | Counter read -> Counter_value (read ())
        | Gauge read -> Gauge_value (read ())
        | Histogram h -> Histogram_value (Histogram.copy h) ))
    (sorted t)

(* [newer] minus [older], matched by name.  Counters subtract (clamped
   at zero across a reset), histograms diff bucket-wise, gauges are
   point-in-time readings and keep the newer value.  Metrics present
   only in [newer] (a registry that grew between snapshots) pass
   through; kind mismatches keep the newer value too. *)
let diff ~older ~newer =
  List.map
    (fun (name, value) ->
      ( name,
        match (List.assoc_opt name older, value) with
        | Some (Counter_value old), Counter_value now -> Counter_value (max 0 (now - old))
        | Some (Histogram_value old), Histogram_value now ->
          Histogram_value (Histogram.diff ~older:old ~newer:now)
        | (Some _ | None), v -> v ))
    newer

(* Cross-site aggregation: counters and gauges sum (queue depths and
   occupancies add up across a cluster), histograms merge.  Names
   present on any site appear in the result. *)
let merge_snapshots snapshots =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, value) ->
         match Hashtbl.find_opt table name with
         | None ->
           Hashtbl.replace table name value;
           order := name :: !order
         | Some prior ->
           let combined =
             match (prior, value) with
             | Counter_value a, Counter_value b -> Counter_value (a + b)
             | Gauge_value a, Gauge_value b -> Gauge_value (a +. b)
             | Histogram_value a, Histogram_value b -> Histogram_value (Histogram.merge a b)
             | (Counter_value _ | Gauge_value _ | Histogram_value _), v -> v
           in
           Hashtbl.replace table name combined))
    snapshots;
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_snapshot ppf snap =
  let pp_metric ppf (name, value) =
    match value with
    | Counter_value n -> Fmt.pf ppf "%-42s %d" name n
    | Gauge_value v -> Fmt.pf ppf "%-42s %.6g" name v
    | Histogram_value h -> Fmt.pf ppf "%-42s %a" name Histogram.pp h
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_metric) snap

let to_json t =
  Json.Obj
    (List.map
       (fun (name, value) ->
         ( name,
           match value with
           | Counter read -> Json.Int (read ())
           | Gauge read -> Json.Float (read ())
           | Histogram h -> Histogram.to_json h ))
       (sorted t))
