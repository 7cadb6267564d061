(* EXPLAIN ANALYZE for a distributed query: fold one query's causal
   span tree, plus the engine's per-query metric attribution, into a
   readable per-site breakdown.

   Two ingredients, deliberately kept separate:

   - the SPANS say where the time went: per-site, per-phase durations
     (eval vs ship vs queue wait...), and the ship-round depth — the
     longest chain of cross-site hops any work item took, which is the
     paper's "rounds" cost in observable form;

   - the SCALARS are the engine's per-query counters (messages, bytes,
     cache hits, retransmits), attributed by the engine itself so
     concurrent neighbors never bleed in.  The profile does not try to
     re-derive them from spans — spans are samples (and can be dropped
     or sampled out), counters are exact; the differential tests pin
     the two views together where they must agree. *)

type scalar = Int of int | Float of float

type site_row = {
  site : int;
  phases : (Span.phase * float * int) list;
      (* declaration order; (phase, total seconds, span count), phases
         with no spans omitted *)
  busy_s : float; (* Eval total: execution time *)
  wait_s : float; (* Wait total: time queued before running *)
  ships : int; (* Ship-phase spans originating at this site *)
}

type t = {
  query : string;
  total_s : float;
  rounds : int; (* deepest Ship nesting on any causal chain *)
  span_count : int;
  dropped_spans : int; (* tracer drops: the tree may be incomplete *)
  sites : site_row list; (* ascending site id *)
  scalars : (string * scalar) list;
}

let scalar_int t name =
  match List.assoc_opt name t.scalars with
  | Some (Int n) -> Some n
  | Some (Float _) | None -> None

let scalar_float t name =
  match List.assoc_opt name t.scalars with
  | Some (Float v) -> Some v
  | Some (Int n) -> Some (float_of_int n)
  | None -> None

(* Ship depth of a span = number of Ship-phase spans on its causal
   chain, itself included.  A parent outside the span set (dropped, or
   the chain crosses a process boundary with separate tracers) roots
   the chain there. *)
let ship_depths spans =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  let memo = Hashtbl.create (List.length spans) in
  let rec depth (s : Span.t) =
    match Hashtbl.find_opt memo s.Span.id with
    | Some d -> d
    | None ->
      (* break parent cycles (malformed input) by seeding 0 first *)
      Hashtbl.replace memo s.Span.id 0;
      let above =
        match Hashtbl.find_opt by_id s.Span.parent with
        | Some parent when s.Span.parent <> s.Span.id -> depth parent
        | Some _ | None -> 0
      in
      let d = above + (match s.Span.phase with Span.Ship -> 1 | _ -> 0) in
      Hashtbl.replace memo s.Span.id d;
      d
  in
  List.fold_left (fun acc s -> max acc (depth s)) 0 spans

let of_spans ~query ?(scalars = []) ?(dropped = 0) all_spans =
  let spans = List.filter (fun (s : Span.t) -> String.equal s.Span.query query) all_spans in
  let total_s =
    (* the root Query span when present, else the observed extent *)
    match
      List.find_opt (fun (s : Span.t) -> s.Span.phase = Span.Query && s.Span.parent = 0) spans
    with
    | Some root -> Span.duration root
    | None -> (
        match spans with
        | [] -> 0.0
        | first :: _ ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) (s : Span.t) -> (Float.min lo s.Span.start, Float.max hi s.Span.finish))
              (first.Span.start, first.Span.finish)
              spans
          in
          hi -. lo)
  in
  let sites = List.sort_uniq Int.compare (List.map (fun (s : Span.t) -> s.Span.site) spans) in
  let row site =
    let here = List.filter (fun (s : Span.t) -> s.Span.site = site) spans in
    let phases =
      List.filter_map
        (fun phase ->
          let matching = List.filter (fun (s : Span.t) -> s.Span.phase = phase) here in
          match matching with
          | [] -> None
          | _ ->
            let total = List.fold_left (fun acc s -> acc +. Span.duration s) 0.0 matching in
            Some (phase, total, List.length matching))
        Span.all_phases
    in
    let phase_total p =
      match List.find_opt (fun (phase, _, _) -> phase = p) phases with
      | Some (_, total, _) -> total
      | None -> 0.0
    in
    let phase_count p =
      match List.find_opt (fun (phase, _, _) -> phase = p) phases with
      | Some (_, _, n) -> n
      | None -> 0
    in
    {
      site;
      phases;
      busy_s = phase_total Span.Eval;
      wait_s = phase_total Span.Wait;
      ships = phase_count Span.Ship;
    }
  in
  {
    query;
    total_s;
    rounds = ship_depths spans;
    span_count = List.length spans;
    dropped_spans = dropped;
    sites = List.map row sites;
    scalars;
  }

let by_query spans =
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      Hashtbl.replace buckets s.Span.query
        (s :: Option.value (Hashtbl.find_opt buckets s.Span.query) ~default:[]))
    spans;
  fun query -> List.rev (Option.value (Hashtbl.find_opt buckets query) ~default:[])

let pp_scalar ppf = function
  | Int n -> Fmt.int ppf n
  | Float v -> Fmt.pf ppf "%.6g" v

let pp ppf t =
  Fmt.pf ppf "@[<v>profile %s: total %.6gs, %d ship round(s), %d span(s)%s" t.query t.total_s
    t.rounds t.span_count
    (if t.dropped_spans > 0 then
       Printf.sprintf " [%d span(s) dropped: breakdown is partial]" t.dropped_spans
     else "");
  List.iter
    (fun row ->
      Fmt.pf ppf "@,  site %-3d" row.site;
      Fmt.pf ppf "%a"
        Fmt.(
          list ~sep:(any "  ") (fun ppf (phase, total, n) ->
              Fmt.pf ppf "%s %.6gs/%d" (Span.phase_name phase) total n))
        row.phases)
    t.sites;
  if t.scalars <> [] then begin
    Fmt.pf ppf "@,  ";
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any "  ") (fun ppf (name, v) -> Fmt.pf ppf "%s=%a" name pp_scalar v))
      t.scalars
  end;
  Fmt.pf ppf "@]"

let site_row_json row =
  Json.Obj
    [
      ("site", Json.Int row.site);
      ( "phases",
        Json.Obj
          (List.map
             (fun (phase, total, n) ->
               ( Span.phase_name phase,
                 Json.Obj [ ("seconds", Json.Float total); ("spans", Json.Int n) ] ))
             row.phases) );
      ("busy_s", Json.Float row.busy_s);
      ("wait_s", Json.Float row.wait_s);
      ("ships", Json.Int row.ships);
    ]

let to_json t =
  Json.Obj
    [
      ("query", Json.Str t.query);
      ("total_s", Json.Float t.total_s);
      ("rounds", Json.Int t.rounds);
      ("spans", Json.Int t.span_count);
      ("dropped_spans", Json.Int t.dropped_spans);
      ("sites", Json.List (List.map site_row_json t.sites));
      ( "scalars",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (name, match v with Int n -> Json.Int n | Float f -> Json.Float f))
             t.scalars) );
    ]
