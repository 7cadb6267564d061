(** EXPLAIN ANALYZE for a distributed query.

    Folds one query's causal spans into a per-site, per-phase time
    breakdown plus the ship-round depth (the longest chain of
    cross-site hops — the paper's "rounds" cost made observable), and
    carries the engine's exact per-query counters alongside as
    {!scalar}s.  Spans answer "where did the time go"; scalars answer
    "what did it cost" — the differential tests pin the two views
    together where they must agree. *)

type scalar = Int of int | Float of float

type site_row = {
  site : int;
  phases : (Span.phase * float * int) list;
      (** (phase, total seconds, span count) in declaration order;
          phases with no spans at this site are omitted. *)
  busy_s : float;  (** [Eval] total: execution time. *)
  wait_s : float;  (** [Wait] total: time queued before running. *)
  ships : int;  (** [Ship] spans originating at this site. *)
}

type t = {
  query : string;
  total_s : float;
      (** the root [Query] span's duration when present, else the
          observed extent of the query's spans. *)
  rounds : int;  (** deepest [Ship] nesting on any causal chain. *)
  span_count : int;
  dropped_spans : int;
      (** tracer drops at capture time: non-zero means the breakdown
          may be missing work. *)
  sites : site_row list;  (** ascending site id. *)
  scalars : (string * scalar) list;
      (** engine-attributed per-query totals (messages, bytes, cache
          hits, ...), passed through verbatim. *)
}

val of_spans :
  query:string -> ?scalars:(string * scalar) list -> ?dropped:int -> Span.t list -> t
(** Build a profile from a tracer's spans.  Spans whose [query] field
    differs are ignored, so the whole tracer dump can be passed. *)

val by_query : Span.t list -> string -> Span.t list
(** A tracer's spans bucketed by query in one pass: the lookup gives a
    query's spans in their order ([] for a query with none), so
    profiling many queries reads the whole dump once. *)

val scalar_int : t -> string -> int option
val scalar_float : t -> string -> float option

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
