(** Typed metrics registry: named counters, gauges and histograms.

    Naming convention: [hf.<layer>.<name>], e.g.
    [hf.server.work_messages], [hf.net.sent_bytes],
    [hf.bench.response_time_s].  Registration order does not matter;
    {!pp} and {!to_json} sort by name. *)

type value =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Histogram of Histogram.t

type t

val create : unit -> t

val register_counter : t -> string -> (unit -> int) -> unit
(** A counter {e view}: the registry reads existing storage at report
    time, so instrumented hot paths keep their plain mutable fields.
    Raises on duplicate or empty names (all registration does). *)

val register_gauge : t -> string -> (unit -> float) -> unit

val counter : t -> string -> int ref
(** Registry-owned counter: allocates the cell and registers a view. *)

val histogram : ?sample_limit:int -> t -> string -> Histogram.t

val names : t -> string list
(** In registration order. *)

val find : t -> string -> value option

val to_json : t -> Json.t

(** {1 Snapshots}

    Pure-data captures of a registry: counters and gauges read once,
    histograms deep-copied.  Snapshots diff (rates between two points
    in time), merge (cross-site aggregation) and serialize (the
    [Stats_report] wire message and the Prometheus endpoint both render
    from one). *)

type sampled =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.t

type snapshot = (string * sampled) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot

val diff : older:snapshot -> newer:snapshot -> snapshot
(** [newer] minus [older], matched by name: counters subtract (clamped
    at zero across a reset), histograms diff bucket-wise
    ({!Histogram.diff}), gauges keep the newer reading.  Metrics only
    present in [newer] pass through unchanged. *)

val merge_snapshots : snapshot list -> snapshot
(** Cross-site aggregation: counters and gauges sum, histograms merge;
    any name present on any input appears in the result. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
