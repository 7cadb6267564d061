(** Span collector with a zero-cost disabled mode.

    Instrument unconditionally and pass {!noop} when tracing is off:
    every operation on the noop tracer is one variant check.  That makes
    the call free, not its arguments, which are built before the call.
    So the disabled mode is free only if the call site is too: on a hot
    path, build no query name, span name or detail unless {!enabled}
    holds.  Span ids are positive ints unique per tracer; 0 means "no
    span" and is the conventional absent parent, so ids thread through
    message fields without options.

    Completed spans are retained up to [limit]; later spans increment
    {!dropped} instead of silently vanishing.  Thread-safe: each TCP
    site's event loop starts and finishes spans, and the sites of one
    process may share a tracer. *)

type t

val noop : t

val create :
  ?limit:int -> ?clock:(unit -> float) -> ?sample_rate:float -> ?seed:int -> unit -> t
(** [limit] bounds retained completed spans (default 200_000).
    [clock] supplies span timestamps (default: constant 0; the sim
    cluster installs its virtual clock via {!set_clock}, the CLI passes
    a wall clock).

    [sample_rate] (default 1.0) traces that fraction of queries —
    whole queries, never partial causal trees: the decision hashes the
    rendered query id with [seed], so it is deterministic and agrees
    across every site sharing the same seed.  Spans skipped by sampling
    count in {!sampled_out}.  Raises [Invalid_argument] outside
    [0, 1]. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit

val now : t -> float
(** The tracer's clock reading (0 on the noop tracer) — for callers
    recording retroactive spans via {!complete}, whose timestamps must
    share the live spans' time base. *)

val sample_rate : t -> float
(** 1.0 on the noop tracer. *)

val sampled_out : t -> int
(** Spans skipped because their query fell outside the sample. *)

val start : t -> ?parent:int -> query:string -> site:int -> phase:Span.phase -> string -> int
(** Open a span; returns its id (0 on the noop tracer). *)

val finish : ?detail:string -> t -> int -> unit
(** Close an open span.  Unknown ids (including 0) are ignored. *)

val set_detail : t -> int -> string -> unit

val instant :
  t -> ?parent:int -> ?detail:string -> query:string -> site:int -> phase:Span.phase -> string -> int
(** A zero-duration span, recorded immediately. *)

val complete :
  t ->
  ?parent:int ->
  ?detail:string ->
  query:string ->
  site:int ->
  phase:Span.phase ->
  start:float ->
  finish:float ->
  string ->
  int
(** Record an already-elapsed interval (e.g. a queue wait measured only
    once the task runs) with caller-supplied timestamps; the tracer's
    clock is not consulted. *)

val spans : t -> Span.t list
(** Completed and still-open spans, in id (creation) order. *)

val count : t -> int
val dropped : t -> int

val clear : t -> unit
(** Also resets {!dropped} and {!sampled_out}. *)

val register : t -> Registry.t -> prefix:string -> unit
(** Register the tracer's own health under [prefix]:
    [<prefix>.trace_spans], [<prefix>.trace_dropped] (spans lost past
    the retention limit — a truncated trace used to be silent),
    [<prefix>.trace_sampled_out] and the [<prefix>.trace_sample_rate]
    gauge. *)

val pp : Format.formatter -> t -> unit

val to_jsonl : t -> string
(** One span object per line. *)

val to_chrome_json : t -> string
(** Chrome trace_event JSON (loadable in Perfetto / chrome://tracing):
    "X" events with pid = site, tid = (site, query) lane, and flow
    arrows binding each span to its causal parent. *)

val write_file : t -> string -> unit
(** JSONL when [path] ends in [.jsonl], Chrome trace JSON otherwise. *)
