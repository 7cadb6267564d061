(** hfcheck orchestration: scan, analyze (per-unit rules plus the
    summarize-then-link whole-program rules), suppress, report. *)

type config = {
  scope : string -> bool;  (** which source files are analyzed at all. *)
  io_scope : string -> bool;  (** where the [io] rule applies. *)
  baseline : (string, unit) Hashtbl.t option;
  rules : string list option;
      (** canonical rule ids to report ([--rules]); [None] = all.
          [allow-syntax] findings are always kept. *)
}

val default_config : ?baseline:(string, unit) Hashtbl.t -> unit -> config
(** Analyze [lib/] and [bin/]; apply the [io] rule to [lib/] only;
    all rules active. *)

val checkable_rules : string list
(** Every rule the pipeline can produce findings for. *)

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted. *)
  suppressed : int;
  baselined : int;
  files_analyzed : int;
  failures : Cmt_load.failure list;
  rules_run : string list;
  functions_summarized : int;
  lock_graph : Linker.graph;  (** the R6 lock-order graph. *)
}

val errors : report -> Finding.t list
(** Error-severity findings: any means a nonzero exit. *)

val analyze_units : config -> Cmt_load.unit_info list -> report
(** Run the full pipeline over a unit set.  The whole-program rules
    (R6-R8) see exactly these units: a cross-module lock cycle is only
    visible when both modules are in the list. *)

val analyze_tree : config -> string -> report

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Hf_obs.Json.t
(** Schema [hyperfile-hfcheck/2]: deterministically sorted findings
    plus summary-phase metadata (rules, function and lock counts, the
    lock graph). *)
