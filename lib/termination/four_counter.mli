(** Mattern-style four-counter termination detection (ablation
    comparison point).

    Each site counts work messages sent and received; the origin runs
    periodic waves collecting the counters and activity flags, and
    declares termination after two consecutive all-passive waves with
    identical totals and sent = received. *)

type report = { sent : int; received : int; active : bool }

type tag = unit

type control =
  | Probe of int  (** wave identifier. *)
  | Report of int * report

include Detector.S with type tag := tag and type control := control

(** {1 Instrumentation} *)

val waves : t -> int
(** Completed polling waves started by the origin. *)
