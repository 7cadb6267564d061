(** Dijkstra–Scholten diffusing-computation termination detection
    (ablation comparison point).

    Every work message is eventually acknowledged; engaged sites form a
    dynamic spanning tree rooted at the origin, and a site leaves the
    tree (acknowledging its parent) when passive with zero deficit.
    Termination is known when the origin is passive with zero
    deficit. *)

type tag = unit

type control = Ack

include Detector.S with type tag := tag and type control := control

(** {1 Instrumentation} *)

val deficit : t -> int
(** Work messages sent by this site and not yet acknowledged. *)
