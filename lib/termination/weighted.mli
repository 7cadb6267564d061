(** Weighted-message (credit-recovery) termination detection — the
    algorithm used by the paper's prototype.

    The origin starts with credit 1; every work message carries a split
    of the sender's credit; a draining site returns all held credit to
    the origin (riding on the result message in the real protocol).
    Termination is known exactly when the origin's recovered credit
    normalizes back to 1. *)

type tag = Credit.t

type control = Return of Credit.t

include Detector.S with type tag := tag and type control := control

(** {1 Instrumentation} *)

val held : t -> Credit.t

val splits : t -> int
(** Number of credit splits performed (one per work message sent). *)
