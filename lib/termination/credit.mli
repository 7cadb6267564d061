(** Exact dyadic credit arithmetic for weighted-message termination
    detection.

    A credit is a finite multiset of atoms worth 2{^-k}; the computation
    starts with the single atom 2{^0} = 1 at the originating site.
    Splitting replaces 2{^-k} by two 2{^-(k+1)} atoms.  Exponents are
    ints, so no legal run exhausts them (no borrowing protocol), and the
    arithmetic is exact: the origin has recovered {e all} credit iff its
    accumulated credit normalizes back to 1.

    A credit is held as its binary expansion, one array entry per atom,
    so its memory grows with the number of atoms held and never with an
    exponent's value. *)

type t

val zero : t
val one : t

val is_zero : t -> bool

val is_one : t -> bool
(** Exactly the full credit — the termination condition. *)

val equal : t -> t -> bool

val add : t -> t -> t
(** Exact sum, normalized (pairs of equal atoms carry upward). *)

val split : t -> t * t
(** [split c] halves the smallest atom of [c], returning
    [(kept, given)] with [add kept given = c].  Raises
    [Invalid_argument] on zero credit, and on an atom of exponent
    [max_int], which cannot be halved. *)

val atoms : t -> int list
(** Sorted atom exponents (each atom is worth 2{^-k}). *)

val exponent_cap : int
(** 2{^40}, the deepest atom {!of_atoms} and the wire decoder accept.
    No legal run splits one share that deep, and an atom at the cap can
    still be halved 2{^62} more times before {!split} raises. *)

val of_atoms : int list -> t
(** Build (and normalize) from atom exponents; the wire decoding path.
    Raises [Invalid_argument] on negative exponents and on exponents
    above {!exponent_cap}. *)

val discard : t -> unit
(** Deliberately destroy credit.  Discarded credit never returns to
    the origin, so the detector can only converge if the origin has
    stopped counting (a cancelled or force-completed query): every
    call site is flagged by hfcheck's credit-linearity rule (R8) and
    must carry an [@hf.allow "credit-linearity -- why"] justification
    naming why this credit is dead. *)

val to_float : t -> float
(** Approximate numeric value; diagnostics only. *)

val max_exponent : t -> int option
(** Deepest split so far — a measure of how finely credit was divided. *)

val pp : Format.formatter -> t -> unit
