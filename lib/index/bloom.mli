(** Bloom summary of a site's tuple content.

    A filter over [m] bits with [k] hash functions answers "possibly
    present" or "definitely absent".  Absence is exact — there are no
    false negatives by construction, so a query-shipping decision made
    on a miss can never lose a result (DESIGN.md §4g).  Hashing is
    seeded FNV-1a with double hashing: deterministic across runs and
    platforms. *)

type t

val create : expected:int -> fp_rate:float -> t
(** Sized for [expected] keys at false-positive probability [fp_rate]
    (standard [m = -n ln p / ln² 2] sizing, rounded up to the next
    power of two so any two planned filters are {!union}-compatible).
    Raises [Invalid_argument] unless [expected > 0] and
    [0 < fp_rate < 1]. *)

val add : t -> string -> unit

val mem : t -> string -> bool
(** [false] is definite absence; [true] is "possibly present". *)

val fp_estimate : t -> float
(** Expected false-positive probability at the current fill,
    [(1 - e^{-kn/m})^k]. *)

val estimate_entries : t -> int
(** Swamidass–Baldi cardinality estimate from the fill ratio,
    [-(m/k) ln(1 - X/m)] with [X] the set-bit count — lets the
    execution-mode planner ({!Hf_query.Plan}) price a remote site's
    speculation domain from its summary alone.  Falls back to {!count}
    when the filter is saturated. *)

val to_string : t -> string
(** Compact wire form, carried in [Cache_version] messages. *)

val of_string : string -> t option
(** Total inverse of {!to_string}: arbitrary bytes yield [None], never
    an exception (the codec fuzz suite feeds it garbage). *)

val union : t -> t -> t option
(** Sound OR-merge: the result answers "possibly present" for every key
    either input holds — the larger bit array is folded onto the
    smaller (bit [i] ORs into [i mod m']), which preserves the
    no-false-negative guarantee whenever the smaller size divides the
    larger, and the merged probe count is the smaller of the two.
    [None] when neither geometry divides the other; filters sized by
    {!create} are always compatible (power-of-two [m]).  Bloofi inner
    nodes ({!Bloofi}) are built from exactly this merge. *)

val equal : t -> t -> bool
(** Same geometry and same bit pattern ([count] is advisory and
    ignored). *)
