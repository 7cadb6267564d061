(** Per-destination batching of outgoing work items.

    Work shipped to the same site in the same pump cycle can share one
    wire message: the batcher buffers items per destination and yields a
    flush (oldest first) when the policy fires.  The owner is
    responsible for flushing leftovers — at the end of its pump cycle
    and before draining, so termination detection is never starved. *)

type flush_policy =
  | Flush_at of int
      (** Flush a destination's buffer as soon as it holds K items.
          [Flush_at 1] is byte- and semantics-identical to the unbatched
          per-item protocol. *)
  | Flush_on_drain
      (** Never flush on size (K = ∞); items leave only via the owner's
          pump-cycle / drain flush. *)

val unbatched : flush_policy
(** [Flush_at 1]. *)

val validate_policy : flush_policy -> unit
(** Raises [Invalid_argument] on [Flush_at k] with [k < 1]. *)

type 'a t

val create : flush_policy -> 'a t
(** Raises [Invalid_argument] on an invalid policy. *)

val push : 'a t -> dst:int -> 'a -> 'a list option
(** Buffer an item for [dst].  Returns [Some items] — the whole buffer
    for [dst], oldest first, now cleared — when the policy fires. *)

val flush_all : 'a t -> (int * 'a list) list
(** Drain every non-empty buffer, destinations in ascending order. *)

val pending : 'a t -> int
(** Total buffered items across all destinations. *)

val pending_for : 'a t -> dst:int -> int
