(** Reachability index over the pointer graph (paper, Section 2's
    reachability indexing facility).

    Built by condensing strongly connected components (cycle-safe) and
    memoizing per-component reachable sets.  Restricted at build time to
    one pointer key, or all pointers. *)

type t

val of_store : ?key:string -> Hf_data.Store.t -> t

val reachable : t -> Hf_data.Oid.t -> Hf_data.Oid.Set.t
(** All objects reachable from [oid] (including itself) following
    indexed pointers; empty for unknown objects. *)

val is_reachable : t -> source:Hf_data.Oid.t -> target:Hf_data.Oid.t -> bool

val component_count : t -> int

val key : t -> string option
