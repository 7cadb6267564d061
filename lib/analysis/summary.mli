(** Phase 1 of the whole-program analyzer: per-function summaries of
    lock acquisitions, blocking operations, calls and [Credit.t]
    handling, extracted from one typed tree.  {!Linker} joins these
    across compilation units and runs R6/R7/R8. *)

type lock = { l_unit : string; l_name : string }
(** A lock identity: the compilation unit that declares the
    [@hf.guarded_by] wrapper (or owns the raw mutex) and the wrapper /
    mutex-field name, e.g. [{l_unit = "tcp_site"; l_name = "locked"}]. *)

val lock_id : lock -> string
(** ["unit.name"], the graph-node label. *)

val compare_lock : lock -> lock -> int

type block_kind =
  | Unix_op of string
  | Thread_join
  | Thread_delay
  | Condition_wait
  | Domain_join

val block_label : block_kind -> string

type acquire = {
  a_lock : lock;
  a_held : lock list;
  a_loc : Location.t;
  a_waived : string list;
}

type block = {
  b_kind : block_kind;
  b_held : lock list;
  b_paired : bool;
      (** [Condition.wait] holding exactly the paired mutex: the
          sanctioned wait idiom, exempt from direct R7 findings but
          still visible to callers through BLK*. *)
  b_loc : Location.t;
  b_waived : string list;
}

type call = {
  c_comps : string list;  (** normalized, lowercase path components *)
  c_held : lock list;
  c_loc : Location.t;
  c_waived : string list;
}

type credit_kind =
  | Credit_ignored
  | Credit_wildcard
  | Credit_unused of string
  | Credit_discarded

type credit_event = { k_kind : credit_kind; k_loc : Location.t }

type fn_summary = {
  f_unit : string;
  f_name : string;
  f_loc : Location.t;
  acquires : acquire list;
  blocks : block list;
  calls : call list;
  credits : credit_event list;
}

type t = { s_unit : string; s_source : string; fns : fn_summary list }

val unit_of_source : string -> string
(** ["lib/net/tcp_site.ml"] -> ["tcp_site"]. *)

val resolve :
  known_unit:(string -> bool) ->
  current_unit:string ->
  string list ->
  (string * string) option
(** The (unit, function-name) a normalized path most plausibly names:
    split at the rightmost component that is a known compilation unit;
    bare names belong to the current unit. *)

val guard_table :
  Cmt_load.unit_info list -> (string * string, lock) Hashtbl.t
(** (unit, wrapper-name) -> lock for every [@hf.guarded_by]
    annotation in every unit — global, so cross-module guard
    applications resolve. *)

val of_unit :
  guards:(string * string, lock) Hashtbl.t ->
  known_units:string list ->
  regions:Allow.region list ->
  Cmt_load.unit_info ->
  t
(** Summarize one typed tree.  [regions] ([@hf.allow] spans from the
    same unit) are recorded per event so the linker can cut waived
    calls out of interprocedural propagation, not just suppress the
    local finding. *)
