(** Instrumentation counters for one query evaluation. *)

type t = {
  mutable objects_processed : int;  (** productive removals from W. *)
  mutable objects_skipped : int;  (** removals suppressed by the mark table. *)
  mutable filter_steps : int;  (** applications of the E function. *)
  mutable tuples_examined : int;
  mutable derefs : int;  (** dereferenced pointer values. *)
  mutable spawned : int;  (** work items created by dereferences. *)
  mutable dangling : int;  (** pointers to objects that do not exist. *)
  mutable results : int;  (** objects added to the result set. *)
  mutable values_emitted : int;  (** values shipped by the [->] operator. *)
}

val create : unit -> t

val merge : t -> t -> t
(** Field-wise sum (fresh record). *)
