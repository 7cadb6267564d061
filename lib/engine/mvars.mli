(** Matching-variable bindings for one object during processing.

    Bindings start empty every time an object is taken from the working
    set and are discarded when processing ends; they never travel in W
    or over the network (paper, Section 3.1). *)

type t

val create : unit -> t

val lookup : t -> string -> Hf_data.Value.t list
(** Current bindings of a variable; [[]] when unbound. *)

val add_all : t -> (string * Hf_data.Value.t) list -> unit
(** Add each binding in order (set semantics: duplicates ignored). *)
