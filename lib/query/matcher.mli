(** Matching a single selection element against an object, without
    matching-variable state.

    Used by clients that filter objects themselves (the ship-data
    baseline) and by the index planner.  [Use] patterns see no bindings
    and therefore never match here. *)

val element_matches : Ast.element -> Hf_data.Hobject.t -> bool
(** Raises [Invalid_argument] on dereference or block elements. *)
