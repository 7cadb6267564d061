(** Query templates for the paper's experiments: transitive closure of
    one pointer class plus a search-key selection, with randomized keys
    for the 100-query runs. *)

val depth_body :
  pointer_key:string -> depth:int -> Hf_query.Ast.element -> Hf_query.Ast.t
(** Same, but iterating [depth] levels instead of to closure. *)

val select_unique : int -> Hf_query.Ast.element
val select_common : Hf_query.Ast.element
val select_rand10 : int -> Hf_query.Ast.element
val select_rand100 : int -> Hf_query.Ast.element
val select_rand1000 : int -> Hf_query.Ast.element

type selectivity = Unique | Rand1000 | Rand100 | Rand10 | All

val random_selection :
  Hf_util.Prng.t -> n_objects:int -> selectivity -> Hf_query.Ast.element
(** Random key of the given selectivity, as in the paper's randomized
    query runs. *)

val closure_program : pointer_key:string -> Hf_query.Ast.element -> Hf_query.Program.t
