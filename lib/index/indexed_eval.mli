(** Index-accelerated evaluation of the reachability-plus-selection
    query shape (paper, Section 2: "find all documents referenced
    directly or indirectly by this document that in addition have a
    given keyword").

    Queries of the shape [\[ (Pointer, key, ?X) ^^X \]* selection] are
    answered from the reachability index (intersected with the keyword
    index when the selection is a keyword test); anything else falls
    back to the engine, so [answer] is always safe to call. *)

type indexes = {
  reachability : Reachability.t option;
  keywords : Keyword_index.t option;
}

val no_indexes : indexes

type plan =
  | Indexed of string  (** description of the index strategy. *)
  | Scan  (** the engine will be used. *)

val explain : indexes -> Hf_query.Ast.t -> plan

val answer :
  ?indexes:indexes ->
  find:(Hf_data.Oid.t -> Hf_data.Hobject.t option) ->
  Hf_query.Ast.t ->
  Hf_data.Oid.t list ->
  Hf_data.Oid.Set.t
(** Result set of the query over [initial]; uses indexes when the shape
    and the available indexes allow, the engine otherwise. *)
