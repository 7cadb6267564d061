(** The embedded-language client (paper, Section 2).

    Applications name object sets, pose queries whose result sets bind
    new names, and pull tuple values into variables with the [->]
    operator.  Queries run on the weighted-termination cluster — the
    paper's configuration. *)

module C = Hf_server.Instances.Weighted

exception Invalid_query of string
(** Parse errors, validation errors, unknown set names. *)

type t

val create :
  ?config:Hf_server.Cluster.config ->
  ?tracer:Hf_obs.Tracer.t ->
  n_sites:int ->
  unit ->
  t

val cluster : t -> C.t

val store : t -> int -> Hf_data.Store.t

val set_default_origin : t -> int -> unit
(** Site used when [?origin] is omitted (initially 0). *)

val define_set : t -> string -> Hf_data.Oid.t list -> unit

val find_set : t -> string -> Hf_data.Oid.t list option

val sets : t -> (string * Hf_data.Oid.t list) list

type result = {
  outcome : Hf_server.Cluster.outcome;
  target : string option;
  oids : Hf_data.Oid.t list;  (** result objects, arrival order. *)
  values : (string * Hf_data.Value.t list) list;
      (** values retrieved by [->], per target variable. *)
  handle : C.handle;
      (** the underlying cluster handle, kept so the query can be
          profiled after the fact ([C.profile], DESIGN.md §4i). *)
}

val query : ?origin:int -> t -> string -> result
(** Parse, validate, and run a query in concrete syntax.  A leading
    identifier names the starting set; a trailing ["-> T"] binds the
    result set to ["T"].  Raises [Invalid_query]. *)

val query_ast :
  ?origin:int -> ?source:string -> ?target:string -> t -> Hf_query.Ast.t -> result
(** Same, from a pre-built AST (e.g. via {!Hf_query.Builder}). *)

val create_object : t -> site:int -> Hf_data.Tuple.t list -> Hf_data.Oid.t

(** {1 Set algebra}

    Named sets are the currency of the interface (paper §2); these
    combine existing sets into new named sets.  All raise
    [Invalid_query] on unknown names. *)

val define_union : t -> string -> string -> string -> Hf_data.Oid.t list
(** [define_union t name a b] binds [name] to [a ∪ b] and returns it. *)

val define_inter : t -> string -> string -> string -> Hf_data.Oid.t list

val define_diff : t -> string -> string -> string -> Hf_data.Oid.t list
(** [a] minus [b]. *)

val store_set : t -> site:int -> string -> Hf_data.Oid.t
(** Materialize a named set as an object of pointer tuples on [site]. *)
