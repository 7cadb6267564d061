(** Environment-free structural probes over [Types.type_expr]. *)

type verdict =
  | Clean
  | Has_identity of string
      (** contains an identity-bearing type; the payload is the
          offending type-constructor path. *)
  | Has_function  (** contains an arrow type: never structurally comparable. *)

val probe : Types.type_expr -> verdict

val stdlib_hashtbl_key : Types.type_expr -> Types.type_expr option
(** The key type when the argument is a stdlib [('k, 'v) Hashtbl.t]. *)

val describe : Types.type_expr -> string
