(** Pretty-printer back to the concrete syntax accepted by {!Parser}.

    Round-trip law: [Parser.parse_body (to_string ast)] equals [ast]. *)

val to_string : Ast.t -> string
