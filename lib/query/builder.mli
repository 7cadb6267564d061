(** Combinator interface for constructing query bodies from application
    code — the programmatic twin of the concrete syntax.

    {[
      Builder.(
        body
          [ closure [ pointers ~key:"Reference" "X"; follow_keeping "X" ];
            keyword "Distributed";
          ])
    ]} *)

val select : ?ttype:Pattern.t -> ?key:Pattern.t -> ?data:Pattern.t -> unit -> Ast.element
(** General selection; omitted fields default to [?]. *)

val pointers : ?key:string -> string -> Ast.element
(** [pointers ~key var]: select pointer tuples with key [key] (any key
    if omitted), binding the targets to [var]. *)

val keyword : string -> Ast.element
(** Object contains the keyword (glob allowed). *)

val follow : string -> Ast.element
(** Single up-arrow: dereference [var], dropping the pointing object. *)

val follow_keeping : string -> Ast.element
(** Double up-arrow: dereference [var], keeping the pointing object. *)

val closure : Ast.t -> Ast.element
(** "[ body ]*". *)

val body : Ast.element list -> Ast.t

val reachability : ?depth:int -> key:string -> Ast.element -> Ast.t
(** The paper's experimental query shape: traverse pointers named [key]
    to the transitive closure (or [depth] levels), keeping every visited
    object, then apply [selection].  Raises [Invalid_argument] if
    [depth < 1]. *)

val program : Ast.t -> Program.t
