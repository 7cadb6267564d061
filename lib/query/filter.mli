(** Compiled filter operations — the F_j of the paper's query notation.

    A compiled query is a flat array of filters.  Iteration "[ body ]^k"
    is represented by the body's filters followed by an [Iter] filter
    whose [body_start] is the index of the body's first filter, exactly
    matching the I_j^k construct of Section 3. *)

type deref_mode =
  | Keep_parent
      (** the paper's double up-arrow: results include the pointing object
          as well as the referenced ones. *)
  | Replace
      (** the paper's single up-arrow: only the referenced objects
          continue. *)

type iter_count =
  | Finite of int
  | Star  (** iterate to transitive closure. *)

type selection = { ttype : Pattern.t; key : Pattern.t; data : Pattern.t }

type t =
  | Select of selection
  | Deref of { var : string; mode : deref_mode }
  | Iter of { body_start : int; count : iter_count }
  | Retrieve of { ttype : Pattern.t; key : Pattern.t; target : string }
      (** the paper's [->] operator: on match, ship the tuple's data field
          back to the application, tagged [target]. *)

val select : ttype:Pattern.t -> key:Pattern.t -> data:Pattern.t -> t

val deref : ?mode:deref_mode -> string -> t
(** Default mode is [Replace]. Raises [Invalid_argument] on an empty
    variable name. *)

val iter : body_start:int -> count:iter_count -> t
(** Raises [Invalid_argument] on a negative start or a count < 1. *)

val retrieve : ttype:Pattern.t -> key:Pattern.t -> target:string -> t
(** Raises [Invalid_argument] on an empty target name. *)

val equal_iter_count : iter_count -> iter_count -> bool
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
