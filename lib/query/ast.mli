(** Surface abstract syntax of query bodies.

    A body is a sequence of elements; iteration is a nested block
    "[ body ]^k" ([Finite k]) or "[ body ]*" ([Star], transitive
    closure).  [Compile] flattens this to the engine's indexed filter
    array. *)

type element =
  | Select of Filter.selection
  | Deref of { var : string; mode : Filter.deref_mode }
  | Retrieve of { ttype : Pattern.t; key : Pattern.t; target : string }
  | Block of { body : element list; count : Filter.iter_count }

type t = element list

val closure : element list -> element
(** "[ body ]*". *)

val repeat : int -> element list -> element
(** [repeat k body] is "[ body ]^k". *)

val equal : t -> t -> bool

val unroll : t -> t
(** Syntactic unrolling: replace every finite block by its k-fold
    repeated body; [Star] blocks are kept but their bodies are unrolled.
    Note this is the paper's informal reading of iteration; the engine's
    iterator counters bound pointer-{e chain length} at k (the paper's
    normative walkthrough), which differs from full unrolling by one
    dereference at the boundary. *)

val depth : t -> int
(** Maximum block-nesting depth; 0 for a flat query. *)

val variables : t -> string list
(** All matching-variable names bound or dereferenced, sorted and
    deduplicated. *)
