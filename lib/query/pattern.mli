(** Patterns matched against tuple fields in selection filters.

    A pattern may be a simple comparison (exact value, glob over strings,
    numeric range), the wildcard [Any] (written [?]), a binding
    occurrence of a matching variable ([?X] — matches anything and
    records the value), or a using occurrence ([=X] — matches when the
    value is among the variable's current bindings). *)

type t =
  | Any
  | Exact of Hf_data.Value.t
  | Glob of string
  | Range of int * int  (** inclusive numeric range. *)
  | Bind of string
  | Use of string

val any : t
val exact_str : string -> t
val exact_num : int -> t

val glob : string -> t
(** Glob over strings; collapses to [Exact] when the pattern has no
    metacharacters. *)

val range : int -> int -> t
(** Raises [Invalid_argument] if [lo > hi]. *)

val bind : string -> t
(** Binding occurrence [?X]. Raises [Invalid_argument] on an empty
    name. *)

val use : string -> t
(** Using occurrence [=X]. Raises [Invalid_argument] on an empty
    name. *)

val binds : t -> string option
(** The variable this pattern binds, if any. *)

val uses : t -> string option
(** The variable this pattern reads, if any. *)

val matches : t -> Hf_data.Value.t -> lookup:(string -> Hf_data.Value.t list) -> bool
(** [matches p v ~lookup] tests [v]; [lookup] supplies the current
    bindings of matching variables (for [Use]). *)

val matches_str : t -> string -> lookup:(string -> Hf_data.Value.t list) -> bool
(** [matches_str p s ~lookup] is [matches p (Hf_data.Value.str s) ~lookup]
    without building the value: a tuple's type tag is a string. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
