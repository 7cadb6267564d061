(** Diagnostics produced by hfcheck rules. *)

type severity = Error | Warning

type t = {
  rule : string;  (** canonical rule id, e.g. ["poly-compare"]. *)
  severity : severity;
  file : string;
  line : int;
  col : int;
  cnum : int;  (** absolute char offset; used for suppression regions. *)
  message : string;
}

val make : rule:string -> severity:severity -> Location.t -> string -> t
val compare : t -> t -> int

val key : t -> string
(** Baseline key ["rule file:line"]; excludes column and message. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Hf_obs.Json.t
