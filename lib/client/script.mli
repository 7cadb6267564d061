(** Query-script runner, modeled on the paper's experimental client: one
    query per line, executed sequentially; [';'] comments and blank
    lines are skipped. *)

type entry = {
  line : int;
  text : string;
  result : (Embedded.result, string) Result.t;
}

type report = {
  entries : entry list;
  queries_run : int;
  failures : int;
  total_response_time : float;  (** virtual seconds, successful queries. *)
}

val run : ?origin:int -> Embedded.t -> string -> report

val pp_report : Format.formatter -> report -> unit
