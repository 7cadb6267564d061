(** The distributed-file-server comparator (paper, Section 5 preamble).

    The server understands only named byte sequences, so the client must
    fetch every traversed object whole — body blob included — and do all
    filtering and pointer chasing itself.  Costed on the same simulator
    constants as the query-shipping server for direct comparison. *)

type config = {
  costs : Hf_sim.Costs.t;
  bandwidth : float;  (** payload bytes per second on the wire. *)
  window : int;  (** max outstanding fetches; 1 = strictly sequential. *)
}

val default_config : config
(** Paper costs, 10 Mbit/s, window 1. *)

type outcome = {
  results : Hf_data.Oid.t list;
  result_set : Hf_data.Oid.Set.t;
  response_time : float;
  messages : int;  (** requests + responses. *)
  bytes : int;  (** payload bytes moved. *)
  objects_fetched : int;  (** remote fetches. *)
  objects_visited : int;
}

val run_closure :
  ?config:config ->
  origin:int ->
  find:(Hf_data.Oid.t -> Hf_data.Hobject.t option) ->
  pointer_key:string ->
  matches:(Hf_data.Hobject.t -> bool) ->
  Hf_data.Oid.t list ->
  outcome
(** Traverse the closure of [pointer_key] from the initial set, keeping
    objects that satisfy [matches].  An object not born at [origin] is a
    remote fetch.  Raises [Invalid_argument] on a window < 1. *)
