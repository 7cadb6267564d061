(** Inverted index over keyword tuples (paper, Section 2's conventional
    indexing facility).

    Maps each keyword to the set of objects containing a
    [(Keyword, word, _)] tuple; maintained incrementally. *)

type t

val of_store : Hf_data.Store.t -> t
(** Index every object currently in the store. *)

val remove : t -> Hf_data.Hobject.t -> unit
(** Remove using the object's current tuple set (pass the same version
    that was indexed). *)

val replace : t -> old_obj:Hf_data.Hobject.t -> Hf_data.Hobject.t -> unit

val lookup : t -> string -> Hf_data.Oid.Set.t
(** Objects containing the exact keyword. *)

val lookup_glob : t -> string -> Hf_data.Oid.Set.t
(** Objects containing any keyword matching the glob; falls back to
    {!lookup} for literal patterns. *)

val cardinal : t -> int
(** Distinct keywords. *)
