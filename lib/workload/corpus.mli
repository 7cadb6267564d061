(** Document-corpus workload: bibliographic records with Zipf-like
    keyword frequencies and a preferential-attachment citation graph.

    Complements the paper's parameter-controlled synthetic dataset;
    drives the index-acceleration experiment (EXPERIMENTS.md E13) and
    richer examples.  Documents without citations carry a terminator
    self-pointer so closure queries keep them filterable. *)

type params = {
  n_documents : int;
  vocabulary : int;  (** distinct keywords. *)
  keywords_per_doc : int;
  max_citations : int;
  year_range : int * int;  (** inclusive. *)
  body_bytes : int;
  seed : int;
}

val default_params : params
(** 500 documents, 200-word vocabulary, ≤4 citations, 1970–1991. *)

val keyword_name : int -> string
(** Vocabulary rank → keyword string ([kw000] is the most common). *)

val citation_key : string
(** Pointer key of citation tuples (["Cites"]). *)

type t

val generate :
  ?params:params -> n_sites:int -> store_of:(int -> Hf_data.Store.t) -> unit -> t
(** Create the documents in the per-site stores (uniform random
    placement).  Deterministic in [params.seed].  Raises
    [Invalid_argument] on degenerate parameters. *)

val oids : t -> Hf_data.Oid.t array
(** Document id → oid. *)

val newest : t -> Hf_data.Oid.t
(** The most recently "published" document — cites into the graph but
    nothing cites it; a natural query root. *)

val keyword_frequency :
  find:(Hf_data.Oid.t -> Hf_data.Hobject.t option) -> t -> int -> int
(** Number of documents carrying the keyword of the given rank. *)
