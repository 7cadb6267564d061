(* A document-corpus workload: bibliographic records with realistic
   statistics, complementing the paper's parameter-controlled synthetic
   dataset.  Used by the index-acceleration experiment (EXPERIMENTS.md
   E13) and the richer examples.

   - keywords are drawn from a Zipf-like distribution over a vocabulary
     (a few very common terms, a long tail of rare ones);
   - citations use preferential attachment: earlier, already-cited
     documents accumulate more in-links, giving the skewed in-degree
     real citation graphs show;
   - every document carries title/author/year strings and a body blob;
   - documents with no citations get a terminator self-pointer so
     closure queries keep them filterable (see DESIGN.md §4b). *)

type params = {
  n_documents : int;
  vocabulary : int; (* distinct keywords *)
  keywords_per_doc : int;
  max_citations : int;
  year_range : int * int;
  body_bytes : int;
  seed : int;
}

let default_params =
  {
    n_documents = 500;
    vocabulary = 200;
    keywords_per_doc = 6;
    max_citations = 4;
    year_range = (1970, 1991);
    body_bytes = 512;
    seed = 11;
  }

let keyword_name k = Printf.sprintf "kw%03d" k

(* Zipf-ish rank sampling via the inverse-CDF of 1/rank weights,
   approximated with a precomputed cumulative table. *)
let zipf_sampler prng ~n =
  let weights = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cumulative.(i) <- !acc /. total)
    weights;
  fun () ->
    let u = Hf_util.Prng.next_float prng in
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) < u then search (mid + 1) hi else search lo mid
      end
    in
    search 0 (n - 1)

type t = {
  params : params;
  placed : Hf_data.Oid.t array; (* document id -> oid *)
  site_of : int array;
}

let citation_key = "Cites"

let generate ?(params = default_params) ~n_sites ~store_of () =
  if params.n_documents < 1 then invalid_arg "Corpus.generate: need documents";
  if n_sites < 1 then invalid_arg "Corpus.generate: need sites";
  let prng = Hf_util.Prng.create params.seed in
  let sample_keyword = zipf_sampler prng ~n:params.vocabulary in
  let site_of = Array.init params.n_documents (fun _ -> Hf_util.Prng.next_int prng n_sites) in
  let oids =
    Array.init params.n_documents (fun i -> Hf_data.Store.fresh_oid (store_of site_of.(i)))
  in
  (* in-degree counters for preferential attachment; +1 smoothing *)
  let in_degree = Array.make params.n_documents 1 in
  let pick_citation upto =
    (* weighted by in_degree over documents [0, upto) *)
    let total = ref 0 in
    for j = 0 to upto - 1 do
      total := !total + in_degree.(j)
    done;
    let target = Hf_util.Prng.next_int prng !total in
    let rec find j acc =
      let acc = acc + in_degree.(j) in
      if acc > target then j else find (j + 1) acc
    in
    find 0 0
  in
  let lo_year, hi_year = params.year_range in
  Array.iteri
    (fun i oid ->
      let keywords =
        List.sort_uniq compare
          (List.init params.keywords_per_doc (fun _ -> sample_keyword ()))
      in
      let citations =
        if i = 0 then []
        else
          List.sort_uniq compare
            (List.init (Hf_util.Prng.next_int prng (params.max_citations + 1)) (fun _ ->
                 pick_citation i))
      in
      List.iter (fun j -> in_degree.(j) <- in_degree.(j) + 1) citations;
      let citation_tuples =
        match citations with
        | [] -> [ Hf_data.Tuple.pointer ~key:citation_key oid ] (* terminator *)
        | _ -> List.map (fun j -> Hf_data.Tuple.pointer ~key:citation_key oids.(j)) citations
      in
      let tuples =
        [ Hf_data.Tuple.string_ ~key:"Title" (Printf.sprintf "Document %d" i);
          Hf_data.Tuple.string_ ~key:"Author" (Printf.sprintf "author%02d" (Hf_util.Prng.next_int prng 40));
          Hf_data.Tuple.number ~key:"Year" (lo_year + Hf_util.Prng.next_int prng (hi_year - lo_year + 1));
          Hf_data.Tuple.text ~key:"Body" (String.make params.body_bytes 'd');
        ]
        @ List.map (fun k -> Hf_data.Tuple.keyword (keyword_name k)) keywords
        @ citation_tuples
      in
      Hf_data.Store.insert (store_of site_of.(i)) (Hf_data.Hobject.of_tuples oid tuples))
    oids;
  { params; placed = oids; site_of }

let oids t = t.placed

let newest t = t.placed.(Array.length t.placed - 1)

(* Empirical keyword frequency, for tests: common ranks should dominate
   rare ones. *)
let keyword_frequency ~find t k =
  let word = keyword_name k in
  Array.fold_left
    (fun acc oid ->
      match find oid with
      | Some obj when List.mem word (Hf_data.Hobject.keywords obj) -> acc + 1
      | _ -> acc)
    0 t.placed
