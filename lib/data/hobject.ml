(* A HyperFile object: an identifier plus a set of tuples.  The paper
   models objects as sets; we keep tuples in insertion order (which
   applications find convenient for display) but [add] suppresses exact
   duplicates so set semantics hold. *)

type t = { oid : Oid.t; tuples : Tuple.t list }

let create oid = { oid; tuples = [] }

let of_tuples oid tuples =
  let add_unique acc tuple = if List.exists (Tuple.equal tuple) acc then acc else tuple :: acc in
  { oid; tuples = List.rev (List.fold_left add_unique [] tuples) }

let oid t = t.oid

let tuples t = t.tuples

let cardinal t = List.length t.tuples

let add t tuple =
  if List.exists (Tuple.equal tuple) t.tuples then t
  else { t with tuples = t.tuples @ [ tuple ] }

let remove t tuple = { t with tuples = List.filter (fun u -> not (Tuple.equal tuple u)) t.tuples }

let mem t tuple = List.exists (Tuple.equal tuple) t.tuples

let pointers t = List.filter_map Tuple.pointer_target t.tuples

let pointers_with_key t ~key =
  let match_tuple tuple =
    match Tuple.pointer_target tuple with
    | Some target when Value.equal (Tuple.key tuple) (Value.str key) -> Some target
    | Some _ | None -> None
  in
  List.filter_map match_tuple t.tuples

let find_string t ~key =
  let match_tuple tuple =
    if
      String.equal (Tuple.ttype tuple) Tuple.type_string
      && Value.equal (Tuple.key tuple) (Value.str key)
    then Value.as_string (Tuple.data tuple)
    else None
  in
  List.find_map match_tuple t.tuples

let keywords t =
  let keyword_of tuple =
    if String.equal (Tuple.ttype tuple) Tuple.type_keyword then Value.as_string (Tuple.key tuple)
    else None
  in
  List.filter_map keyword_of t.tuples

let byte_size t = 13 + List.fold_left (fun acc tuple -> acc + Tuple.byte_size tuple) 0 t.tuples

let equal a b =
  Oid.equal a.oid b.oid
  && List.length a.tuples = List.length b.tuples
  && List.for_all (fun tuple -> List.exists (Tuple.equal tuple) b.tuples) a.tuples

let pp ppf t =
  Fmt.pf ppf "@[<v 2>object %a {@,%a@]@,}" Oid.pp t.oid
    (Fmt.list ~sep:Fmt.cut Tuple.pp)
    t.tuples
