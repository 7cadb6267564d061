(* Conventional inverted index over keyword tuples (paper, Section 2 —
   "we have developed facilities for indexing [4]: conventional indexes,
   say for keywords in documents").

   Maps each keyword to the set of objects containing a (Keyword, word,
   _) tuple.  Maintained incrementally as objects are added, replaced or
   removed. *)

type t = { mutable entries : Hf_data.Oid.Set.t Smap.t }

let create () = { entries = Smap.empty }

let keywords_of obj = List.sort_uniq String.compare (Hf_data.Hobject.keywords obj)

let add t obj =
  let oid = Hf_data.Hobject.oid obj in
  List.iter
    (fun word ->
      let set =
        match Smap.find_opt word t.entries with
        | None -> Hf_data.Oid.Set.empty
        | Some set -> set
      in
      t.entries <- Smap.add word (Hf_data.Oid.Set.add oid set) t.entries)
    (keywords_of obj)

let remove t obj =
  let oid = Hf_data.Hobject.oid obj in
  List.iter
    (fun word ->
      match Smap.find_opt word t.entries with
      | None -> ()
      | Some set ->
        let set = Hf_data.Oid.Set.remove oid set in
        t.entries <-
          (if Hf_data.Oid.Set.is_empty set then Smap.remove word t.entries
           else Smap.add word set t.entries))
    (keywords_of obj)

let replace t ~old_obj obj =
  remove t old_obj;
  add t obj

let of_store store =
  let t = create () in
  Hf_data.Store.iter store (add t);
  t

let lookup t word =
  match Smap.find_opt word t.entries with
  | None -> Hf_data.Oid.Set.empty
  | Some set -> set

(* Glob lookup scans the dictionary; exact lookups stay O(log n). *)
let lookup_glob t pattern =
  if Hf_util.Glob.is_literal pattern then lookup t pattern
  else
    Smap.fold
      (fun word set acc ->
        if Hf_util.Glob.matches ~pattern word then Hf_data.Oid.Set.union set acc else acc)
      t.entries Hf_data.Oid.Set.empty

let cardinal t = Smap.cardinal t.entries
