(* Index-accelerated evaluation of the paper's flagship query shape:

     S [ (Pointer, key, ?X) ^^X ]* selection

   i.e. "find all objects reachable from S via pointers named key that in
   addition satisfy a selection".  When a reachability index for the key
   and (for keyword selections) a keyword index are available, the
   answer is an intersection of indexed sets — no graph traversal at
   query time.  [answer] recognizes the shape; anything else falls back
   to the engine, so [answer] is always safe to call. *)

type indexes = {
  reachability : Reachability.t option;
  keywords : Keyword_index.t option;
}

let no_indexes = { reachability = None; keywords = None }

type plan =
  | Indexed of string (* human-readable description, for explain *)
  | Scan

(* Recognize: [ (Pointer, key, ?X) ^^X ]* selection, with the iteration
   over exactly those two elements and a single trailing selection. *)
let recognize ast =
  match ast with
  | [ Hf_query.Ast.Block
        { body =
            [ Hf_query.Ast.Select
                { ttype = Hf_query.Pattern.Exact (Hf_data.Value.Str ptype);
                  key = key_pattern;
                  data = Hf_query.Pattern.Bind var;
                };
              Hf_query.Ast.Deref { var = dvar; mode = Hf_query.Filter.Keep_parent }
            ];
          count = Hf_query.Filter.Star;
        };
      (Hf_query.Ast.Select _ as selection)
    ]
    when String.equal ptype Hf_data.Tuple.type_pointer && String.equal var dvar -> (
      match key_pattern with
      | Hf_query.Pattern.Exact (Hf_data.Value.Str key) -> Some (Some key, selection)
      | Hf_query.Pattern.Any -> Some (None, selection)
      | _ -> None)
  | _ -> None

let selection_matches ~find selection oid =
  match find oid with
  | None -> false
  | Some obj -> (
      match selection with
      | Hf_query.Ast.Select { ttype; key; data } ->
        let lookup _ = [] in
        List.exists
          (fun tuple ->
            Hf_query.Pattern.matches ttype
              (Hf_data.Value.str (Hf_data.Tuple.ttype tuple))
              ~lookup
            && Hf_query.Pattern.matches key (Hf_data.Tuple.key tuple) ~lookup
            && Hf_query.Pattern.matches data (Hf_data.Tuple.data tuple) ~lookup)
          (Hf_data.Hobject.tuples obj)
      | Hf_query.Ast.Deref _ | Hf_query.Ast.Retrieve _ | Hf_query.Ast.Block _ -> false)

let keyword_of_selection = function
  | Hf_query.Ast.Select
      { ttype = Hf_query.Pattern.Exact (Hf_data.Value.Str t); key; data = Hf_query.Pattern.Any }
    when String.equal t Hf_data.Tuple.type_keyword -> (
      match key with
      | Hf_query.Pattern.Exact (Hf_data.Value.Str word) -> Some word
      | Hf_query.Pattern.Glob word -> Some word
      | _ -> None)
  | _ -> None

let explain indexes ast =
  match recognize ast with
  | None -> Scan
  | Some (key, selection) -> (
      match indexes.reachability with
      | Some reach when Reachability.key reach = key -> (
          match keyword_of_selection selection, indexes.keywords with
          | Some word, Some _ -> Indexed (Printf.sprintf "reachability ∩ keyword(%s)" word)
          | _ -> Indexed "reachability + residual selection scan")
      | Some _ | None -> Scan)

let answer ?(indexes = no_indexes) ~find ast initial =
  match recognize ast, indexes.reachability with
  | Some (key, selection), Some reach when Reachability.key reach = key ->
    let closure =
      List.fold_left
        (fun acc oid -> Hf_data.Oid.Set.union acc (Reachability.reachable reach oid))
        Hf_data.Oid.Set.empty initial
    in
    let result =
      match keyword_of_selection selection, indexes.keywords with
      | Some word, Some kw_index ->
        Hf_data.Oid.Set.inter closure (Keyword_index.lookup_glob kw_index word)
      | _, _ -> Hf_data.Oid.Set.filter (selection_matches ~find selection) closure
    in
    result
  | _ ->
    (* General case: delegate to the engine. *)
    let program = Hf_query.Compile.compile ast in
    (Hf_engine.Local.run ~find program initial).Hf_engine.Local.result_set
