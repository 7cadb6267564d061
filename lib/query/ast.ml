(* Surface abstract syntax: a query body is a sequence of elements, with
   iteration as a nested block "[ body ]^k".  [Compile] flattens blocks
   into the indexed form used by the engine. *)

type element =
  | Select of Filter.selection
  | Deref of { var : string; mode : Filter.deref_mode }
  | Retrieve of { ttype : Pattern.t; key : Pattern.t; target : string }
  | Block of { body : element list; count : Filter.iter_count }

type t = element list

let closure body = Block { body; count = Filter.Star }

let repeat k body = Block { body; count = Filter.Finite k }

let rec equal_element a b =
  match a, b with
  | Select x, Select y ->
    Pattern.equal x.ttype y.ttype && Pattern.equal x.key y.key && Pattern.equal x.data y.data
  | Deref x, Deref y -> String.equal x.var y.var && x.mode = y.mode
  | Retrieve x, Retrieve y ->
    Pattern.equal x.ttype y.ttype && Pattern.equal x.key y.key && String.equal x.target y.target
  | Block x, Block y ->
    Filter.equal_iter_count x.count y.count
    && List.length x.body = List.length y.body
    && List.for_all2 equal_element x.body y.body
  | (Select _ | Deref _ | Retrieve _ | Block _), _ -> false

let equal a b = List.length a = List.length b && List.for_all2 equal_element a b

(* Replace every finite block by its k-fold unrolled body.  "The meaning
   of [query parts]^k is to repeat query part k times, as if the loop was
   unrolled and executed straight through" — used as a semantic oracle in
   the property tests. *)
let rec unroll elements = List.concat_map unroll_element elements

and unroll_element = function
  | (Select _ | Deref _ | Retrieve _) as e -> [ e ]
  | Block { body; count = Filter.Star } -> [ Block { body = unroll body; count = Filter.Star } ]
  | Block { body; count = Filter.Finite k } ->
    let unrolled = unroll body in
    List.concat (List.init k (fun _ -> unrolled))

let rec depth elements =
  let element_depth = function
    | Select _ | Deref _ | Retrieve _ -> 0
    | Block { body; _ } -> 1 + depth body
  in
  List.fold_left (fun acc e -> max acc (element_depth e)) 0 elements

let rec variables elements =
  let element_vars = function
    | Select { ttype; key; data } ->
      List.filter_map Pattern.binds [ ttype; key; data ]
    | Deref { var; _ } -> [ var ]
    | Retrieve _ -> []
    | Block { body; _ } -> variables body
  in
  List.sort_uniq String.compare (List.concat_map element_vars elements)
