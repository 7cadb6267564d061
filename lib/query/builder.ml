(* Combinator interface for constructing queries from application code —
   the programmatic twin of the concrete syntax.  Designed for
   pipeline-style use:

     Builder.(
       body
         [ closure [ pointers ~key:"Reference" "X"; follow "X" ]
         ; keyword "Distributed"
         ])
*)

let select ?(ttype = Pattern.any) ?(key = Pattern.any) ?(data = Pattern.any) () =
  Ast.Select { ttype; key; data }

(* Selection of pointer tuples with a given key, binding the targets. *)
let pointers ?key var =
  let key_pattern = match key with Some k -> Pattern.exact_str k | None -> Pattern.any in
  Ast.Select
    { ttype = Pattern.exact_str Hf_data.Tuple.type_pointer;
      key = key_pattern;
      data = Pattern.bind var;
    }

let keyword word =
  Ast.Select
    { ttype = Pattern.exact_str Hf_data.Tuple.type_keyword;
      key = Pattern.glob word;
      data = Pattern.any;
    }

let follow var = Ast.Deref { var; mode = Filter.Replace }

let follow_keeping var = Ast.Deref { var; mode = Filter.Keep_parent }

let closure body = Ast.closure body

let body elements = elements

(* The query shape used throughout the paper's experiments: follow
   pointers with [key] to the transitive closure (or [depth] levels),
   keeping every visited object, and filter by a selection. *)
let reachability ?depth ~key selection =
  let count =
    match depth with
    | None -> Filter.Star
    | Some k when k >= 1 -> Filter.Finite k
    | Some k -> invalid_arg (Printf.sprintf "Builder.reachability: depth %d < 1" k)
  in
  let var = "X" in
  [ Ast.Block { body = [ pointers ~key var; follow_keeping var ]; count }; selection ]

let program elements = Compile.compile elements
