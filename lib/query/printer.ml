(* Pretty-printing of surface queries back to the concrete syntax
   accepted by [Parser]; [Parser.parse_body (to_string ast)] returns an
   AST equal to [ast] (round-trip property, tested). *)

let pp_pattern ppf pattern =
  match pattern with
  | Pattern.Any -> Fmt.string ppf "?"
  | Pattern.Bind var -> Fmt.pf ppf "?%s" var
  | Pattern.Use var -> Fmt.pf ppf "=%s" var
  | Pattern.Exact (Hf_data.Value.Str s) -> Fmt.pf ppf "%S" s
  | Pattern.Exact (Hf_data.Value.Num n) -> Fmt.int ppf n
  | Pattern.Exact v -> Hf_data.Value.pp ppf v
  | Pattern.Glob g -> Fmt.pf ppf "%S" g
  | Pattern.Range (lo, hi) -> Fmt.pf ppf "%d..%d" lo hi

let rec pp_element ppf = function
  | Ast.Select { ttype; key; data } ->
    Fmt.pf ppf "(%a, %a, %a)" pp_pattern ttype pp_pattern key pp_pattern data
  | Ast.Deref { var; mode = Filter.Replace } -> Fmt.pf ppf "^%s" var
  | Ast.Deref { var; mode = Filter.Keep_parent } -> Fmt.pf ppf "^^%s" var
  | Ast.Retrieve { ttype; key; target } ->
    Fmt.pf ppf "(%a, %a, ->%s)" pp_pattern ttype pp_pattern key target
  | Ast.Block { body; count = Filter.Star } -> Fmt.pf ppf "[ %a ]*" pp_body body
  | Ast.Block { body; count = Filter.Finite k } -> Fmt.pf ppf "[ %a ]^%d" pp_body body k

and pp_body ppf body = Fmt.list ~sep:Fmt.sp pp_element ppf body

let to_string ast = Fmt.str "%a" pp_body ast
