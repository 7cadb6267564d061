(* Patterns appearing in selection filters (paper, Section 3).  A pattern
   matches a single tuple field.  [Bind] always matches and records the
   field value as a binding of the matching variable; [Use] matches when
   the field value is among the variable's current bindings. *)

type t =
  | Any
  | Exact of Hf_data.Value.t
  | Glob of string
  | Range of int * int
  | Bind of string
  | Use of string

let any = Any

let exact_str s = Exact (Hf_data.Value.str s)

let exact_num n = Exact (Hf_data.Value.num n)

let glob pattern =
  if Hf_util.Glob.is_literal pattern then Exact (Hf_data.Value.str pattern) else Glob pattern

let range lo hi =
  if lo > hi then invalid_arg "Pattern.range: lo > hi";
  Range (lo, hi)

let bind var =
  if String.length var = 0 then invalid_arg "Pattern.bind: empty variable name";
  Bind var

let use var =
  if String.length var = 0 then invalid_arg "Pattern.use: empty variable name";
  Use var

let binds = function Bind var -> Some var | Any | Exact _ | Glob _ | Range _ | Use _ -> None

let uses = function Use var -> Some var | Any | Exact _ | Glob _ | Range _ | Bind _ -> None

let matches pattern value ~lookup =
  match pattern with
  | Any -> true
  | Bind _ -> true
  | Exact v -> Hf_data.Value.equal v value
  | Glob g ->
    (match value with
     | Hf_data.Value.Str s -> Hf_util.Glob.matches ~pattern:g s
     | Hf_data.Value.Num _ | Hf_data.Value.Real _ | Hf_data.Value.Ptr _ | Hf_data.Value.Blob _ ->
       false)
  | Range (lo, hi) ->
    (match value with
     | Hf_data.Value.Num n -> lo <= n && n <= hi
     | Hf_data.Value.Str _ | Hf_data.Value.Real _ | Hf_data.Value.Ptr _ | Hf_data.Value.Blob _ ->
       false)
  | Use var -> List.exists (Hf_data.Value.equal value) (lookup var)

let matches_str pattern s ~lookup =
  match pattern with
  | Any | Bind _ -> true
  | Exact (Hf_data.Value.Str x) -> String.equal x s
  | Exact (Hf_data.Value.Num _ | Hf_data.Value.Real _ | Hf_data.Value.Ptr _ | Hf_data.Value.Blob _)
  | Range _ ->
    false
  | Glob g -> Hf_util.Glob.matches ~pattern:g s
  | Use var ->
    List.exists
      (function
        | Hf_data.Value.Str x -> String.equal x s
        | Hf_data.Value.Num _ | Hf_data.Value.Real _ | Hf_data.Value.Ptr _ | Hf_data.Value.Blob _ ->
          false)
      (lookup var)

let equal a b =
  match a, b with
  | Any, Any -> true
  | Exact x, Exact y -> Hf_data.Value.equal x y
  | Glob x, Glob y -> String.equal x y
  | Range (a1, b1), Range (a2, b2) -> a1 = a2 && b1 = b2
  | Bind x, Bind y -> String.equal x y
  | Use x, Use y -> String.equal x y
  | (Any | Exact _ | Glob _ | Range _ | Bind _ | Use _), _ -> false

let pp ppf = function
  | Any -> Fmt.string ppf "?"
  | Exact v -> Hf_data.Value.pp ppf v
  | Glob g -> Fmt.pf ppf "%S" g
  | Range (lo, hi) -> Fmt.pf ppf "%d..%d" lo hi
  | Bind var -> Fmt.pf ppf "?%s" var
  | Use var -> Fmt.pf ppf "=%s" var
