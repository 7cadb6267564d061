(* Compiled filter operations F_1 ... F_n (paper, Section 3).  Filters
   are stored in a flat array; an iterator at index i records the index
   of the first filter of its body, so "[ body ]^k" compiles to the body
   filters followed by an [Iter] whose [body_start] points back at the
   body's first filter. *)

type deref_mode =
  | Keep_parent  (* the paper's double up-arrow: keep the pointing object too *)
  | Replace  (* the paper's single up-arrow: keep only the referenced objects *)

type iter_count = Finite of int | Star

type selection = { ttype : Pattern.t; key : Pattern.t; data : Pattern.t }

type t =
  | Select of selection
  | Deref of { var : string; mode : deref_mode }
  | Iter of { body_start : int; count : iter_count }
  | Retrieve of { ttype : Pattern.t; key : Pattern.t; target : string }

let select ~ttype ~key ~data = Select { ttype; key; data }

let deref ?(mode = Replace) var =
  if String.length var = 0 then invalid_arg "Filter.deref: empty variable name";
  Deref { var; mode }

let iter ~body_start ~count =
  if body_start < 0 then invalid_arg "Filter.iter: negative body_start";
  (match count with
   | Finite k when k < 1 -> invalid_arg "Filter.iter: count must be >= 1"
   | Finite _ | Star -> ());
  Iter { body_start; count }

let retrieve ~ttype ~key ~target =
  if String.length target = 0 then invalid_arg "Filter.retrieve: empty target name";
  Retrieve { ttype; key; target }

let equal_iter_count a b =
  match a, b with
  | Finite x, Finite y -> x = y
  | Star, Star -> true
  | (Finite _ | Star), _ -> false

let equal a b =
  match a, b with
  | Select x, Select y ->
    Pattern.equal x.ttype y.ttype && Pattern.equal x.key y.key && Pattern.equal x.data y.data
  | Deref x, Deref y -> String.equal x.var y.var && x.mode = y.mode
  | Iter x, Iter y -> x.body_start = y.body_start && equal_iter_count x.count y.count
  | Retrieve x, Retrieve y ->
    Pattern.equal x.ttype y.ttype && Pattern.equal x.key y.key && String.equal x.target y.target
  | (Select _ | Deref _ | Iter _ | Retrieve _), _ -> false

let pp_iter_count ppf = function
  | Finite k -> Fmt.int ppf k
  | Star -> Fmt.string ppf "*"

let pp ppf = function
  | Select { ttype; key; data } ->
    Fmt.pf ppf "(%a, %a, %a)" Pattern.pp ttype Pattern.pp key Pattern.pp data
  | Deref { var; mode = Replace } -> Fmt.pf ppf "^%s" var
  | Deref { var; mode = Keep_parent } -> Fmt.pf ppf "^^%s" var
  | Iter { body_start; count } -> Fmt.pf ppf "iter[from %d]^%a" body_start pp_iter_count count
  | Retrieve { ttype; key; target } ->
    Fmt.pf ppf "(%a, %a, ->%s)" Pattern.pp ttype Pattern.pp key target
