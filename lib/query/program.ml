(* A compiled query body: the flat array F_0 ... F_{n-1}.  (The paper
   numbers filters from 1; we use 0-based indexes throughout and the
   distinguished index [length] means "past the last filter", i.e. the
   object has passed everything.) *)

type t = { filters : Filter.t array }

exception Ill_formed of string

let check filters =
  Array.iteri
    (fun i filter ->
      match filter with
      | Filter.Iter { body_start; _ } ->
        if body_start > i then
          raise
            (Ill_formed
               (Printf.sprintf "iterator at %d has body_start %d beyond itself" i body_start))
      | Filter.Select _ | Filter.Deref _ | Filter.Retrieve _ -> ())
    filters

let of_filters filters =
  let filters = Array.of_list filters in
  check filters;
  { filters }

let filters t = Array.to_list t.filters

let length t = Array.length t.filters

let get t i =
  if i < 0 || i >= Array.length t.filters then invalid_arg "Program.get: index out of bounds";
  t.filters.(i)

let equal a b =
  Array.length a.filters = Array.length b.filters
  && Array.for_all2 Filter.equal a.filters b.filters

(* Rough serialized size of the query body, in bytes.  The paper reports
   ~40-byte query messages; this estimate feeds the communication-cost
   accounting in the benchmarks. *)
let byte_size t =
  let pattern_size = function
    | Pattern.Any -> 1
    | Pattern.Exact v -> 1 + Hf_data.Value.byte_size v
    | Pattern.Glob g -> 1 + String.length g
    | Pattern.Range _ -> 9
    | Pattern.Bind v | Pattern.Use v -> 1 + String.length v
  in
  let filter_size = function
    | Filter.Select { ttype; key; data } ->
      1 + pattern_size ttype + pattern_size key + pattern_size data
    | Filter.Deref { var; _ } -> 2 + String.length var
    | Filter.Iter _ -> 6
    | Filter.Retrieve { ttype; key; target } ->
      1 + pattern_size ttype + pattern_size key + String.length target
  in
  Array.fold_left (fun acc f -> acc + filter_size f) 4 t.filters

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.iter_bindings ~sep:Fmt.cut
       (fun f arr -> Array.iteri (fun i x -> f i x) arr)
       (fun ppf (i, filter) -> Fmt.pf ppf "F%d: %a" i Filter.pp filter))
    t.filters
