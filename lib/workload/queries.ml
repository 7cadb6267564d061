(* The query templates of the paper's experiments: traverse the
   transitive closure of one pointer class from the root, selecting by a
   search-key tuple.  The benchmark runs 100 of these per configuration,
   randomizing the key searched for, "so the 100 queries were comparable
   but not identical". *)

let closure_body ~pointer_key selection =
  Hf_query.Builder.reachability ~key:pointer_key selection

let depth_body ~pointer_key ~depth selection =
  Hf_query.Builder.reachability ~depth ~key:pointer_key selection

(* Selections over the synthetic search keys. *)

let select_number ~key value =
  Hf_query.Ast.Select
    {
      ttype = Hf_query.Pattern.exact_str Hf_data.Tuple.type_number;
      key = Hf_query.Pattern.exact_str key;
      data = Hf_query.Pattern.exact_num value;
    }

let select_unique i = select_number ~key:"Unique" i

let select_common = select_number ~key:"Common" 1

let select_rand10 v = select_number ~key:"Rand10" v

let select_rand100 v = select_number ~key:"Rand100" v

let select_rand1000 v = select_number ~key:"Rand1000" v

type selectivity = Unique | Rand1000 | Rand100 | Rand10 | All

(* A randomized selection of the given selectivity, as in the paper's
   100-query runs. *)
let random_selection prng ~n_objects = function
  | Unique -> select_unique (Hf_util.Prng.next_int prng n_objects)
  | Rand1000 -> select_rand1000 (1 + Hf_util.Prng.next_int prng 1000)
  | Rand100 -> select_rand100 (1 + Hf_util.Prng.next_int prng 100)
  | Rand10 -> select_rand10 (1 + Hf_util.Prng.next_int prng 10)
  | All -> select_common

let closure_program ~pointer_key selection =
  Hf_query.Compile.compile (closure_body ~pointer_key selection)
