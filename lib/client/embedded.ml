(* The embedded-language client (paper, Section 2): applications name
   object sets, pose queries whose results bind new named sets, and pull
   tuple values into application variables with the -> operator.

     let server = Embedded.create ~n_sites:3 () in
     ...
     Embedded.define_set server "S" [oid_a; oid_b];
     let r = Embedded.query server "S [ (Pointer, \"Ref\", ?X) ^^X ]* \
                                    (Keyword, \"Distributed\", ?) -> T" in
     (* the result set is now also available as "T" *)

   Queries run on the weighted-termination cluster (the paper's
   configuration). *)

module C = Hf_server.Instances.Weighted

exception Invalid_query of string

type t = {
  cluster : C.t;
  sets : (string, Hf_data.Oid.t list) Hashtbl.t;
  mutable default_origin : int;
}

let create ?config ?tracer ~n_sites () =
  {
    cluster = C.create ?config ?tracer ~n_sites ();
    sets = Hashtbl.create 8;
    default_origin = 0;
  }

let cluster t = t.cluster

let store t site = C.store t.cluster site

let set_default_origin t origin = t.default_origin <- origin

let define_set t name oids = Hashtbl.replace t.sets name oids

let find_set t name = Hashtbl.find_opt t.sets name

let set_exn t name =
  match find_set t name with
  | Some oids -> oids
  | None -> raise (Invalid_query (Printf.sprintf "unknown set %S" name))

type result = {
  outcome : Hf_server.Cluster.outcome;
  target : string option;
  (* convenience projections *)
  oids : Hf_data.Oid.t list;
  values : (string * Hf_data.Value.t list) list;
  handle : C.handle; (* for post-hoc profiling *)
}

let check_body body =
  match Hf_query.Validate.errors body with
  | [] -> ()
  | issues ->
    let messages = List.map (fun i -> i.Hf_query.Validate.message) issues in
    raise (Invalid_query (String.concat "; " messages))

let run_parsed t ~origin (q : Hf_query.Parser.query) =
  check_body q.body;
  let initial = match q.source with None -> [] | Some name -> set_exn t name in
  let program = Hf_query.Compile.compile q.body in
  let handle = C.submit t.cluster ~origin program initial in
  C.await_quiescence t.cluster;
  let outcome = C.outcome t.cluster handle in
  (match q.target with
   | Some name -> Hashtbl.replace t.sets name outcome.Hf_server.Cluster.results
   | None -> ());
  {
    outcome;
    target = q.target;
    oids = outcome.Hf_server.Cluster.results;
    values = outcome.Hf_server.Cluster.bindings;
    handle;
  }

let query ?origin t text =
  let origin = Option.value origin ~default:t.default_origin in
  match Hf_query.Parser.parse_query text with
  | q -> run_parsed t ~origin q
  | exception Hf_query.Parser.Parse_error { message; pos } ->
    raise (Invalid_query (Printf.sprintf "parse error at %d:%d: %s" pos.line pos.col message))

let query_ast ?origin ?source ?target t body =
  let origin = Option.value origin ~default:t.default_origin in
  run_parsed t ~origin { Hf_query.Parser.source; body; target }

(* Create an object on a site and return its oid — the write half of the
   application interface. *)
let create_object t ~site tuples =
  Hf_data.Hobject.oid (Hf_data.Store.create_object (store t site) tuples)

let create_set_object t ~site ?key members =
  let obj = Hf_data.Store.create_set (store t site) ?key members in
  Hf_data.Hobject.oid obj

let sets t = Hashtbl.fold (fun name oids acc -> (name, oids) :: acc) t.sets []

(* Set algebra over named sets.  Result sets are ordinary named sets, so
   applications can combine query results before refining them further
   (paper §2: sets are the currency of the interface). *)

let as_set oids = Hf_data.Oid.Set.of_list oids

let define_combined t name combine a b =
  let result =
    Hf_data.Oid.Set.elements (combine (as_set (set_exn t a)) (as_set (set_exn t b)))
  in
  Hashtbl.replace t.sets name result;
  result

let define_union t name a b = define_combined t name Hf_data.Oid.Set.union a b

let define_inter t name a b = define_combined t name Hf_data.Oid.Set.inter a b

let define_diff t name a b = define_combined t name Hf_data.Oid.Set.diff a b

(* Materialize a named set as a HyperFile object of pointer tuples (the
   paper's on-server set representation), so it can itself be stored,
   pointed at, and dereferenced. *)
let store_set t ~site name =
  create_set_object t ~site (set_exn t name)
