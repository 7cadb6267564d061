(* Matching-variable bindings for one object while it is being processed.
   Bindings always start empty when an object is taken from the working
   set (paper, Section 3.1) and are discarded afterwards — they are never
   stored in W or sent over the network.

   A query binds few variables, so they sit in a list, newest first: an
   object that binds none costs one small record, not a table. *)

type binding = { name : string; mutable values : Hf_data.Value.t list }

type t = { mutable vars : binding list }

let create () = { vars = [] }

let rec find var = function
  | [] -> raise Not_found
  | b :: rest -> if String.equal b.name var then b else find var rest

let lookup t var = match find var t.vars with b -> b.values | exception Not_found -> []

let add t var value =
  match find var t.vars with
  | exception Not_found -> t.vars <- { name = var; values = [ value ] } :: t.vars
  | b ->
    if not (List.exists (Hf_data.Value.equal value) b.values) then b.values <- value :: b.values

let add_all t bindings = List.iter (fun (var, value) -> add t var value) bindings
