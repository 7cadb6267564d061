(* Structural probes over [Types.type_expr] without an environment.

   hfcheck never loads cmi files or builds a typing [Env.t]: that keeps
   the tool independent of the exact build layout, at the cost of not
   expanding abstract types.  Instead we match type-constructor *paths*
   against a list of known identity-bearing types: [Oid.t] (and its
   [Oid.Set]/[Oid.Table]/[Oid.Map] instances, whose structural layout
   also diverges from identity), plus the concrete types that contain
   Oids transitively.  An [Oid.t] abstract in some other compilation
   unit still shows up here as a [Tconstr] on [Hf_data__Oid.t], which is
   exactly what we match. *)

(* Path names whose values embed object identity and therefore must not
   be compared, ordered or hashed structurally. *)
let oid_module_marker = "Oid."

let forbidden_suffixes =
  [ "Oid.t"; "Value.t"; "Hobject.t"; "Tuple.t"; "Work_item.t"; "Message.t" ]

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

(* True when [name] mentions module [Oid.] at a module-name boundary:
   "Hf_data__Oid.t", "Hf_data.Oid.Set.t", "Oid.Table.t"... but not
   "Paranoid.t". *)
let mentions_oid_module name =
  let k = String.length oid_module_marker in
  let n = String.length name in
  let boundary i =
    i = 0
    ||
    match name.[i - 1] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> false | _ -> true
  in
  let rec go i =
    if i + k > n then false
    else if boundary i && String.sub name i k = oid_module_marker then true
    else go (i + 1)
  in
  go 0

let forbidden_path name =
  mentions_oid_module name
  || List.exists (fun suffix -> ends_with ~suffix name) forbidden_suffixes

type verdict =
  | Clean
  | Has_identity of string  (* the offending type-constructor path *)
  | Has_function

(* Depth-first search over the type expression; [visited] breaks cycles
   through recursive types. *)
let probe ty =
  let visited = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if Hashtbl.mem visited id then Clean
    else begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tconstr (path, args, _) ->
        let name = Path.name path in
        if forbidden_path name then Has_identity name else first args
      | Types.Tarrow (_, _, _, _) -> Has_function
      | Types.Ttuple tys -> first tys
      | Types.Tpoly (t, tys) -> first (t :: tys)
      | Types.Tlink t | Types.Tsubst (t, _) -> go t
      | Types.Tvariant _ | Types.Tobject _ | Types.Tfield _ | Types.Tnil
      | Types.Tvar _ | Types.Tunivar _ | Types.Tpackage _ ->
        Clean
    end
  and first = function
    | [] -> Clean
    | ty :: rest -> ( match go ty with Clean -> first rest | verdict -> verdict)
  in
  go ty

(* The key type of a polymorphic hashtable type expression, if [ty] is
   [('k, 'v) Hashtbl.t] from the stdlib (not a [Hashtbl.Make] instance,
   whose [t] takes one parameter and carries its own hash). *)
let stdlib_hashtbl_key ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, [ key; _value ], _) when ends_with ~suffix:"Hashtbl.t" (Path.name path)
    ->
    Some key
  | _ -> None

let describe ty = Fmt.str "%a" Printtyp.type_expr ty
