(* The hfcheck rule set, run over one typed tree (.cmt implementation).

   R1 poly-compare  — polymorphic =, <>, compare, ordering, min/max,
                      Hashtbl.hash, List.mem/assoc and stdlib Hashtbl
                      instantiated at types containing Oid.t/Value.t
                      (their identity is their module's equal/compare/
                      hash, not their structural layout) or containing
                      functions.
   R2 codec-tag     — write_*/read_* pairs: one-byte wire tags must be
                      unique, writer/decoder-consistent per constructor,
                      and never the reserved traced-envelope tag 127.
   R3 guarded-by    — fields declared [@hf.guarded_by "f"] may only be
                      touched lexically inside an application of [f] or
                      inside a binding annotated [@@hf.requires_lock "f"].
   R4 swallow       — [try ... with _ -> <constant>] silently drops an
                      exception.
   R5 io            — direct stdout/stderr printing (reporters only; the
                      driver scopes this rule to lib/).

   Each rule reports at the precise sub-expression, so findings are
   clickable file:line:col locations in the original source. *)

open Typedtree

type ctx = { add : Finding.t -> unit }

let error ctx ~rule loc fmt =
  Fmt.kstr (fun message -> ctx.add (Finding.make ~rule ~severity:Finding.Error loc message)) fmt

let warning ctx ~rule loc fmt =
  Fmt.kstr
    (fun message -> ctx.add (Finding.make ~rule ~severity:Finding.Warning loc message))
    fmt

(* --- small typed-tree helpers ------------------------------------------ *)

let ident_name (e : expression) =
  match e.exp_desc with Texp_ident (path, _, _) -> Some (Path.name path) | _ -> None

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let rec arrow_domain ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, domain, _, _) -> Some domain
  | Types.Tpoly (t, _) -> arrow_domain t
  | _ -> None

let head_path ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) -> Some (Path.name path)
  | _ -> None

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some (e : expression) -> Some e | _ -> None)
    args

(* A no-argument constructor ([], None, a constant constructor): comparing
   against one only inspects the tag, which is identity-safe. *)
let is_constant_constructor (e : expression) =
  match e.exp_desc with Texp_construct (_, _, []) -> true | _ -> false

let rec pattern_is_wild : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var (_, name) -> String.length name.Location.txt > 0 && name.Location.txt.[0] = '_'
  | Tpat_alias (inner, _, _) -> pattern_is_wild inner
  | Tpat_value v -> pattern_is_wild (v :> pattern)
  | Tpat_exception inner -> pattern_is_wild inner
  | _ -> false

let rec pattern_constructors : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> [ cd.Types.cstr_name ]
  | Tpat_or (a, b, _) -> pattern_constructors a @ pattern_constructors b
  | Tpat_alias (inner, _, _) -> pattern_constructors inner
  | Tpat_value v -> pattern_constructors (v :> pattern)
  | _ -> []

let rec pattern_constant : type k. k general_pattern -> (int * Location.t) option =
 fun p ->
  match p.pat_desc with
  | Tpat_constant (Asttypes.Const_int n) -> Some (n, p.pat_loc)
  | Tpat_alias (inner, _, _) -> pattern_constant inner
  | Tpat_value v -> pattern_constant (v :> pattern)
  | _ -> None

(* ======================================================================= *)
(* R1: polymorphic comparison / hashing at identity-bearing types          *)
(* ======================================================================= *)

let eq_ops =
  [
    "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.>"; "Stdlib.<=";
    "Stdlib.>="; "Stdlib.min"; "Stdlib.max";
  ]

let hash_fns =
  [
    "Stdlib.Hashtbl.hash"; "Hashtbl.hash"; "Stdlib.Hashtbl.seeded_hash";
    "Hashtbl.seeded_hash";
  ]

(* Stdlib functions whose first arrow argument is compared with
   polymorphic equality against container elements / assoc keys. *)
let mem_fns =
  [
    "Stdlib.List.mem"; "List.mem"; "Stdlib.List.assoc"; "List.assoc";
    "Stdlib.List.assoc_opt"; "List.assoc_opt"; "Stdlib.List.mem_assoc";
    "List.mem_assoc"; "Stdlib.Array.mem"; "Array.mem";
  ]

let remedy = function
  | Type_probe.Has_identity path ->
    Fmt.str
      "contains %s, whose identity is its module's equal/compare/hash, not its \
       structural layout (a NaN Value.Real, an Oid.Set's tree shape) — use \
       Oid.equal/Oid.compare/Oid.Table or Value.equal instead"
      path
  | Type_probe.Has_function -> "contains a function and would raise at runtime"
  | Type_probe.Clean -> assert false

let flag_poly ctx ~what ~loc ty =
  match Type_probe.probe ty with
  | Type_probe.Clean -> ()
  | verdict ->
    error ctx ~rule:"poly-compare" loc "polymorphic %s at type %s: %s" what
      (Type_probe.describe ty) (remedy verdict)

(* Suppress the generic ident-level check where an application-level
   check already ran (avoids double reports at the same site). *)
let claimed : (Location.t, unit) Hashtbl.t = Hashtbl.create 64

let check_poly_apply ctx (e : expression) =
  match e.exp_desc with
  | Texp_apply (funct, args) -> (
      match ident_name funct with
      | Some name when List.mem name eq_ops ->
        Hashtbl.replace claimed funct.exp_loc ();
        let positional = positional_args args in
        (* [x = []], [x = None]: tag-only comparison, identity-safe. *)
        if not (List.exists is_constant_constructor positional) then begin
          match positional with
          | arg :: _ -> flag_poly ctx ~what:(last_component name) ~loc:e.exp_loc arg.exp_type
          | [] -> (
              match arrow_domain funct.exp_type with
              | Some domain -> flag_poly ctx ~what:(last_component name) ~loc:e.exp_loc domain
              | None -> ())
        end
      | _ -> ())
  | _ -> ()

let check_poly_ident ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) when not (Hashtbl.mem claimed e.exp_loc) ->
    let name = Path.name path in
    if List.mem name eq_ops || List.mem name hash_fns || List.mem name mem_fns then begin
      match arrow_domain e.exp_type with
      | Some domain ->
        let what =
          if List.mem name hash_fns then "Hashtbl.hash"
          else if List.mem name mem_fns then last_component name ^ " (polymorphic equality)"
          else last_component name
        in
        flag_poly ctx ~what ~loc:e.exp_loc domain
      | None -> ()
    end
  | _ -> ()

(* Polymorphic hashtables keyed by an identity-bearing type hash its
   structural layout: two equal keys can occupy two buckets. *)
let check_poly_hashtbl ctx (e : expression) =
  match e.exp_desc with
  | Texp_apply (funct, args) -> (
      match ident_name funct with
      | Some name
        when (String.length name >= 15 && String.sub name 0 15 = "Stdlib.Hashtbl.")
             && not (List.mem name hash_fns) -> (
          let candidates =
            e.exp_type :: List.map (fun (a : expression) -> a.exp_type) (positional_args args)
          in
          let key_verdict =
            List.find_map
              (fun ty ->
                match Type_probe.stdlib_hashtbl_key ty with
                | Some key -> (
                    match Type_probe.probe key with
                    | Type_probe.Clean -> None
                    | verdict -> Some (key, verdict))
                | None -> None)
              candidates
          in
          match key_verdict with
          | Some (key, verdict) ->
            error ctx ~rule:"poly-compare" e.exp_loc
              "polymorphic Hashtbl keyed by %s: %s (use Oid.Table)"
              (Type_probe.describe key) (remedy verdict)
          | None -> ())
      | _ -> ())
  | _ -> ()

(* ======================================================================= *)
(* R4: swallowed exceptions                                                *)
(* ======================================================================= *)

let rec trivial_handler (e : expression) =
  match e.exp_desc with
  | Texp_constant _ | Texp_ident _ -> true
  | Texp_construct (_, _, args) -> List.for_all trivial_handler args
  | Texp_tuple es -> List.for_all trivial_handler es
  | _ -> false

let swallow_message =
  "exception swallowed: 'with _ -> <constant>' drops the failure silently; count it, \
   log it, or match the specific exception"

let check_swallow ctx (e : expression) =
  match e.exp_desc with
  | Texp_try (_, cases) ->
    List.iter
      (fun (case : value case) ->
        if pattern_is_wild case.c_lhs && case.c_guard = None && trivial_handler case.c_rhs
        then error ctx ~rule:"swallow" case.c_lhs.pat_loc "%s" swallow_message)
      cases
  | Texp_match (_, cases, _) ->
    List.iter
      (fun (case : computation case) ->
        let is_exception_case =
          match case.c_lhs.pat_desc with Tpat_exception _ -> true | _ -> false
        in
        if
          is_exception_case && pattern_is_wild case.c_lhs && case.c_guard = None
          && trivial_handler case.c_rhs
        then error ctx ~rule:"swallow" case.c_lhs.pat_loc "%s" swallow_message)
      cases
  | _ -> ()

(* ======================================================================= *)
(* R5: stray I/O                                                           *)
(* ======================================================================= *)

let io_fns =
  [
    "Stdlib.print_endline"; "Stdlib.print_string"; "Stdlib.print_newline";
    "Stdlib.print_char"; "Stdlib.print_int"; "Stdlib.print_float"; "Stdlib.print_bytes";
    "Stdlib.prerr_endline"; "Stdlib.prerr_string"; "Stdlib.prerr_newline";
    "Stdlib.Printf.printf"; "Printf.printf"; "Stdlib.Printf.eprintf"; "Printf.eprintf";
    "Stdlib.Format.printf"; "Format.printf"; "Stdlib.Format.eprintf"; "Format.eprintf";
    "Stdlib.Format.print_string"; "Format.print_string";
  ]

let check_io ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) when List.mem (Path.name path) io_fns ->
    error ctx ~rule:"io" e.exp_loc
      "%s prints to the process stdout/stderr from library code; return data or take a \
       formatter (reporters live in bin/)"
      (last_component (Path.name path))
  | _ -> ()

(* ======================================================================= *)
(* R3: lock discipline                                                     *)
(* ======================================================================= *)

(* Record fields annotated [@hf.guarded_by "f"], keyed by
   "typename.label" so that unrelated records sharing a label name don't
   inherit each other's guards.  The guard string names the
   critical-section wrapper function whose argument expressions
   (typically the [fun () -> ...] thunk) form the lexical region where
   access is legal. *)
let collect_guards (structure : structure) =
  let guards = Hashtbl.create 8 in
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
        List.iter
          (fun (decl : type_declaration) ->
            match decl.typ_kind with
            | Ttype_record labels ->
              List.iter
                (fun (ld : label_declaration) ->
                  List.iter
                    (fun attr ->
                      if Allow.(attr_name attr) = "hf.guarded_by" then
                        match Allow.string_payload attr with
                        | Some guard when guard <> "" ->
                          Hashtbl.replace guards
                            (decl.typ_name.Location.txt ^ "." ^ ld.ld_name.Location.txt)
                            guard
                        | _ -> ())
                    ld.ld_attributes)
                labels
            | _ -> ())
          decls
      | _ -> ())
    structure.str_items;
  guards

let requires_lock_guards (vb : value_binding) =
  List.filter_map
    (fun attr ->
      if Allow.attr_name attr = "hf.requires_lock" then Allow.string_payload attr
      else None)
    vb.vb_attributes

let check_guarded_access ctx ~guards ~held (e : expression) =
  let flag label loc guard =
    error ctx ~rule:"guarded-by" loc
      "field '%s' is guarded by '%s' but accessed outside it; wrap the access in %s \
       (...) or annotate the enclosing binding with [@@hf.requires_lock \"%s\"]"
      label guard guard guard
  in
  let lookup (ld : Types.label_description) =
    match head_path ld.Types.lbl_res with
    | Some record_type ->
      Hashtbl.find_opt guards (last_component record_type ^ "." ^ ld.Types.lbl_name)
    | None -> None
  in
  match e.exp_desc with
  | Texp_field (_, lid, ld) -> (
      match lookup ld with
      | Some guard when not (List.mem guard held) -> flag ld.Types.lbl_name lid.Location.loc guard
      | _ -> ())
  | Texp_setfield (_, lid, ld, _) -> (
      match lookup ld with
      | Some guard when not (List.mem guard held) -> flag ld.Types.lbl_name lid.Location.loc guard
      | _ -> ())
  | _ -> ()

(* ======================================================================= *)
(* R2: codec wire-tag conformance                                          *)
(* ======================================================================= *)

let reserved_tag = 127

type tag_entry = { ctor : string; tag : int; tag_loc : Location.t }

type tag_map = {
  binding : string;  (* write_value, read_value, ... *)
  entries : tag_entry list;
  wildcard : bool;
  default_ctor : string option;
      (* readers only: a default arm that still builds a family
         constructor decodes every leftover tag as that constructor *)
}

(* Peel [fun buf -> fun x -> body] down to the dispatching body. *)
let rec peel_params (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_rhs; c_guard = None } ]; _ }
    when pattern_constructors c_lhs = [] && pattern_constant c_lhs = None ->
    peel_params c_rhs
  | _ -> e

exception Found_tag of int * Location.t

(* First [write_u8 _ <literal>] in evaluation (DFS) order. *)
let first_written_tag (e : expression) =
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (funct, args) when
        (match ident_name funct with
        | Some name -> last_component name = "write_u8"
        | None -> false) ->
      List.iter
        (fun arg ->
          match arg with
          | Asttypes.Nolabel, Some { exp_desc = Texp_constant (Asttypes.Const_int n); exp_loc; _ }
            ->
            raise (Found_tag (n, exp_loc))
          | _ -> ())
        args
    | _ -> ());
    default.expr sub e
  in
  let iterator = { default with expr } in
  match iterator.expr iterator e with
  | () -> None
  | exception Found_tag (n, loc) -> Some (n, loc)

(* Every literal tag handed to write_u8 anywhere under [e]. *)
let all_written_tags (e : expression) =
  let acc = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (funct, args) when
        (match ident_name funct with
        | Some name -> last_component name = "write_u8"
        | None -> false) ->
      List.iter
        (fun arg ->
          match arg with
          | Asttypes.Nolabel, Some { exp_desc = Texp_constant (Asttypes.Const_int n); exp_loc; _ }
            ->
            acc := (n, exp_loc) :: !acc
          | _ -> ())
        args
    | _ -> ());
    default.expr sub e
  in
  let iterator = { default with expr } in
  iterator.expr iterator e;
  List.rev !acc

exception Found_ctor of string

(* First constructor of the family's own type built in [e]. *)
let first_constructed_ctor ~family_head (e : expression) =
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_construct (_, cd, _) when head_path cd.Types.cstr_res = Some family_head ->
      raise (Found_ctor cd.Types.cstr_name)
    | _ -> ());
    default.expr sub e
  in
  let iterator = { default with expr } in
  match iterator.expr iterator e with () -> None | exception Found_ctor c -> Some c

type case_view = { ctors : string list; wild : bool; rhs : expression }

let view_case (case : 'k case) =
  {
    ctors = pattern_constructors case.c_lhs;
    wild = pattern_is_wild case.c_lhs;
    rhs = case.c_rhs;
  }

let writer_map ~binding (body : expression) =
  let cases =
    match (peel_params body).exp_desc with
    | Texp_function { cases; _ } -> List.map view_case cases
    | Texp_match (_, cases, _) -> List.map view_case cases
    | _ -> []
  in
  if cases = [] then None
  else
    let entries, wildcard =
      List.fold_left
        (fun (entries, wildcard) case ->
          match (case.ctors, first_written_tag case.rhs) with
          | [], _ -> (entries, wildcard || case.wild)
          | ctors, Some (tag, tag_loc) ->
            (List.map (fun ctor -> { ctor; tag; tag_loc }) ctors @ entries, wildcard)
          | _, None -> (entries, wildcard))
        ([], false) cases
    in
    if entries = [] then None
    else Some { binding; entries = List.rev entries; wildcard; default_ctor = None }

let reader_map ~binding (body : expression) =
  let body = peel_params body in
  match body.exp_desc with
  | Texp_match (scrutinee, cases, _)
    when (match scrutinee.exp_desc with
         | Texp_apply (funct, _) -> (
             match ident_name funct with
             | Some name -> last_component name = "read_u8"
             | None -> false)
         | _ -> false) ->
    let family_head = head_path body.exp_type in
    let entries =
      List.filter_map
        (fun (case : computation case) ->
          match (pattern_constant case.c_lhs, family_head) with
          | Some (tag, tag_loc), Some family_head -> (
              match first_constructed_ctor ~family_head case.c_rhs with
              | Some ctor -> Some { ctor; tag; tag_loc }
              | None -> None)
          | _ -> None)
        cases
    in
    let default_ctor =
      List.find_map
        (fun (case : computation case) ->
          match (pattern_constant case.c_lhs, family_head) with
          | None, Some family_head when pattern_constructors case.c_lhs = [] ->
            first_constructed_ctor ~family_head case.c_rhs
          | _ -> None)
        cases
    in
    if entries = [] then None
    else Some { binding; entries; wildcard = false; default_ctor }
  | _ -> None

let check_duplicate_tags ctx map =
  ignore
    (List.fold_left
       (fun seen entry ->
         (match List.assoc_opt entry.tag seen with
         | Some other when other <> entry.ctor ->
           error ctx ~rule:"codec-tag" entry.tag_loc
             "duplicate wire tag %d in %s: used for both %s and %s" entry.tag map.binding
             other entry.ctor
         | _ -> ());
         (entry.tag, entry.ctor) :: seen)
       [] map.entries)

let check_reserved ctx ~binding body =
  List.iter
    (fun (tag, loc) ->
      if tag = reserved_tag then
        error ctx ~rule:"codec-tag" loc
          "wire tag %d is reserved for the traced-span envelope (Codec.traced_tag) but %s \
           writes it as a message tag"
          reserved_tag binding)
    (all_written_tags body)

let check_parity ctx (writer : tag_map) (reader : tag_map) =
  let reader_by_ctor ctor = List.find_opt (fun e -> e.ctor = ctor) reader.entries in
  let reader_by_tag tag = List.find_opt (fun e -> e.tag = tag) reader.entries in
  List.iter
    (fun w ->
      match reader_by_ctor w.ctor with
      | Some r when r.tag <> w.tag ->
        error ctx ~rule:"codec-tag" w.tag_loc
          "constructor %s: %s writes tag %d but %s decodes it at tag %d" w.ctor
          writer.binding w.tag reader.binding r.tag
      | Some _ -> ()
      | None -> (
          match reader_by_tag w.tag with
          | Some r ->
            error ctx ~rule:"codec-tag" w.tag_loc
              "tag %d: %s writes it for %s but %s decodes it as %s" w.tag writer.binding
              w.ctor reader.binding r.ctor
          | None ->
            if reader.default_ctor <> Some w.ctor then
              error ctx ~rule:"codec-tag" w.tag_loc
                "tag %d (%s) written by %s has no decoder arm in %s" w.tag w.ctor
                writer.binding reader.binding))
    writer.entries;
  if not writer.wildcard then
    List.iter
      (fun r ->
        let produced =
          List.exists (fun w -> w.ctor = r.ctor || w.tag = r.tag) writer.entries
        in
        if not produced then
          warning ctx ~rule:"codec-tag" r.tag_loc
            "decoder arm for tag %d (%s) in %s is never produced by %s" r.tag r.ctor
            reader.binding writer.binding)
      reader.entries

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_codec_tags ctx (structure : structure) =
  let writers = ref [] and readers = ref [] in
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (_, name) ->
              let name = name.Location.txt in
              if starts_with ~prefix:"write_" name then begin
                check_reserved ctx ~binding:name vb.vb_expr;
                match writer_map ~binding:name vb.vb_expr with
                | Some map ->
                  check_duplicate_tags ctx map;
                  let family = String.sub name 6 (String.length name - 6) in
                  writers := (family, map) :: !writers
                | None -> ()
              end
              else if starts_with ~prefix:"read_" name then begin
                match reader_map ~binding:name vb.vb_expr with
                | Some map ->
                  check_duplicate_tags ctx map;
                  let family = String.sub name 5 (String.length name - 5) in
                  readers := (family, map) :: !readers
                | None -> ()
              end
            | _ -> ())
          vbs
      | _ -> ())
    structure.str_items;
  List.iter
    (fun (family, writer) ->
      match List.assoc_opt family !readers with
      | Some reader -> check_parity ctx writer reader
      | None -> ())
    !writers

(* ======================================================================= *)
(* Driver entry: run every rule over one structure                         *)
(* ======================================================================= *)

let run (structure : structure) =
  let findings = ref [] in
  let ctx = { add = (fun f -> findings := f :: !findings) } in
  Hashtbl.reset claimed;
  (* R2 works structure-item-wise. *)
  check_codec_tags ctx structure;
  (* R1/R3/R4/R5 share one expression traversal.  R3 keeps a stack of
     held guards: entering an application of a guard function or the
     body of a [@@hf.requires_lock] binding pushes its guard. *)
  let guards = collect_guards structure in
  let guard_names =
    Hashtbl.fold (fun _ guard acc -> if List.mem guard acc then acc else guard :: acc)
      guards []
  in
  let held = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    check_poly_apply ctx e;
    check_poly_hashtbl ctx e;
    check_poly_ident ctx e;
    check_swallow ctx e;
    check_io ctx e;
    check_guarded_access ctx ~guards ~held:!held e;
    let entered_guard =
      match e.exp_desc with
      | Texp_apply (funct, _) -> (
          match ident_name funct with
          | Some name when List.mem (last_component name) guard_names ->
            Some (last_component name)
          | _ -> None)
      | _ -> None
    in
    let saved = !held in
    (match entered_guard with Some guard -> held := guard :: saved | None -> ());
    default.expr sub e;
    held := saved
  in
  let value_binding sub (vb : value_binding) =
    let saved = !held in
    held := requires_lock_guards vb @ saved;
    default.value_binding sub vb;
    held := saved
  in
  let iterator = { default with expr; value_binding } in
  iterator.structure iterator structure;
  List.rev !findings
