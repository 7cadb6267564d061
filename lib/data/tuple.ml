(* Tuples are the unit of structure inside an object: a type tag that
   tells HyperFile how to interpret the remaining fields, an
   application-chosen key, and a data field.  Type tags are open — an
   application can define "Object_Code" and HyperFile will store it
   without understanding it. *)

type t = { ttype : string; key : Value.t; data : Value.t }

let make ~ttype ~key ~data =
  if String.length ttype = 0 then invalid_arg "Tuple.make: empty type tag";
  { ttype; key; data }

let ttype t = t.ttype

let key t = t.key

let data t = t.data

(* Well-known type tags used throughout the paper's examples.  These are
   conventions between applications, not a schema: HyperFile itself only
   checks that a Pointer tuple's data field is a pointer. *)
let type_string = "String"
let type_text = "Text"
let type_pointer = "Pointer"
let type_keyword = "Keyword"
let type_number = "Number"

let string_ ~key v = make ~ttype:type_string ~key:(Value.str key) ~data:(Value.str v)

let text ~key body = make ~ttype:type_text ~key:(Value.str key) ~data:(Value.blob body)

let pointer ~key oid = make ~ttype:type_pointer ~key:(Value.str key) ~data:(Value.ptr oid)

let keyword word = make ~ttype:type_keyword ~key:(Value.str word) ~data:(Value.num 1)

let number ~key n = make ~ttype:type_number ~key:(Value.str key) ~data:(Value.num n)

let is_pointer t = String.equal t.ttype type_pointer

let pointer_target t =
  if is_pointer t then Value.as_pointer t.data else None

let equal a b =
  String.equal a.ttype b.ttype && Value.equal a.key b.key && Value.equal a.data b.data

let byte_size t = 5 + String.length t.ttype + Value.byte_size t.key + Value.byte_size t.data

let pp ppf t = Fmt.pf ppf "(%s, %a, %a)" t.ttype Value.pp t.key Value.pp t.data
