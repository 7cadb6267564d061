(* hfcheck fixture: the correct version of every bad_r* pattern.  Must
   produce zero findings. *)

(* R1: dedicated equality, hashing, tables. *)
let equal_ok (a : Hf_data.Oid.t) b = Hf_data.Oid.equal a b

let compare_ok (a : Hf_data.Oid.t) b = Hf_data.Oid.compare a b

let hash_ok (o : Hf_data.Oid.t) = Hf_data.Oid.hash o

let mem_ok (o : Hf_data.Oid.t) os = List.exists (Hf_data.Oid.equal o) os

let table_ok (table : int Hf_data.Oid.Table.t) o = Hf_data.Oid.Table.find_opt table o

let nil_check_ok (os : Hf_data.Oid.t list) = os = [] (* tag-only: identity-safe *)

let int_compare_ok (a : int) b = compare a b

(* R2: unique tags, matching decoder. *)
type shape = Circle of int | Square of int

let write_u8 buf n = Buffer.add_char buf (Char.chr n)

let read_u8 (s, pos) = Char.code s.[pos]

let write_shape buf shape =
  match shape with
  | Circle r ->
    write_u8 buf 0;
    write_u8 buf r
  | Square s ->
    write_u8 buf 1;
    write_u8 buf s

let read_shape input = match read_u8 input with 0 -> Circle 1 | _ -> Square 2

(* R3: guarded field touched only under its lock. *)
type counter = {
  mutex : Mutex.t;
  mutable count : int; [@hf.guarded_by "locked"]
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let increment t = locked t (fun () -> t.count <- t.count + 1)

let read t = locked t (fun () -> t.count)

let read_presumed_locked t = t.count [@@hf.requires_lock "locked"]

(* R4: a typed handler and a handler with a side effect. *)
let typed_handler f = try f () with Not_found -> ()

let counting_handler errors f = try f () with _ -> incr errors

(* R5: rendering goes through a formatter, not stdout. *)
let announce ppf name = Format.fprintf ppf "%s@." name
