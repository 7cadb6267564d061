(* Tests for the data model: oids, values, tuples, objects, stores. *)

module Oid = Hf_data.Oid
module Value = Hf_data.Value
module Tuple = Hf_data.Tuple
module Hobject = Hf_data.Hobject
module Store = Hf_data.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let oid ?(site = 0) serial = Oid.make ~birth_site:site ~serial

(* --- Oid --- *)

let test_oid_identity () =
  let a = oid 1 and b = oid 1 in
  check_bool "equal" true (Oid.equal a b);
  check_int "compare" 0 (Oid.compare a b);
  check_int "hash equal" (Oid.hash a) (Oid.hash b)

(* The name is the pair (birth site, serial): each component reads
   back, and a name differing in either one is another object. *)
let test_oid_fields () =
  let a = oid ~site:3 9 in
  check_int "birth site" 3 (Oid.birth_site a);
  check_int "serial" 9 (Oid.serial a);
  check_bool "rebuilt from its fields" true
    (Oid.equal a (Oid.make ~birth_site:(Oid.birth_site a) ~serial:(Oid.serial a)));
  check_bool "another site" false (Oid.equal a (oid ~site:4 9));
  check_bool "another serial" false (Oid.equal a (oid ~site:3 10));
  Alcotest.check_raises "negative serial" (Invalid_argument "Oid.make: negative serial")
    (fun () -> ignore (Oid.make ~birth_site:0 ~serial:(-1)))

let test_oid_ordering () =
  check_bool "site major" true (Oid.compare (oid ~site:0 9) (oid ~site:1 0) < 0);
  check_bool "serial minor" true (Oid.compare (oid 1) (oid 2) < 0)

let test_oid_invalid () =
  Alcotest.check_raises "negative site" (Invalid_argument "Oid.make: negative birth_site")
    (fun () -> ignore (Oid.make ~birth_site:(-1) ~serial:0))

let test_oid_pp () =
  check_string "plain" "2.7" (Oid.to_string (oid ~site:2 7));
  check_string "multi-digit" "10.123" (Oid.to_string (oid ~site:10 123))

let test_oid_collections () =
  let s = Oid.Set.of_list [ oid 1; oid 2; oid 1 ] in
  check_int "set dedupes by identity" 2 (Oid.Set.cardinal s);
  let table = Oid.Table.create 4 in
  Oid.Table.replace table (oid 1) "x";
  check_bool "table finds via an equal oid" true (Oid.Table.find_opt table (oid 1) = Some "x")

(* --- Value --- *)

let test_value_equal () =
  check_bool "str" true (Value.equal (Value.str "a") (Value.str "a"));
  check_bool "str/num differ" false (Value.equal (Value.str "1") (Value.num 1));
  check_bool "ptr identity" true
    (Value.equal (Value.ptr (oid 1)) (Value.ptr (oid 1)));
  check_bool "blob" true (Value.equal (Value.blob "xy") (Value.blob "xy"))

let test_value_projections () =
  check_bool "as_pointer" true (Value.as_pointer (Value.ptr (oid 3)) = Some (oid 3));
  check_bool "as_pointer none" true (Value.as_pointer (Value.str "x") = None);
  check_bool "as_string" true (Value.as_string (Value.str "x") = Some "x");
  check_bool "as_number" true (Value.as_number (Value.num 9) = Some 9)

let test_value_byte_size () =
  check_bool "blob size grows" true
    (Value.byte_size (Value.blob (String.make 100 'x')) > Value.byte_size (Value.blob "x"));
  check_bool "num fixed" true (Value.byte_size (Value.num 7) = Value.byte_size (Value.num 700))

let test_value_compare_consistent () =
  let values =
    [ Value.str "a"; Value.num 1; Value.real 1.5; Value.ptr (oid 0); Value.blob "b" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Value.compare a b and ba = Value.compare b a in
          check_bool "antisymmetric" true (compare ab 0 = compare 0 ba);
          check_bool "compare-0 iff equal" true ((ab = 0) = Value.equal a b))
        values)
    values

(* --- Tuple --- *)

let test_tuple_constructors () =
  let t = Tuple.string_ ~key:"Title" "Main Program" in
  check_string "type" Tuple.type_string (Tuple.ttype t);
  check_bool "key" true (Value.equal (Tuple.key t) (Value.str "Title"));
  check_bool "data" true (Value.equal (Tuple.data t) (Value.str "Main Program"))

let test_tuple_pointer () =
  let t = Tuple.pointer ~key:"Called Routine" (oid 5) in
  check_bool "is_pointer" true (Tuple.is_pointer t);
  check_bool "target" true (Tuple.pointer_target t = Some (oid 5));
  check_bool "non-pointer" true (Tuple.pointer_target (Tuple.keyword "x") = None)

let test_tuple_empty_type () =
  Alcotest.check_raises "empty type tag" (Invalid_argument "Tuple.make: empty type tag")
    (fun () -> ignore (Tuple.make ~ttype:"" ~key:(Value.str "k") ~data:(Value.num 1)))

let test_tuple_custom_type () =
  (* Applications can define new type tags — HyperFile stores them
     without interpretation. *)
  let t = Tuple.make ~ttype:"Object_Code" ~key:(Value.str "vax") ~data:(Value.blob "\x00\x01") in
  check_string "custom tag kept" "Object_Code" (Tuple.ttype t)

let test_tuple_equal () =
  check_bool "equal" true (Tuple.equal (Tuple.keyword "a") (Tuple.keyword "a"));
  check_bool "differs by key" false (Tuple.equal (Tuple.keyword "a") (Tuple.keyword "b"))

(* --- Hobject --- *)

let test_hobject_set_semantics () =
  let obj = Hobject.create (oid 0) in
  let t = Tuple.keyword "dup" in
  let obj = Hobject.add (Hobject.add obj t) t in
  check_int "duplicate suppressed" 1 (Hobject.cardinal obj)

let test_hobject_of_tuples_dedup () =
  let t = Tuple.keyword "dup" in
  let obj = Hobject.of_tuples (oid 0) [ t; Tuple.keyword "other"; t ] in
  check_int "deduped" 2 (Hobject.cardinal obj)

let test_hobject_remove () =
  let t = Tuple.keyword "x" in
  let obj = Hobject.of_tuples (oid 0) [ t ] in
  check_int "removed" 0 (Hobject.cardinal (Hobject.remove obj t));
  check_bool "mem" true (Hobject.mem obj t)

let test_hobject_pointers () =
  let obj =
    Hobject.of_tuples (oid 0)
      [ Tuple.pointer ~key:"Ref" (oid 1); Tuple.pointer ~key:"Lib" (oid 2); Tuple.keyword "k" ]
  in
  check_int "all pointers" 2 (List.length (Hobject.pointers obj));
  check_bool "by key" true (Hobject.pointers_with_key obj ~key:"Ref" = [ oid 1 ]);
  check_bool "missing key" true (Hobject.pointers_with_key obj ~key:"None" = [])

let test_hobject_find_string () =
  let obj =
    Hobject.of_tuples (oid 0)
      [ Tuple.string_ ~key:"Author" "Joe"; Tuple.string_ ~key:"Title" "Sort" ]
  in
  check_bool "author" true (Hobject.find_string obj ~key:"Author" = Some "Joe");
  check_bool "missing" true (Hobject.find_string obj ~key:"Nope" = None)

let test_hobject_keywords () =
  let obj =
    Hobject.of_tuples (oid 0) [ Tuple.keyword "a"; Tuple.keyword "b"; Tuple.string_ ~key:"k" "v" ]
  in
  Alcotest.(check (list string)) "keywords" [ "a"; "b" ] (Hobject.keywords obj)

let test_hobject_equal_order_insensitive () =
  let a = Hobject.of_tuples (oid 0) [ Tuple.keyword "x"; Tuple.keyword "y" ] in
  let b = Hobject.of_tuples (oid 0) [ Tuple.keyword "y"; Tuple.keyword "x" ] in
  check_bool "order insensitive" true (Hobject.equal a b)

let test_hobject_byte_size () =
  let small = Hobject.of_tuples (oid 0) [ Tuple.keyword "x" ] in
  let large = Hobject.add small (Tuple.text ~key:"Body" (String.make 1000 'b')) in
  check_bool "body grows size" true (Hobject.byte_size large > Hobject.byte_size small + 900)

(* --- Store --- *)

let test_store_fresh_oids () =
  let store = Store.create ~site:3 in
  let a = Store.fresh_oid store and b = Store.fresh_oid store in
  check_int "birth site" 3 (Oid.birth_site a);
  check_bool "serials distinct" false (Oid.equal a b)

let test_store_insert_find () =
  let store = Store.create ~site:0 in
  let obj = Store.create_object store [ Tuple.keyword "x" ] in
  check_bool "found" true (Store.find store (Hobject.oid obj) = Some obj);
  check_bool "mem" true (Store.mem store (Hobject.oid obj));
  check_int "cardinal" 1 (Store.cardinal store)

let test_store_insert_duplicate () =
  let store = Store.create ~site:0 in
  let obj = Store.create_object store [] in
  Alcotest.check_raises "duplicate insert" (Invalid_argument "Store.insert: oid already present")
    (fun () -> Store.insert store obj)

let test_store_replace_remove () =
  let store = Store.create ~site:0 in
  let obj = Store.create_object store [] in
  let obj' = Hobject.add obj (Tuple.keyword "new") in
  Store.replace store obj';
  check_bool "replaced" true
    (match Store.find store (Hobject.oid obj) with
     | Some o -> Hobject.cardinal o = 1
     | None -> false);
  Store.remove store (Hobject.oid obj);
  check_bool "removed" true (Store.find store (Hobject.oid obj) = None)

let test_store_create_set () =
  let store = Store.create ~site:0 in
  let members = [ oid 10; oid 11; oid 12 ] in
  let set_obj = Store.create_set store members in
  (* a set is an object with one pointer tuple per member (paper §2) *)
  check_int "three pointers" 3 (List.length (Hobject.pointers set_obj));
  check_bool "members" true (Hobject.pointers_with_key set_obj ~key:"Member" = members)

let test_store_fold_iter () =
  let store = Store.create ~site:0 in
  for _ = 1 to 5 do
    ignore (Store.create_object store [])
  done;
  check_int "fold counts" 5 (Store.fold store (fun _ acc -> acc + 1) 0);
  let count = ref 0 in
  Store.iter store (fun _ -> incr count);
  check_int "iter counts" 5 !count;
  check_int "oids" 5 (List.length (Store.oids store))

let () =
  Alcotest.run "hf_data"
    [
      ( "oid",
        [
          Alcotest.test_case "identity" `Quick test_oid_identity;
          Alcotest.test_case "fields name the object" `Quick test_oid_fields;
          Alcotest.test_case "ordering" `Quick test_oid_ordering;
          Alcotest.test_case "invalid args" `Quick test_oid_invalid;
          Alcotest.test_case "printing" `Quick test_oid_pp;
          Alcotest.test_case "collections" `Quick test_oid_collections;
        ] );
      ( "value",
        [
          Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "projections" `Quick test_value_projections;
          Alcotest.test_case "byte size" `Quick test_value_byte_size;
          Alcotest.test_case "compare consistent" `Quick test_value_compare_consistent;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "constructors" `Quick test_tuple_constructors;
          Alcotest.test_case "pointer tuples" `Quick test_tuple_pointer;
          Alcotest.test_case "empty type rejected" `Quick test_tuple_empty_type;
          Alcotest.test_case "custom application types" `Quick test_tuple_custom_type;
          Alcotest.test_case "equality" `Quick test_tuple_equal;
        ] );
      ( "hobject",
        [
          Alcotest.test_case "set semantics on add" `Quick test_hobject_set_semantics;
          Alcotest.test_case "of_tuples dedupes" `Quick test_hobject_of_tuples_dedup;
          Alcotest.test_case "remove" `Quick test_hobject_remove;
          Alcotest.test_case "pointers" `Quick test_hobject_pointers;
          Alcotest.test_case "find_string" `Quick test_hobject_find_string;
          Alcotest.test_case "keywords" `Quick test_hobject_keywords;
          Alcotest.test_case "order-insensitive equality" `Quick
            test_hobject_equal_order_insensitive;
          Alcotest.test_case "byte size" `Quick test_hobject_byte_size;
        ] );
      ( "store",
        [
          Alcotest.test_case "fresh oids" `Quick test_store_fresh_oids;
          Alcotest.test_case "insert and find" `Quick test_store_insert_find;
          Alcotest.test_case "duplicate insert rejected" `Quick test_store_insert_duplicate;
          Alcotest.test_case "replace and remove" `Quick test_store_replace_remove;
          Alcotest.test_case "set objects" `Quick test_store_create_set;
          Alcotest.test_case "fold and iter" `Quick test_store_fold_iter;
        ] );
    ]
