(* Tests for the query language: patterns, compilation, parsing,
   printing, validation, builder combinators. *)

module P = Hf_query.Pattern
module F = Hf_query.Filter
module Ast = Hf_query.Ast
module Value = Hf_data.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_bindings _ = []

(* --- Pattern --- *)

let test_pattern_any () =
  check_bool "matches string" true (P.matches P.any (Value.str "x") ~lookup:no_bindings);
  check_bool "matches num" true (P.matches P.any (Value.num 1) ~lookup:no_bindings)

let test_pattern_exact () =
  check_bool "hit" true (P.matches (P.exact_str "a") (Value.str "a") ~lookup:no_bindings);
  check_bool "miss" false (P.matches (P.exact_str "a") (Value.str "b") ~lookup:no_bindings);
  check_bool "type miss" false (P.matches (P.exact_num 1) (Value.str "1") ~lookup:no_bindings)

let test_pattern_glob () =
  check_bool "glob hit" true (P.matches (P.glob "dis*") (Value.str "distributed") ~lookup:no_bindings);
  check_bool "glob on number" false (P.matches (P.Glob "1*") (Value.num 10) ~lookup:no_bindings);
  (* literal globs collapse to Exact *)
  check_bool "literal collapses" true (P.glob "plain" = P.exact_str "plain")

let test_pattern_range () =
  let r = P.range 5 10 in
  check_bool "low edge" true (P.matches r (Value.num 5) ~lookup:no_bindings);
  check_bool "high edge" true (P.matches r (Value.num 10) ~lookup:no_bindings);
  check_bool "below" false (P.matches r (Value.num 4) ~lookup:no_bindings);
  check_bool "wrong type" false (P.matches r (Value.str "7") ~lookup:no_bindings);
  Alcotest.check_raises "inverted" (Invalid_argument "Pattern.range: lo > hi") (fun () ->
      ignore (P.range 10 5))

let test_pattern_bind () =
  check_bool "bind matches anything" true (P.matches (P.bind "X") (Value.num 1) ~lookup:no_bindings);
  check_bool "binds reports var" true (P.binds (P.bind "X") = Some "X");
  check_bool "uses reports var" true (P.uses (P.use "X") = Some "X");
  Alcotest.check_raises "empty var" (Invalid_argument "Pattern.bind: empty variable name")
    (fun () -> ignore (P.bind ""))

let test_pattern_use () =
  let lookup var = if var = "X" then [ Value.str "a"; Value.num 2 ] else [] in
  check_bool "member" true (P.matches (P.use "X") (Value.num 2) ~lookup);
  check_bool "non-member" false (P.matches (P.use "X") (Value.num 3) ~lookup);
  check_bool "unbound" false (P.matches (P.use "Y") (Value.num 3) ~lookup)

(* --- Compile / decompile --- *)

let parse = Hf_query.Parser.parse_body

let test_compile_flat () =
  let program = Hf_query.Compile.compile (parse "(Keyword, \"x\", ?)") in
  check_int "one filter" 1 (Hf_query.Program.length program)

let test_compile_iterator_indexes () =
  let program =
    Hf_query.Compile.compile (parse "[ (Pointer, \"Ref\", ?X) ^^X ]^3 (Keyword, \"k\", ?)")
  in
  check_int "four filters" 4 (Hf_query.Program.length program);
  (match Hf_query.Program.get program 2 with
   | F.Iter { body_start; count } ->
     check_int "body start" 0 body_start;
     check_bool "count" true (count = F.Finite 3)
   | _ -> Alcotest.fail "expected iterator at index 2")

let test_compile_nested_blocks () =
  let program =
    Hf_query.Compile.compile
      (parse "[ (A, ?, ?) [ (B, ?, ?) ]^2 (C, ?, ?) ]* (D, ?, ?)")
  in
  check_int "six filters" 6 (Hf_query.Program.length program);
  (match Hf_query.Program.get program 2 with
   | F.Iter { body_start = 1; count = F.Finite 2 } -> ()
   | f -> Alcotest.failf "inner iterator wrong: %a" F.pp f);
  match Hf_query.Program.get program 4 with
  | F.Iter { body_start = 0; count = F.Star } -> ()
  | f -> Alcotest.failf "outer iterator wrong: %a" F.pp f

let test_compile_empty_block () =
  Alcotest.check_raises "empty block" (Hf_query.Compile.Error "empty iteration block")
    (fun () -> ignore (Hf_query.Compile.compile [ Ast.repeat 2 [] ]))

let test_decompile_roundtrip () =
  let ast = parse "[ (Pointer, \"Ref\", ?X) ^^X [ (B, ?, ?) ]^2 ]* (Keyword, \"k\", ->out)" in
  let back = Hf_query.Compile.decompile (Hf_query.Compile.compile ast) in
  check_bool "ast preserved" true (Ast.equal ast back)

(* --- Unroll --- *)

let test_unroll_flat_unchanged () =
  let ast = parse "(A, ?, ?) ^X" in
  check_bool "unchanged" true (Ast.equal ast (Ast.unroll ast))

let test_unroll_finite () =
  let ast = parse "[ (A, ?, ?) ]^3" in
  let expected = parse "(A, ?, ?) (A, ?, ?) (A, ?, ?)" in
  check_bool "unrolled" true (Ast.equal expected (Ast.unroll ast))

let test_unroll_nested () =
  let ast = parse "[ (A, ?, ?) [ (B, ?, ?) ]^2 ]^2" in
  let expected = parse "(A, ?, ?) (B, ?, ?) (B, ?, ?) (A, ?, ?) (B, ?, ?) (B, ?, ?)" in
  check_bool "nested unroll" true (Ast.equal expected (Ast.unroll ast))

let test_unroll_star_kept () =
  let ast = parse "[ (A, ?, ?) [ (B, ?, ?) ]^2 ]*" in
  let expected = parse "[ (A, ?, ?) (B, ?, ?) (B, ?, ?) ]*" in
  check_bool "star body unrolled, star kept" true (Ast.equal expected (Ast.unroll ast))

let test_depth_and_variables () =
  let ast = parse "[ (Pointer, \"R\", ?X) ^X [ (Pointer, \"S\", ?Y) ^Y ]^2 ]*" in
  check_int "depth" 2 (Ast.depth ast);
  Alcotest.(check (list string)) "variables" [ "X"; "Y" ] (Ast.variables ast)

(* --- Parser --- *)

let test_parse_full_query () =
  let q = Hf_query.Parser.parse_query "S (Keyword, \"x\", ?) -> T" in
  check_bool "source" true (q.Hf_query.Parser.source = Some "S");
  check_bool "target" true (q.Hf_query.Parser.target = Some "T");
  check_int "body" 1 (List.length q.Hf_query.Parser.body)

let test_parse_paper_query () =
  (* the paper's flagship query, ASCII-fied *)
  let q =
    Hf_query.Parser.parse_query
      "S [ (Pointer, \"Reference\", ?X) ^^X ]^3 (Keyword, \"Distributed\", ?) -> T"
  in
  check_int "two elements" 2 (List.length q.Hf_query.Parser.body)

let test_parse_retrieve () =
  match parse "(String, \"Title\", ->title)" with
  | [ Ast.Retrieve { target = "title"; _ } ] -> ()
  | _ -> Alcotest.fail "expected retrieve element"

let test_parse_patterns () =
  match parse "(?, ?X, 1..10) (Number, \"n\", 5) (T, =X, ?)" with
  | [ Ast.Select { ttype = P.Any; key = P.Bind "X"; data = P.Range (1, 10) };
      Ast.Select { data = P.Exact (Value.Num 5); _ };
      Ast.Select { key = P.Use "X"; _ }
    ] -> ()
  | _ -> Alcotest.fail "pattern forms"

let test_parse_bare_idents () =
  (* bare identifiers are exact strings, as in (Pointer, Reference, ?X) *)
  match parse "(Pointer, Reference, ?X)" with
  | [ Ast.Select { ttype = P.Exact (Value.Str "Pointer"); key = P.Exact (Value.Str "Reference"); _ } ]
    -> ()
  | _ -> Alcotest.fail "bare identifiers"

let test_parse_deref_modes () =
  match parse "^X ^^Y" with
  | [ Ast.Deref { var = "X"; mode = F.Replace }; Ast.Deref { var = "Y"; mode = F.Keep_parent } ]
    -> ()
  | _ -> Alcotest.fail "deref modes"

let test_parse_comments_and_whitespace () =
  let ast = parse "; a comment line\n  (Keyword, \"x\", ?)  ; trailing\n" in
  check_int "one element" 1 (List.length ast)

let test_parse_glob_strings () =
  match parse "(Keyword, \"dist*\", ?)" with
  | [ Ast.Select { key = P.Glob "dist*"; _ } ] -> ()
  | _ -> Alcotest.fail "glob detection"

let test_parse_string_escapes () =
  match parse "(String, \"a\\\"b\\\\c\\nd\", ?)" with
  | [ Ast.Select { key = P.Exact (Value.Str "a\"b\\c\nd"); _ } ] -> ()
  | _ -> Alcotest.fail "escapes"

let parse_error_case name text check_message =
  Alcotest.test_case name `Quick (fun () ->
      match parse text with
      | _ -> Alcotest.fail "expected parse error"
      | exception Hf_query.Parser.Parse_error { message; _ } ->
        check_bool (Printf.sprintf "message %S mentions" message) true (check_message message))

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_parse_errors =
  [
    parse_error_case "unterminated string" "(A, \"oops, ?)" (contains ~sub:"unterminated");
    parse_error_case "bad iteration count" "[ (A, ?, ?) ]^0" (contains ~sub:">= 1");
    parse_error_case "missing count" "[ (A, ?, ?) ]" (contains ~sub:"'*' or '^k'");
    parse_error_case "trailing garbage" "(A, ?, ?) )" (contains ~sub:"trailing");
    parse_error_case "lone dash" "(A, -, ?)" (contains ~sub:"expected '>'");
    parse_error_case "empty range" "(A, 5..2, ?)" (contains ~sub:"empty");
    parse_error_case "unclosed paren" "(A, ?, ?" (contains ~sub:"expected");
  ]

let test_parse_error_position () =
  match parse "(A, ?, ?)\n  @" with
  | _ -> Alcotest.fail "expected error"
  | exception Hf_query.Parser.Parse_error { pos; _ } ->
    check_int "line" 2 pos.Hf_query.Parser.line;
    check_int "col" 3 pos.Hf_query.Parser.col

(* Fuzz: arbitrary input never crashes the parser — it either parses or
   raises Parse_error with a position. *)
let prop_parser_total =
  QCheck2.Test.make ~name:"parser is total (parse or Parse_error)" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\x20' '\x7e') (int_range 0 60))
    (fun input ->
      match Hf_query.Parser.parse_query input with
      | _ -> true
      | exception Hf_query.Parser.Parse_error { pos; _ } -> pos.line >= 1 && pos.col >= 1)

let test_parse_body_rejects_source () =
  match Hf_query.Parser.parse_body "S (A, ?, ?)" with
  | _ -> Alcotest.fail "expected rejection"
  | exception Hf_query.Parser.Parse_error _ -> ()

(* --- Printer round-trip --- *)

let test_printer_roundtrip_examples () =
  let cases =
    [
      "(Keyword, \"x\", ?)";
      "[ (Pointer, \"Ref\", ?X) ^^X ]* (Keyword, \"Distributed\", ?)";
      "[ (Pointer, \"Ref\", ?X) ^X ]^3";
      "(String, \"Title\", ->title)";
      "(?, ?X, 1..10) (T, =X, ?)";
      "[ (A, ?, ?) [ (B, ?, ?) ]^2 ]*";
    ]
  in
  List.iter
    (fun text ->
      let ast = parse text in
      let printed = Hf_query.Printer.to_string ast in
      let reparsed = parse printed in
      check_bool (Printf.sprintf "roundtrip %s" text) true (Ast.equal ast reparsed))
    cases

(* Random AST generator for the printer/compile round-trip properties. *)
let gen_var = QCheck2.Gen.oneofl [ "X"; "Y"; "Z" ]

let gen_name = QCheck2.Gen.oneofl [ "Keyword"; "Pointer"; "String"; "Number"; "Tag" ]

let gen_pattern =
  QCheck2.Gen.(
    oneof
      [
        return P.Any;
        map (fun s -> P.exact_str s) gen_name;
        map (fun n -> P.exact_num n) (int_range 0 99);
        map (fun v -> P.Bind v) gen_var;
        map (fun v -> P.Use v) gen_var;
        map (fun (a, b) -> P.Range (min a b, max a b)) (pair (int_range 0 50) (int_range 0 50));
        map (fun s -> P.Glob (s ^ "*")) gen_name;
      ])

let gen_element =
  QCheck2.Gen.(
    sized_size (int_range 0 2) @@ fix (fun self depth ->
        let leaf =
          oneof
            [
              map3 (fun t k d -> Ast.Select { ttype = t; key = k; data = d }) gen_pattern
                gen_pattern gen_pattern;
              map2
                (fun var keep ->
                  Ast.Deref { var; mode = (if keep then F.Keep_parent else F.Replace) })
                gen_var bool;
              map2 (fun k target -> Ast.Retrieve { ttype = P.Any; key = P.exact_str k; target })
                gen_name gen_var;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map2
                  (fun body star ->
                    Ast.Block
                      { body; count = (if star then F.Star else F.Finite 2) })
                  (list_size (int_range 1 3) (self (depth - 1)))
                  bool );
            ]))

let gen_ast = QCheck2.Gen.(list_size (int_range 0 5) gen_element)

let prop_printer_roundtrip =
  QCheck2.Test.make ~name:"printer/parser round-trip" ~count:300 gen_ast (fun ast ->
      Ast.equal ast (parse (Hf_query.Printer.to_string ast)))

let prop_compile_decompile =
  QCheck2.Test.make ~name:"compile/decompile round-trip" ~count:300 gen_ast (fun ast ->
      Ast.equal ast (Hf_query.Compile.decompile (Hf_query.Compile.compile ast)))

let prop_unroll_idempotent_on_flat =
  QCheck2.Test.make ~name:"unroll removes all finite blocks" ~count:300 gen_ast (fun ast ->
      let rec no_finite = function
        | Ast.Block { count = F.Finite _; _ } -> false
        | Ast.Block { body; _ } -> List.for_all no_finite body
        | Ast.Select _ | Ast.Deref _ | Ast.Retrieve _ -> true
      in
      List.for_all no_finite (Ast.unroll ast))

(* --- Validate --- *)

let errors_of text = Hf_query.Validate.errors (parse text)

let test_validate_ok () =
  check_bool "valid" true (Hf_query.Validate.is_valid (parse "[ (Pointer, \"R\", ?X) ^^X ]*"))

let test_validate_unbound_deref () =
  check_int "error" 1 (List.length (errors_of "^X"))

let test_validate_bound_later_in_block () =
  (* inside an iteration a later bind is reachable on the next round *)
  check_bool "no errors" true (Hf_query.Validate.is_valid (parse "[ ^^X (Pointer, \"R\", ?X) ]*"))

let test_validate_use_before_bind_warns () =
  let issues = Hf_query.Validate.check (parse "(T, =X, ?) (Pointer, \"R\", ?X)") in
  check_bool "warning present" true
    (List.exists (fun i -> i.Hf_query.Validate.severity = Hf_query.Validate.Warning) issues)

let test_validate_duplicate_targets_warn () =
  let issues = Hf_query.Validate.check (parse "(A, \"k\", ->out) (B, \"k2\", ->out)") in
  check_bool "warn on duplicate target" true
    (List.exists (fun i -> i.Hf_query.Validate.severity = Hf_query.Validate.Warning) issues)

(* --- Builder --- *)

let test_builder_matches_parser () =
  let built =
    Hf_query.Builder.(
      body [ closure [ pointers ~key:"Reference" "X"; follow_keeping "X" ]; keyword "Distributed" ])
  in
  let parsed = parse "[ (Pointer, \"Reference\", ?X) ^^X ]* (Keyword, \"Distributed\", ?)" in
  check_bool "builder = parser" true (Ast.equal built parsed)

let test_builder_reachability () =
  let built = Hf_query.Builder.(reachability ~key:"Ref" (keyword "k")) in
  let parsed = parse "[ (Pointer, \"Ref\", ?X) ^^X ]* (Keyword, \"k\", ?)" in
  check_bool "reachability shape" true (Ast.equal built parsed);
  let depth2 = Hf_query.Builder.(reachability ~depth:2 ~key:"Ref" (keyword "k")) in
  let parsed2 = parse "[ (Pointer, \"Ref\", ?X) ^^X ]^2 (Keyword, \"k\", ?)" in
  check_bool "depth" true (Ast.equal depth2 parsed2);
  Alcotest.check_raises "bad depth" (Invalid_argument "Builder.reachability: depth 0 < 1")
    (fun () -> ignore Hf_query.Builder.(reachability ~depth:0 ~key:"Ref" (keyword "k")))

let test_program_byte_size () =
  let program = Hf_query.Parser.parse_program "[ (Pointer, \"Reference\", ?X) ^^X ]* (Keyword, \"Distributed\", ?)" in
  let size = Hf_query.Program.byte_size program in
  (* The paper reports ~40-byte query messages; our estimate should be
     in that regime for the flagship query. *)
  check_bool "tens of bytes" true (size > 20 && size < 100)

let test_program_ill_formed () =
  Alcotest.check_raises "bad iterator"
    (Hf_query.Program.Ill_formed "iterator at 0 has body_start 3 beyond itself") (fun () ->
      ignore (Hf_query.Program.of_filters [ F.iter ~body_start:3 ~count:F.Star ]))


let () =
  Alcotest.run "hf_query"
    [
      ( "pattern",
        [
          Alcotest.test_case "any" `Quick test_pattern_any;
          Alcotest.test_case "exact" `Quick test_pattern_exact;
          Alcotest.test_case "glob" `Quick test_pattern_glob;
          Alcotest.test_case "range" `Quick test_pattern_range;
          Alcotest.test_case "bind" `Quick test_pattern_bind;
          Alcotest.test_case "use" `Quick test_pattern_use;
        ] );
      ( "compile",
        [
          Alcotest.test_case "flat" `Quick test_compile_flat;
          Alcotest.test_case "iterator indexes" `Quick test_compile_iterator_indexes;
          Alcotest.test_case "nested blocks" `Quick test_compile_nested_blocks;
          Alcotest.test_case "empty block rejected" `Quick test_compile_empty_block;
          Alcotest.test_case "decompile round-trip" `Quick test_decompile_roundtrip;
          Hf_test_harness.qtest prop_compile_decompile;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "flat unchanged" `Quick test_unroll_flat_unchanged;
          Alcotest.test_case "finite" `Quick test_unroll_finite;
          Alcotest.test_case "nested" `Quick test_unroll_nested;
          Alcotest.test_case "star kept" `Quick test_unroll_star_kept;
          Alcotest.test_case "depth and variables" `Quick test_depth_and_variables;
          Hf_test_harness.qtest prop_unroll_idempotent_on_flat;
        ] );
      ( "parser",
        [
          Alcotest.test_case "full query" `Quick test_parse_full_query;
          Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "retrieve" `Quick test_parse_retrieve;
          Alcotest.test_case "pattern forms" `Quick test_parse_patterns;
          Alcotest.test_case "bare identifiers" `Quick test_parse_bare_idents;
          Alcotest.test_case "deref modes" `Quick test_parse_deref_modes;
          Alcotest.test_case "comments and whitespace" `Quick test_parse_comments_and_whitespace;
          Alcotest.test_case "glob strings" `Quick test_parse_glob_strings;
          Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
          Alcotest.test_case "parse_body rejects source" `Quick test_parse_body_rejects_source;
          Hf_test_harness.qtest prop_parser_total;
        ]
        @ test_parse_errors );
      ( "printer",
        [
          Alcotest.test_case "examples round-trip" `Quick test_printer_roundtrip_examples;
          Hf_test_harness.qtest prop_printer_roundtrip;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valid query" `Quick test_validate_ok;
          Alcotest.test_case "unbound deref" `Quick test_validate_unbound_deref;
          Alcotest.test_case "bind later in block ok" `Quick test_validate_bound_later_in_block;
          Alcotest.test_case "use before bind warns" `Quick test_validate_use_before_bind_warns;
          Alcotest.test_case "duplicate targets warn" `Quick test_validate_duplicate_targets_warn;
        ] );
      ( "builder",
        [
          Alcotest.test_case "matches parser" `Quick test_builder_matches_parser;
          Alcotest.test_case "reachability" `Quick test_builder_reachability;
        ] );
      ( "program",
        [
          Alcotest.test_case "byte size regime" `Quick test_program_byte_size;
          Alcotest.test_case "ill-formed rejected" `Quick test_program_ill_formed;
        ] );
    ]
