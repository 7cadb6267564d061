(* Shared VLSI design repository — the paper's introduction: "it should
   be possible for a user running a particular document management
   system to view a VLSI design stored in HyperFile.  Similarly, a user
   running a VLSI design tool should be able to refer to a document that
   describes the operation of a particular circuit."

   Two applications share one server: a design tool storing cells with
   application-defined tuple types (HyperFile stores "Netlist" and
   "Layout" blobs without understanding them), and a documentation tool
   storing datasheets that point into the design hierarchy.  Cross-tool
   queries work because both speak the same tuple conventions.

   This example uses the umbrella [Hyperfile] module as an application
   would.

   Run with:  dune exec examples/vlsi_design.exe *)

open Hyperfile

let () =
  let server = Embedded.create ~n_sites:2 () in
  (* site 0: the design tool's cells; site 1: the documentation tool *)

  let cell ~name ~speed_mhz subcells =
    Embedded.create_object server ~site:0
      ([ Tuple.string_ ~key:"Cell" name;
         Tuple.number ~key:"Clock" speed_mhz;
         (* application-defined types: HyperFile stores the bits blindly *)
         Tuple.make ~ttype:"Netlist" ~key:(Value.str "spice") ~data:(Value.blob "* netlist…");
         Tuple.make ~ttype:"Layout" ~key:(Value.str "gds2") ~data:(Value.blob "\x00layout…");
       ]
      @ List.map (fun sub -> Tuple.pointer ~key:"Subcell" sub) subcells
      (* terminator self-pointer for leaf cells, so closure queries can
         still filter them (see DESIGN.md) *)
      @ (if subcells = [] then [] else []))
  in
  let nand = cell ~name:"nand2" ~speed_mhz:450 [] in
  let dff = cell ~name:"dff" ~speed_mhz:300 [] in
  let alu = cell ~name:"alu8" ~speed_mhz:120 [ nand; dff ] in
  let regfile = cell ~name:"regfile" ~speed_mhz:150 [ dff ] in
  let cpu = cell ~name:"cpu" ~speed_mhz:100 [ alu; regfile ] in
  (* leaves need an outgoing Subcell pointer to survive closure bodies *)
  List.iter
    (fun leaf ->
      let store = Embedded.store server 0 in
      let obj = Option.get (Store.find store leaf) in
      Store.replace store (Hobject.add obj (Tuple.pointer ~key:"Subcell" leaf)))
    [ nand; dff ];

  let datasheet ~title ~covers =
    Embedded.create_object server ~site:1
      ([ Tuple.string_ ~key:"Title" title; Tuple.keyword "datasheet" ]
      @ List.map (fun c -> Tuple.pointer ~key:"Documents" c) covers)
  in
  let _ds_alu = datasheet ~title:"ALU timing closure notes" ~covers:[ alu ] in
  let _ds_cpu = datasheet ~title:"CPU integration guide" ~covers:[ cpu; alu ] in

  Embedded.define_set server "CPU" [ cpu ];

  Fmt.pr "== Design tool: slow cells anywhere under the CPU ==@.";
  let slow =
    Embedded.query server "CPU [ (Pointer, \"Subcell\", ?X) ^^X ]* (Number, \"Clock\", 100..199)"
  in
  List.iter
    (fun oid ->
      let store = Embedded.store server 0 in
      let obj = Option.get (Store.find store oid) in
      Fmt.pr "  %s at %d MHz@."
        (Option.value (Hobject.find_string obj ~key:"Cell") ~default:"?")
        (Option.value
           (List.find_map
              (fun t ->
                if Value.equal (Tuple.key t) (Value.str "Clock") then Value.as_number (Tuple.data t)
                else None)
              (Hobject.tuples obj))
           ~default:0))
    slow.Embedded.oids;

  Fmt.pr "== Documentation tool: datasheets covering cells of the CPU hierarchy ==@.";
  (* Back pointers make the reverse direction queryable (paper §2: the
     application "can explicitly incorporate back pointers in the
     objects"): write a Documents<- link into each documented cell. *)
  let combined = Store.create ~site:0 in
  List.iter
    (fun site ->
      Store.iter (Embedded.store server site) (fun obj -> Store.insert combined obj))
    [ 0; 1 ];
  let links = ref [] in
  Store.iter combined (fun obj ->
      List.iter
        (fun t ->
          match Tuple.pointer_target t with
          | Some cell when Value.equal (Tuple.key t) (Value.str "Documents") ->
            links := (cell, Hobject.oid obj) :: !links
          | Some _ | None -> ())
        (Hobject.tuples obj));
  List.iter
    (fun (cell, sheet) ->
      let obj = Option.get (Store.find combined cell) in
      Store.replace combined (Hobject.add obj (Tuple.pointer ~key:"Documents<-" sheet)))
    !links;
  Fmt.pr "  back pointers written into %d design object(s)@."
    (List.length (List.sort_uniq Oid.compare (List.map fst !links)));
  let r =
    Local.run_query ~store:combined
      (Parser.parse_body
         "[ (Pointer, \"Subcell\", ?X) ^^X ]* (Pointer, \"Documents<-\", ?D) ^D \
          (Keyword, \"datasheet\", ?) (String, \"Title\", ->title)")
      [ cpu ]
  in
  (match List.assoc_opt "title" r.Local.bindings with
   | Some titles ->
     List.iter (fun v -> Fmt.pr "  - %a@." Value.pp v) (List.sort_uniq Value.compare titles)
   | None -> ());

  Fmt.pr "== The datasheet side: follow Documents pointers into the design ==@.";
  Embedded.define_set server "Sheets" (List.filter_map (fun x -> x) [ Some _ds_cpu ]);
  let covered =
    Embedded.query server "Sheets (Pointer, \"Documents\", ?X) ^X (String, \"Cell\", ->cells)"
  in
  (match List.assoc_opt "cells" covered.Embedded.values with
   | Some cells -> Fmt.pr "  CPU guide covers: %a@." (Fmt.list ~sep:Fmt.comma Value.pp) cells
   | None -> ());

  Fmt.pr "done.@."
