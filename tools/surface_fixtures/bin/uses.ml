(* Each of Gadget's values used one way, except three: [compare] and
   [length] appear only bare in this file, which does not open Gadget, and
   Gadget.length and Gadget.Part.shallow only in this comment. *)

let qualified g = Fixture.Gadget.qualified g

module G = Fixture.Gadget

let aliased g = G.aliased g
let local g = Gadget.(local_open g)
let deep g = Gadget.Part.deep g

module Table = Hashtbl.Make (Gadget)

let sorted xs = List.sort compare xs
let length xs = List.length xs
