open Gadget

let use g = opened g
