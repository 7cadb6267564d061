type t = int

let qualified t = t
let aliased t = t
let opened t = t
let local_open t = t
let equal = Int.equal
let hash t = t

module Part = struct
  let deep t = t
  let shallow t = t
end

let compare = Int.compare
let length t = t
