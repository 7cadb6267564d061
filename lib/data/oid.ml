(* Object identifiers, following the paper's Section 4 naming scheme (a
   variant of R*'s): the identity of an object is its birth site plus a
   serial number issued by that site.  Objects never move, so the birth
   site is also where the object lives. *)

type t = { birth_site : int; serial : int }

let make ~birth_site ~serial =
  if birth_site < 0 then invalid_arg "Oid.make: negative birth_site";
  if serial < 0 then invalid_arg "Oid.make: negative serial";
  { birth_site; serial }

let birth_site t = t.birth_site

let serial t = t.serial

let equal a b = a.birth_site = b.birth_site && a.serial = b.serial

let compare a b =
  match Int.compare a.birth_site b.birth_site with
  | 0 -> Int.compare a.serial b.serial
  | c -> c

let hash t = (t.birth_site * 1000003) lxor t.serial

let pp ppf t = Fmt.pf ppf "%d.%d" t.birth_site t.serial

let to_string t = Fmt.str "%a" pp t

module As_key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Table = Hashtbl.Make (As_key)
module Set = Set.Make (As_key)
module Map = Map.Make (As_key)
