(* Field values.  HyperFile only interprets simple types (strings,
   numbers, keywords, pointers); [Blob] carries arbitrary uninterpreted
   bits — text bodies, bitmaps, object code — exactly as a file system
   would. *)

type t =
  | Str of string
  | Num of int
  | Real of float
  | Ptr of Oid.t
  | Blob of string

let str s = Str s

let num n = Num n

let real f = Real f

let ptr oid = Ptr oid

let blob b = Blob b

let equal a b =
  match a, b with
  | Str x, Str y -> String.equal x y
  | Num x, Num y -> Int.equal x y
  | Real x, Real y -> Float.equal x y
  | Ptr x, Ptr y -> Oid.equal x y
  | Blob x, Blob y -> String.equal x y
  | (Str _ | Num _ | Real _ | Ptr _ | Blob _), _ -> false

let compare a b =
  let rank = function Str _ -> 0 | Num _ -> 1 | Real _ -> 2 | Ptr _ -> 3 | Blob _ -> 4 in
  match a, b with
  | Str x, Str y -> String.compare x y
  | Num x, Num y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Ptr x, Ptr y -> Oid.compare x y
  | Blob x, Blob y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let as_pointer = function Ptr oid -> Some oid | Str _ | Num _ | Real _ | Blob _ -> None

let as_string = function Str s -> Some s | Num _ | Real _ | Ptr _ | Blob _ -> None

let as_number = function Num n -> Some n | Str _ | Real _ | Ptr _ | Blob _ -> None

(* Approximate wire size in bytes; drives the communication-cost model of
   the ship-data baseline. *)
let byte_size = function
  | Str s -> 5 + String.length s
  | Num _ -> 9
  | Real _ -> 9
  | Ptr _ -> 13
  | Blob b -> 5 + String.length b

let pp ppf = function
  | Str s -> Fmt.pf ppf "%S" s
  | Num n -> Fmt.int ppf n
  | Real f -> Fmt.float ppf f
  | Ptr oid -> Fmt.pf ppf "^%a" Oid.pp oid
  | Blob b -> Fmt.pf ppf "<blob:%d bytes>" (String.length b)
