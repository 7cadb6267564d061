type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Mixing function of splitmix64 (Steele, Lea & Flood).  Chosen because it is
   tiny, has no global state, and makes every experiment reproducible from a
   single integer seed. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int t bound =
  if bound <= 0 then invalid_arg "Prng.next_int: bound must be positive";
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let next_float t =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  mantissa /. 9007199254740992.0 (* 2^53 *)

let next_bool t p = next_float t < p

let split t =
  let seed = Int64.to_int (next_int64 t) in
  { state = Int64.of_int seed }

let shuffle_in_place t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = next_int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(next_int t (Array.length arr))
