(* Exact dyadic credit arithmetic for the weighted-message termination
   algorithm.  A credit is a finite multiset of atoms, each atom worth
   2^-k; the whole computation starts with the single atom 2^0 = 1 held
   by the originating site.  Splitting replaces an atom 2^-k by two atoms
   2^-(k+1); merging does the reverse.  Exponents are OCaml ints, so no
   legal run makes credit "run out" however long a pointer chain grows —
   no borrowing protocol is needed and the arithmetic is exact, so
   termination is detected iff all credit returns.

   Representation: the credit's binary expansion, as a strictly
   increasing array of exponents — one entry per atom held, pairs
   already carried into k-1.  Equality and the is-one test are then
   array compares, [split] copies the array with its last entry
   deepened, and [add] is a carrying merge that allocates only its
   result.  Memory follows the number of atoms held, never an
   exponent's value.

   The array's length is the atom count rounded up to a power of two,
   so credits that outlive a minor collection come in a handful of block
   sizes.  Exact lengths would promote the origin's recovered credit (up
   to ~140 atoms on tcpbench's ship-remote) in nearly every size from 1
   to 141 words, each size keeping a partly used major-heap pool of its
   own: that read 9.92 MB of heap_top_mb against the map's 9.30 MB, and
   rounded lengths read 9.30–9.34 MB.

   The cap: [of_atoms] (the wire decoding path) refuses exponents above
   [exponent_cap] = 2^40.  No legal run splits one share that deep, and
   a credit built from atoms at or below the cap can still be halved
   2^62 more times before [split] reaches [max_int], where it raises
   instead of wrapping to a negative exponent. *)

type t = { n : int; exps : int array (* exps.(0 .. n-1), strictly increasing *) }

let exponent_cap = 1 lsl 40

let zero = { n = 0; exps = [||] }

let one = { n = 1; exps = [| 0 |] }

let is_zero t = t.n = 0

let is_one t = t.n = 1 && t.exps.(0) = 0

let rec same_from a b n i = i = n || (a.(i) = b.(i) && same_from a b n (i + 1))

let equal x y = x.n = y.n && same_from x.exps y.exps x.n 0

(* The least power of two >= [n]. *)
let rec capacity n c = if c >= n then c else capacity n (2 * c)

(* The sum of [a.(0..i)] and [b.(0..j)] plus a carried atom 2^-carry
   (-1 for none), by binary addition from the deepest exponent up.  The
   [n]-th atom of the sum, counted from the deepest, is written to
   [dst.(last - n)] when [dst] is not empty.  Returns [n] plus the
   number of atoms in the sum.  Two atoms of 2^0 would mean total
   credit > 1, which no legal execution can produce; the assertion
   refuses it. *)
let rec merge a b dst last i j carry n =
  let ka = if i >= 0 then a.(i) else -1 in
  let kb = if j >= 0 then b.(j) else -1 in
  let k = max carry (max ka kb) in
  if k < 0 then n
  else begin
    let count = Bool.to_int (ka = k) + Bool.to_int (kb = k) + Bool.to_int (carry = k) in
    assert (k > 0 || count < 2);
    let i = if ka = k then i - 1 else i in
    let j = if kb = k then j - 1 else j in
    let carry = if count >= 2 then k - 1 else -1 in
    if count land 1 = 0 then merge a b dst last i j carry n
    else begin
      if last >= 0 then dst.(last - n) <- k;
      merge a b dst last i j carry (n + 1)
    end
  end

(* Count the sum's atoms, then write them: the result is the only
   allocation. *)
let add x y =
  if is_zero x then y
  else if is_zero y then x
  else begin
    let i = x.n - 1 and j = y.n - 1 in
    let n = merge x.exps y.exps [||] (-1) i j (-1) 0 in
    let exps = Array.make (capacity n 1) 0 in
    ignore (merge x.exps y.exps exps (n - 1) i j (-1) 0 : int);
    { n; exps }
  end

(* Split off a piece to attach to an outgoing message: halve the smallest
   atom (largest exponent).  This keeps the holder's big atoms intact, so
   its credit stays "chunky" and merge chains stay short.  The two
   halves sit below every other atom, so no carry is needed. *)
let split t =
  if is_zero t then invalid_arg "Credit.split: cannot split zero credit";
  let k = t.exps.(t.n - 1) in
  if k = max_int then invalid_arg "Credit.split: the smallest atom cannot be halved";
  let exps = Array.copy t.exps in
  exps.(t.n - 1) <- k + 1;
  ({ t with exps }, { n = 1; exps = [| k + 1 |] })

let atoms t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (t.exps.(i) :: acc) in
  from (t.n - 1) []

let rec increasing = function
  | a :: (b :: _ as rest) -> a < b && increasing rest
  | [ _ ] | [] -> true

let of_atoms ks =
  List.iter
    (fun k ->
      if k < 0 then invalid_arg "Credit.of_atoms: negative exponent";
      if k > exponent_cap then invalid_arg "Credit.of_atoms: exponent above the cap")
    ks;
  (* what [atoms] gives is already normalized: the usual decode *)
  if increasing ks then begin
    let n = List.length ks in
    let exps = Array.make (capacity n 1) 0 in
    List.iteri (fun i k -> exps.(i) <- k) ks;
    { n; exps }
  end
  else List.fold_left (fun acc k -> add acc { n = 1; exps = [| k |] }) zero ks

(* Sanctioned explicit loss: the value is simply dropped, but through a
   named sink so the static checker (and a human reader) can see every
   place credit leaves the accounting on purpose. *)
let discard (_ : t) = ()

(* Approximate numeric value, for diagnostics only (underflows for deep
   exponents — never used for decisions). *)
let to_float t = List.fold_left (fun acc k -> acc +. (2.0 ** float_of_int (-k))) 0.0 (atoms t)

let max_exponent t = if is_zero t then None else Some t.exps.(t.n - 1)

let pp ppf t =
  if is_zero t then Fmt.string ppf "0"
  else Fmt.list ~sep:(Fmt.any "+") (fun ppf k -> Fmt.pf ppf "2^-%d" k) ppf (atoms t)
