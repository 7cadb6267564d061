(* Bloom summary of a site's tuple content (Bloofi-style per-site set
   summaries, flattened to one filter per site).

   A filter over m bits with k hash functions answers "possibly present"
   or "definitely absent"; absence is exact, so a shipping decision made
   on a miss can never lose a result (DESIGN.md §4g).  Hashing is
   FNV-1a with two seeds combined by double hashing — deterministic
   across runs and platforms, which the differential tests rely on. *)

type t = {
  bits : Bytes.t; (* m bits, LSB-first within each byte *)
  m : int; (* bit-array size *)
  k : int; (* probes per key *)
  mutable count : int; (* insertions (not distinct keys) *)
}

(* 61-bit arithmetic: stays deterministic on every 64-bit OCaml and
   leaves headroom for the multiply's wrap to behave identically. *)
let hash_mask = (1 lsl 61) - 1

let fnv_prime = 0x100000001b3

let fnv1a ~seed s =
  let h = ref ((0xcbf29ce484222 lxor seed) land hash_mask) in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * fnv_prime) land hash_mask)
    s;
  !h

let ln2 = Float.log 2.0

(* Standard sizing m = -n ln p / (ln 2)^2, then rounded UP to the next
   power of two.  The rounding only lowers the false-positive rate, and
   it makes every planned filter's geometry divide every larger one's —
   the precondition {!union} needs to fold two summaries of different
   sizes into one sound OR-merge (Bloofi inner nodes). *)
let plan ~expected ~fp_rate =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if not (fp_rate > 0.0 && fp_rate < 1.0) then
    invalid_arg "Bloom.create: fp_rate must be in (0, 1)";
  let n = float_of_int expected in
  let m =
    int_of_float (Float.ceil (-.n *. Float.log fp_rate /. (ln2 *. ln2)))
  in
  let m = max 8 m in
  let m =
    let p = ref 8 in
    while !p < m do
      p := !p * 2
    done;
    !p
  in
  let k = int_of_float (Float.round (float_of_int m /. n *. ln2)) in
  let k = max 1 (min 30 k) in
  (m, k)

let create ~expected ~fp_rate =
  let m, k = plan ~expected ~fp_rate in
  { bits = Bytes.make ((m + 7) / 8) '\000'; m; k; count = 0 }

let set_bit bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl bit)))

let get_bit bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.unsafe_get bits byte) land (1 lsl bit) <> 0

(* Double hashing: probe_i = h1 + i*h2 (mod m), h2 forced odd so the
   probe sequence cycles through distinct positions. *)
let probe_seq t key f =
  let h1 = fnv1a ~seed:0x9e3779b9 key in
  let h2 = fnv1a ~seed:0x85ebca6b key lor 1 in
  for i = 0 to t.k - 1 do
    f (((h1 + (i * h2)) land hash_mask) mod t.m)
  done

let add t key =
  probe_seq t key (set_bit t.bits);
  t.count <- t.count + 1

let mem t key =
  let hit = ref true in
  probe_seq t key (fun i -> if not (get_bit t.bits i) then hit := false);
  !hit

(* Expected false-positive probability at the current fill:
   (1 - e^{-kn/m})^k. *)
let fp_estimate t =
  let n = float_of_int t.count in
  let m = float_of_int t.m in
  let k = float_of_int t.k in
  Float.pow (1.0 -. Float.exp (-.k *. n /. m)) k

(* Wire form: magic byte, then m / k / count as unsigned LEB128
   varints, then the raw bit bytes.  [of_string] is total — garbage
   from the network yields [None], never an exception. *)

let magic = '\xb1'

let write_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let low = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let to_string t =
  let buf = Buffer.create (16 + Bytes.length t.bits) in
  Buffer.add_char buf magic;
  write_varint buf t.m;
  write_varint buf t.k;
  write_varint buf t.count;
  Buffer.add_bytes buf t.bits;
  Buffer.contents buf

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let byte () =
    if !pos >= len then None
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      Some c
    end
  in
  let rec varint shift acc =
    if shift > 56 then None (* would overflow / malicious length *)
    else
      match byte () with
      | None -> None
      | Some c ->
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c land 0x80 = 0 then Some acc else varint (shift + 7) acc
  in
  match byte () with
  | Some c when Char.chr c = magic -> (
    match varint 0 0 with
    | None -> None
    | Some m -> (
      match varint 0 0 with
      | None -> None
      | Some k -> (
        match varint 0 0 with
        | None -> None
        | Some count ->
          let nbytes = (m + 7) / 8 in
          if m < 1 || k < 1 || k > 30 || count < 0 || len - !pos <> nbytes
          then None
          else
            Some
              {
                bits = Bytes.of_string (String.sub s !pos nbytes);
                m;
                k;
                count;
              })))
  | _ -> None

let ones t =
  let ones = ref 0 in
  Bytes.iter
    (fun c ->
      let b = ref (Char.code c) in
      while !b <> 0 do
        ones := !ones + (!b land 1);
        b := !b lsr 1
      done)
    t.bits;
  !ones

(* Swamidass–Baldi cardinality estimate from the fill ratio:
   n ~= -(m/k) ln(1 - X/m) with X the number of set bits.  Used by the
   execution-mode planner to price a remote site's speculation domain
   from its learned summary alone. *)
let estimate_entries t =
  let x = float_of_int (ones t) in
  let m = float_of_int t.m in
  if x >= m then t.count (* saturated: the formula diverges *)
  else
    int_of_float
      (Float.round (-.(m /. float_of_int t.k) *. Float.log (1.0 -. (x /. m))))

(* OR-merge of two filters, folding the larger bit array onto the
   smaller when the smaller size divides the larger.  Soundness: a probe
   of the merged filter checks positions [x mod m'] for the first
   [min k] hash values; an element added to either input set positions
   [x mod m] with [m' | m], and [(x mod m) mod m' = x mod m'], so every
   checked position is set — no false negatives survive the merge.
   Checking fewer probes ([min k]) and ORing foreign bits both only
   raise the false-positive rate.  [None] when neither geometry divides
   the other (filters planned by {!create} are always compatible: their
   sizes are powers of two). *)
let union a b =
  let small, large = if a.m <= b.m then (a, b) else (b, a) in
  if large.m mod small.m <> 0 then None
  else begin
    let bits = Bytes.copy small.bits in
    if large.m = small.m then
      Bytes.iteri
        (fun i c ->
          Bytes.set bits i
            (Char.chr (Char.code (Bytes.get bits i) lor Char.code c)))
        large.bits
    else
      for i = 0 to large.m - 1 do
        if get_bit large.bits i then set_bit bits (i mod small.m)
      done;
    Some { bits; m = small.m; k = min a.k b.k; count = a.count + b.count }
  end

let equal a b = a.m = b.m && a.k = b.k && Bytes.equal a.bits b.bits
