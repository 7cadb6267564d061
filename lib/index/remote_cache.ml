(* Remote-answer cache and ship-pruning analysis for query shipping
   (DESIGN.md §4g).

   The cache memoizes, at the shipping site, the pass/fail verdict of
   work items whose remaining filters are free of [Deref] and
   [Retrieve]: such an item's outcome depends only on (program suffix,
   iteration counters, target object), so the verdict that flowed back
   from a site at store version v can be replayed locally whenever the
   site still reports version v.  Items whose reachable suffix can
   dereference or retrieve are never cached — a hit must not suppress
   the spawns or value emissions the remote run would have produced.

   The same reachability walk drives Bloom ship pruning: the first
   filter the destination would execute yields necessary membership
   probes against the destination's tuple summary, and a definite miss
   proves the item dies on arrival, so the ship can be skipped. *)

module F = Hf_query.Filter
module P = Hf_query.Pattern
module Plan = Hf_engine.Plan
module Codec = Hf_proto.Codec

type config = {
  capacity : int;
  ttl : float;
  fp_rate : float;
}

let default = { capacity = 4096; ttl = Float.infinity; fp_rate = 0.01 }

let validate config =
  if config.capacity <= 0 then
    invalid_arg "Remote_cache.validate: capacity must be positive";
  if not (config.ttl > 0.0) then
    invalid_arg "Remote_cache.validate: ttl must be positive";
  if not (config.fp_rate > 0.0 && config.fp_rate < 1.0) then
    invalid_arg "Remote_cache.validate: fp_rate must be in (0, 1)"

(* --- Reachability analysis over a compiled plan --- *)

(* Conservative lower bound of the filter indices a work item can visit.
   Evaluation only moves backwards through an [Iter] whose body start
   lies below the current position, and the eval loop's start variable
   begins at [start] and never rises, so an iterator with
   [start <= body_start] always exits; a [Finite k] iterator whose
   (per-item, fixed) counter has already reached [k] always exits.
   Everything else is assumed able to loop. *)
let reachable_low plan ~start ~iters =
  let program = Plan.program plan in
  let n = Plan.length plan in
  let low = ref (min start n) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = !low to n - 1 do
      match Hf_query.Program.get program i with
      | F.Iter { body_start; count } when body_start < !low ->
        let always_exits =
          start <= body_start
          ||
          match count with
          | F.Finite k ->
            let slot = Plan.slot_of_iterator plan i in
            slot < Array.length iters && iters.(slot) >= k
          | F.Star -> false
        in
        if not always_exits then begin
          low := body_start;
          changed := true
        end
      | F.Iter _ | F.Select _ | F.Deref _ | F.Retrieve _ -> ()
    done
  done;
  !low

let cacheable plan ~start ~iters =
  let program = Plan.program plan in
  let n = Plan.length plan in
  let low = reachable_low plan ~start ~iters in
  let ok = ref true in
  for i = low to n - 1 do
    match Hf_query.Program.get program i with
    | F.Deref _ | F.Retrieve _ -> ok := false
    | F.Select _ | F.Iter _ -> ()
  done;
  !ok

(* The first non-[Iter] filter the destination's eval loop would
   execute for this item — an exact replay of the loop's pure-iterator
   prefix (eval.ml), which consults nothing but the program and the
   item's fixed counters.  [None] when the item falls off the end (it
   passes trivially) or when a counter slot is missing (malformed item;
   never prune those). *)
let first_filter plan ~start ~iters =
  let program = Plan.program plan in
  let n = Plan.length plan in
  let sv = ref start in
  let idx = ref start in
  (* The loop branch strictly lowers [sv], so eval's walk takes at most
     n backward jumps; the cap only guards against a malformed plan. *)
  let fuel = ref (((n + 1) * (n + 1)) + 4) in
  let result = ref None in
  let running = ref true in
  while !running && !idx < n && !fuel > 0 do
    decr fuel;
    match Hf_query.Program.get program !idx with
    | F.Iter { body_start; count } ->
      let exits =
        !sv <= body_start
        ||
        match count with
        | F.Finite k ->
          let slot = Plan.slot_of_iterator plan !idx in
          if slot < Array.length iters then iters.(slot) >= k
          else begin
            (* counter missing: stop rather than guess *)
            running := false;
            true
          end
        | F.Star -> false
      in
      if not !running then ()
      else if exits then incr idx
      else begin
        sv := body_start;
        idx := body_start
      end
    | (F.Select _ | F.Deref _ | F.Retrieve _) as f ->
      result := Some f;
      running := false
  done;
  !result

(* --- Summary keys ---

   A tuple contributes two keys: its type, and its (type, key-value)
   pair.  Values are serialized through an identity-canonical writer —
   [-0.] / NaN collapse under [Float.equal] — so equal values always
   hash to the same key and a summary miss stays a proof of absence. *)

let canon_value buf v =
  (match v with
   | Hf_data.Value.Str s ->
     Buffer.add_char buf '\000';
     Buffer.add_string buf s
   | Hf_data.Value.Num n ->
     Buffer.add_char buf '\001';
     Buffer.add_int64_le buf (Int64.of_int n)
   | Hf_data.Value.Real f ->
     let f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f in
     Buffer.add_char buf '\002';
     Buffer.add_int64_le buf (Int64.bits_of_float f)
   | Hf_data.Value.Ptr oid ->
     Buffer.add_char buf '\003';
     Buffer.add_int64_le buf (Int64.of_int (Hf_data.Oid.birth_site oid));
     Buffer.add_int64_le buf (Int64.of_int (Hf_data.Oid.serial oid))
   | Hf_data.Value.Blob b ->
     Buffer.add_char buf '\004';
     Buffer.add_string buf b);
  ()

let type_probe ttype = "t:" ^ ttype

let pair_probe ttype value =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "k:";
  Buffer.add_string buf ttype;
  Buffer.add_char buf '\000';
  canon_value buf value;
  Buffer.contents buf

(* Membership probes that are each *necessary* for the item's first
   executed filter to match any tuple: if the destination summary
   definitely lacks one, the item fails there without spawning,
   emitting, or binding anything, and the ship can be skipped.  An
   empty list means "cannot prune". *)
let prune_probes plan ~start ~iters =
  match first_filter plan ~start ~iters with
  | Some (F.Select { ttype = P.Exact tv; key; _ })
  | Some (F.Retrieve { ttype = P.Exact tv; key; _ }) -> (
    match tv with
    | Hf_data.Value.Str s -> (
      let base = [ type_probe s ] in
      match key with P.Exact kv -> pair_probe s kv :: base | _ -> base)
    | Hf_data.Value.Num _ | Hf_data.Value.Real _ | Hf_data.Value.Ptr _
    | Hf_data.Value.Blob _ ->
      (* a non-string type pattern never matches; still not worth a
         special case — just don't prune *)
      [])
  | Some (F.Select _ | F.Deref _ | F.Retrieve _ | F.Iter _) | None -> []

let summary_of_store config store =
  let expected = max 16 (2 * Hf_data.Store.cardinal store * 4) in
  let bloom = Bloom.create ~expected ~fp_rate:config.fp_rate in
  Hf_data.Store.iter store (fun obj ->
      List.iter
        (fun tuple ->
          let ttype = Hf_data.Tuple.ttype tuple in
          Bloom.add bloom (type_probe ttype);
          Bloom.add bloom (pair_probe ttype (Hf_data.Tuple.key tuple)))
        (Hf_data.Hobject.tuples obj));
  bloom

let summary_misses summary probes =
  List.exists (fun probe -> not (Bloom.mem summary probe)) probes

(* --- Entry key --- *)

(* Canonical bytes of (destination, shipped suffix, counters, target).
   The codec's writers are injective, so equal keys mean equal entries. *)
let entry_key ~dst ~plan ~start ~iters ~oid =
  let buf = Buffer.create 96 in
  Codec.write_varint buf dst;
  Codec.write_program buf (Plan.program plan);
  Codec.write_varint buf start;
  Codec.write_varint buf (Array.length iters);
  Array.iter (fun c -> Codec.write_varint buf c) iters;
  Codec.write_oid buf oid;
  Buffer.contents buf

(* --- LRU table --- *)

(* Intrusive doubly-linked list threaded through the entries; [head] is
   a sentinel, most-recent first. *)
type entry = {
  ekey : string;
  mutable passed : bool;
  mutable version : int;
  mutable stamp : float;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  config : config;
  table : (string, entry) Hashtbl.t;
  head : entry;
  mutable size : int;
}

let create config =
  validate config;
  let rec head =
    { ekey = ""; passed = false; version = -1; stamp = 0.0; prev = head; next = head }
  in
  { config; table = Hashtbl.create 64; head; size = 0 }

let config t = t.config

let length t = t.size

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  e.next <- t.head.next;
  e.prev <- t.head;
  t.head.next.prev <- e;
  t.head.next <- e

let drop t e =
  unlink e;
  Hashtbl.remove t.table e.ekey;
  t.size <- t.size - 1

type lookup = Hit of bool | Invalidated | Absent

let lookup t ~now ~key ~version =
  match Hashtbl.find_opt t.table key with
  | None -> Absent
  | Some e ->
    if e.version <> version || now -. e.stamp > t.config.ttl then begin
      (* demand-driven invalidation: the entry is known stale the
         moment the destination reports a different version (or the
         entry aged out), so evict it now *)
      drop t e;
      Invalidated
    end
    else begin
      unlink e;
      push_front t e;
      Hit e.passed
    end

let put t ~now ~key ~version ~passed =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.passed <- passed;
    e.version <- version;
    e.stamp <- now;
    unlink e;
    push_front t e
  | None ->
    let e =
      { ekey = key; passed; version; stamp = now; prev = t.head; next = t.head }
    in
    Hashtbl.replace t.table key e;
    push_front t e;
    t.size <- t.size + 1;
    if t.size > t.config.capacity then drop t t.head.prev

let drop_dst t ~dst =
  (* [entry_key] leads with the destination's varint; a varint is
     self-delimiting, so a full-varint prefix match identifies exactly
     the entries for [dst]. *)
  let buf = Buffer.create 5 in
  Codec.write_varint buf dst;
  let prefix = Buffer.contents buf in
  let plen = String.length prefix in
  let doomed = ref [] in
  Hashtbl.iter
    (fun key e ->
      if String.length key >= plen && String.sub key 0 plen = prefix then
        doomed := e :: !doomed)
    t.table;
  List.iter (drop t) !doomed
