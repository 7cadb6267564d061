(* The three workloads of the real-socket benchmark: the site
   configuration each runs under, the pool of queries a run draws from,
   the warm-up queries, and the single-site oracle digest of every pool
   entry.

   The corpus is always the paper's 270-object synthetic dataset
   (Synthetic.default_params: 2 KiB bodies, corpus seed 42) placed on
   three sites.  The --seed value drives only what the sites are asked:
   selection keys, hub objects, which pool entry each query draws, the
   rewrite targets and the origin rotation. *)

module Oid = Hf_data.Oid
module Prng = Hf_util.Prng
module Queries = Hf_workload.Queries
module Synthetic = Hf_workload.Synthetic
module Tcp = Hf_net.Tcp_site

type kind = Ship_local | Ship_remote | Service_mix

let kinds = [ ("ship-local", Ship_local); ("ship-remote", Ship_remote); ("service-mix", Service_mix) ]

let n_sites = 3

(* An expected result set kept as its size and a hash of its members, so
   the harness holds no result sets of its own while the heap is
   measured. *)
type digest = { size : int; hash : int }

let digest_of_set set =
  {
    size = Oid.Set.cardinal set;
    hash =
      Oid.Set.fold
        (fun oid h ->
          (h * 1_000_003) lxor ((Oid.birth_site oid lsl 40) lor Oid.serial oid) land max_int)
        set 17;
  }

let equal_digest a b = a.size = b.size && a.hash = b.hash

type query = {
  label : string;
  program : Hf_query.Program.t;
  initial : Oid.t list;
  mutable expected : digest;
}

let query label program initial = { label; program; initial; expected = { size = -1; hash = 0 } }

let service_admission =
  { Hf_server.Sched.in_flight_cap = Some 4; max_queued = None; link_window = Some 64 }

let create_site kind ~tracer site =
  match kind with
  | Ship_local | Ship_remote -> Tcp.create ~site ~tracer ()
  | Service_mix ->
    Tcp.create ~site ~batch:(Hf_proto.Batch.Flush_at 8) ~reliability:Hf_proto.Reliable.default
      ~cache:Hf_index.Remote_cache.default ~admission:service_admission ~exec:Tcp.Exec_auto
      ~tracer ()

let closure (placed : Synthetic.placed) ~key label selection =
  query
    (Printf.sprintf "closure %s/%s" key label)
    (Queries.closure_program ~pointer_key:key selection)
    [ placed.Synthetic.root ]

let common_closure placed = closure placed ~key:"Rand95" "Common" Queries.select_common

let unique_closure prng placed =
  let k = Prng.next_int prng (Array.length placed.Synthetic.oids) in
  closure placed ~key:"Rand05" (Printf.sprintf "Unique=%d" k) (Queries.select_unique k)

(* ship-remote's query: an 8-deep Rand05 walk from the root, ~240 small
   frames for ~200 objects.  The full Rand05 closure (~630 frames) runs
   so close to the 20 ms await tick on a contended 2-core host that its
   p99 and throughput jump a whole tick from run to run. *)
let remote_depth = 8

let unique_walk prng (placed : Synthetic.placed) =
  let k = Prng.next_int prng (Array.length placed.Synthetic.oids) in
  query
    (Printf.sprintf "walk%d Rand05/Unique=%d" remote_depth k)
    (Hf_query.Compile.compile
       (Queries.depth_body ~pointer_key:"Rand05" ~depth:remote_depth (Queries.select_unique k)))
    [ placed.Synthetic.root ]

(* The paper's five closures from the root, one shape per [i mod 5]. *)
let paper_closure prng placed i =
  match i mod 5 with
  | 0 -> common_closure placed
  | 1 -> unique_closure prng placed
  | 2 ->
    let v = 1 + Prng.next_int prng 10 in
    closure placed ~key:"Rand50" (Printf.sprintf "Rand10=%d" v) (Queries.select_rand10 v)
  | 3 ->
    let v = 1 + Prng.next_int prng 100 in
    closure placed ~key:"Rand20" (Printf.sprintf "Rand100=%d" v) (Queries.select_rand100 v)
  | _ ->
    let v = 1 + Prng.next_int prng 1000 in
    closure placed ~key:Synthetic.chain_key (Printf.sprintf "Rand1000=%d" v)
      (Queries.select_rand1000 v)

(* Depth-3 walk from a hub.  A finite iterator is never scattered, so
   these run as batched, reliable classic shipping. *)
let hub_walk prng (placed : Synthetic.placed) hub =
  let v = 1 + Prng.next_int prng 10 in
  query
    (Printf.sprintf "walk3 Rand50/Rand10=%d from #%d" v hub)
    (Hf_query.Compile.compile
       (Queries.depth_body ~pointer_key:"Rand50" ~depth:3 (Queries.select_rand10 v)))
    [ placed.Synthetic.oids.(hub) ]

(* One-hop browse from a hub.  Past the dereference the program holds no
   Deref or Retrieve, so remote verdicts are cacheable. *)
let browse prng (placed : Synthetic.placed) hub =
  let classes = Array.of_list Synthetic.localities in
  let key = Synthetic.rand_key (Prng.pick prng classes) in
  let v = 1 + Prng.next_int prng 10 in
  query
    (Printf.sprintf "browse %s/Rand10=%d from #%d" key v hub)
    Hf_query.Builder.(program [ pointers ~key "X"; follow "X"; Queries.select_rand10 v ])
    [ placed.Synthetic.oids.(hub) ]

let entries_per_class = 20

let n_hubs = 10

(* The query classes a run cycles through: one class on the shipping
   workloads, the three thirds of the mix on service-mix. *)
let make_pool kind prng (placed : Synthetic.placed) =
  match kind with
  | Ship_local -> [| [| common_closure placed |] |]
  | Ship_remote -> [| Array.init entries_per_class (fun _ -> unique_walk prng placed) |]
  | Service_mix ->
    let candidates = Array.init (Array.length placed.Synthetic.oids - 1) (fun i -> i + 1) in
    Prng.shuffle_in_place prng candidates;
    let hubs = Array.sub candidates 0 n_hubs in
    let closures = Array.init entries_per_class (paper_closure prng placed) in
    let walks = Array.init entries_per_class (fun i -> hub_walk prng placed hubs.(i mod n_hubs)) in
    let browses = Array.init entries_per_class (fun i -> browse prng placed hubs.(i mod n_hubs)) in
    [| closures; walks; browses |]

let set_oracle pool ~find =
  Array.iter
    (Array.iter (fun q ->
         q.expected <-
           digest_of_set (Hf_engine.Local.run ~find q.program q.initial).Hf_engine.Local.result_set))
    pool

(* Warm-up fills the pooled connections; on service-mix it also fills
   every site's learned Bloom summaries and Bloofi leaves, which need a
   Cache_version from each peer: two rounds of one query per class from
   every origin. *)
let warmup kind pool =
  match kind with
  | Ship_local | Ship_remote ->
    let entries = pool.(0) in
    List.init 8 (fun i -> (0, entries.(i mod Array.length entries)))
  | Service_mix ->
    let round () =
      List.concat_map
        (fun origin -> Array.to_list (Array.map (fun entries -> (origin, entries.(0))) pool))
        (List.init n_sites Fun.id)
    in
    round () @ round ()

type generator = { pool : query array array; prng : Prng.t; mutable issued : int }

let generator pool prng = { pool; prng; issued = 0 }

(* Classes in strict rotation (a third each on service-mix), a seeded
   entry within the class. *)
let next g =
  let entries = g.pool.(g.issued mod Array.length g.pool) in
  g.issued <- g.issued + 1;
  entries.(Prng.next_int g.prng (Array.length entries))
