(* Per-destination batching of outgoing work.

   A remote dereference costs one wire message whose fixed overhead (the
   paper's ~50 ms send + transit + receive) dwarfs the per-item payload.
   The batcher buffers items keyed by destination site and hands back a
   flush — all buffered items for that destination, oldest first — when
   the policy fires.  [Flush_at 1] degenerates to today's one-message-
   per-item protocol; [Flush_on_drain] buffers without bound and relies
   on the owner flushing at the end of its pump cycle / drain. *)

type flush_policy =
  | Flush_at of int
  | Flush_on_drain

let unbatched = Flush_at 1

let validate_policy = function
  | Flush_at k when k < 1 -> invalid_arg "Batch.Flush_at: batch size must be >= 1"
  | Flush_at _ | Flush_on_drain -> ()

type 'a buffer = { mutable items : 'a list (* newest first *); mutable count : int }

type 'a t = {
  policy : flush_policy;
  buffers : (int, 'a buffer) Hashtbl.t;
  mutable total : int;
}

let create policy =
  validate_policy policy;
  { policy; buffers = Hashtbl.create 8; total = 0 }

let pending t = t.total

let pending_for t ~dst =
  match Hashtbl.find_opt t.buffers dst with Some b -> b.count | None -> 0

let take t ~dst =
  match Hashtbl.find_opt t.buffers dst with
  | None -> []
  | Some b ->
    let items = List.rev b.items in
    t.total <- t.total - b.count;
    b.items <- [];
    b.count <- 0;
    items

let push t ~dst item =
  let buffer =
    match Hashtbl.find_opt t.buffers dst with
    | Some b -> b
    | None ->
      let b = { items = []; count = 0 } in
      Hashtbl.add t.buffers dst b;
      b
  in
  buffer.items <- item :: buffer.items;
  buffer.count <- buffer.count + 1;
  t.total <- t.total + 1;
  match t.policy with
  | Flush_at k when buffer.count >= k -> Some (take t ~dst)
  | Flush_at _ | Flush_on_drain -> None

(* Destinations in ascending order so flushes are deterministic
   regardless of hash-table iteration order. *)
let flush_all t =
  let dsts =
    Hashtbl.fold (fun dst b acc -> if b.count > 0 then dst :: acc else acc) t.buffers []
    |> List.sort Int.compare
  in
  List.map (fun dst -> (dst, take t ~dst)) dsts
