(** Store snapshots: persist a site's object store and restore it.

    Binary format built on the wire codec (no [Marshal], no host-order
    dependence); each object is individually framed so truncation is
    detected at the exact object where the file ends.  Snapshots are
    byte-for-byte reproducible (objects are written in oid order) and
    preserve the serial high-water mark, so names issued after a restore
    never collide with saved ones. *)

exception Corrupt of string

val magic : string
(** File magic ("HFSNAP2\n"). *)

val encode : Hf_data.Store.t -> string
(** Snapshot bytes for a store. *)

val decode : string -> Hf_data.Store.t
(** Rebuild a store. Raises [Corrupt] on bad magic, truncation,
    trailing bytes, duplicate or undecodable objects. *)

val save : Hf_data.Store.t -> path:string -> unit

val load : path:string -> Hf_data.Store.t
(** Raises [Corrupt] as {!decode}, and [Sys_error] on I/O failures. *)
