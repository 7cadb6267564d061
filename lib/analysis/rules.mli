(** The hfcheck rule set.

    - [poly-compare] (R1): polymorphic equality/ordering/hashing at
      types containing [Oid.t]/[Value.t] (or functions).
    - [codec-tag] (R2): wire-tag uniqueness, encoder/decoder parity and
      the reserved traced-envelope tag 127, for [write_X]/[read_X]
      pairs dispatching on [write_u8]/[read_u8].
    - [guarded-by] (R3): fields annotated [[@hf.guarded_by "f"]] only
      touched inside an application of [f] or a binding annotated
      [[@@hf.requires_lock "f"]].
    - [swallow] (R4): [try ... with _ -> <constant>].
    - [io] (R5): direct stdout/stderr printing (scoped to [lib/] by the
      driver). *)

val run : Typedtree.structure -> Finding.t list
(** All findings for one typed tree, unsuppressed and unfiltered. *)
