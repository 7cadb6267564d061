(** Prometheus text exposition (format 0.0.4) for registries and
    snapshots — the always-on monitoring surface behind the
    [Tcp_site] monitor port and [hfql stats].

    Dotted registry names map to legal metric names
    ([hf.net.bytes_sent] -> [hf_net_bytes_sent]); histograms render as
    cumulative [_bucket{le="..."}] series (power-of-two upper bounds,
    ["+Inf"] last) plus [_sum] and [_count]. *)

val sanitize_name : string -> string
(** Map every character outside [[a-zA-Z0-9_:]] to ['_']; a leading
    digit gains a ['_'] prefix. *)

val escape_label_value : string -> string
(** Exposition-format escapes: backslash, double quote, newline. *)

val render : ?labels:(string * string) list -> Registry.t -> string
(** [render_snapshot] of a fresh {!Registry.snapshot}. *)
