(** Plain-text (de)serialization of SUU instances.

    A small line-oriented format so instances can be saved from one tool
    run and replayed in another (see the [suu] CLI's [--save]/[--load]):

    {v
    suu-instance v1
    name <one-line name>
    machines <m>
    jobs <n>
    q
    <m lines of n failure probabilities>
    edges <count>
    <pred> <succ>        (one line per precedence edge)
    end
    v}

    Floats are printed with full round-trip precision ([%.17g]). *)

val to_string : Instance.t -> string
(** The canonical rendering: instances with equal renderings are the
    same instance. *)

val float17 : float -> string
(** [float17 x] is [Printf.sprintf "%.17g" x], byte for byte, without
    [Printf]'s format interpretation: the rendering of every q cell,
    and of the floats in server replies. *)

val digest : Instance.t -> Digest.t
(** [digest inst] is [Digest.string (to_string inst)], the canonical
    digest: it keys the server's instance cache, the plan cache, the
    result store (as hex), the backfill predictor's seed and shard
    routing, so its value must never change for a given instance.
    Memoized by physical identity over a bounded table, so digesting
    one value again costs a lookup, not a render.  Thread-safe. *)

val of_string : string -> Instance.t
(** Raises [Failure] with a line-numbered message on malformed input, or
    [Invalid_argument] if the parsed data violates instance invariants
    (via {!Instance.make} / {!Suu_dag.Dag.of_edges}). *)

val save_file : string -> Instance.t -> unit
(** Crash-safe: the serialization is written to a tempfile in the
    destination directory, fsync'd, and renamed over [path] — a crash
    mid-save leaves the previous contents (or no file), never a
    truncated one.  Raises [Unix.Unix_error] or [Sys_error] on I/O
    failure. *)

val load_file : string -> Instance.t
