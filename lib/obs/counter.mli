(** Lock-free monotonically increasing counters.

    A counter is a single [Atomic.t] cell: increments from any thread or
    domain are wait-free and never lost.  A counter read on its own is
    exact; when a counter must stay consistent with a histogram (e.g. a
    request count vs. its latency distribution), update both through
    {!Registry.observe} so a {!Registry.snapshot} can never split the
    pair. *)

type t

val create : unit -> t
(** A fresh counter at zero.  Prefer {!Registry.counter}, which interns
    by name. *)

val incr : t -> unit

val add : t -> int -> unit
(** [add t k] adds [k] (>= 0) in one atomic operation — use it to batch
    per-run totals instead of incrementing in a hot loop. *)

val get : t -> int
