(** Fixed-bucket latency/duration histograms with quantile estimates.

    Bucket upper bounds are fixed at creation (log-spaced from 1µs to
    50s by default), so counts from successive snapshots can be
    subtracted and histograms from different processes or scrapes are
    directly comparable — the reason production metric systems
    (Prometheus et al.) fix buckets rather than adapt them.

    A value [v] lands in the first bucket whose upper bound is [>= v]
    ([v <= 0] lands in the first bucket, values above the last bound in
    the overflow bucket).  Quantiles interpolate linearly inside the
    bucket, so they are estimates with relative error bounded by the
    bucket ratio (2–2.5x at the default spacing) and are monotone in the
    requested rank.

    Thread-safety: recording and snapshotting lock the histogram's
    mutex.  Histograms created through {!Registry.histogram} share the
    registry's single mutex, which is what makes one
    {!Registry.snapshot} a consistent cut across every metric at once
    (see ISSUE: the counter-vs-histogram race). *)

type t

type snapshot = {
  count : int;  (** total recorded values, including overflow *)
  sum : float;  (** sum of recorded values (clamped at 0 below) *)
  buckets : int array;  (** one count per bound, overflow at the end *)
  max : float;  (** largest recorded value ([0.] when empty) *)
}

val default_bounds : float array
(** Log-spaced upper bounds in seconds: {1, 2.5, 5} x 10^k from 1e-6
    to 50. *)

val create : ?lock:Mutex.t -> ?bounds:float array -> unit -> t
(** [create ()] is an empty histogram guarded by a fresh mutex (or
    [lock] when given — the registry passes its own so all registered
    histograms share one).  [bounds] must be strictly increasing and
    positive. *)

val record : t -> float -> unit
(** Record one value (seconds, for span histograms).  Negative or NaN
    values are clamped to [0.] before they touch the buckets, the sum
    and the max, so every view of the histogram describes the same
    data.  Locks. *)

val unsafe_record : t -> float -> unit
(** Record without taking the lock: the caller must already hold the
    histogram's mutex (for a registered histogram, the registry's
    mutex).  Used to update a histogram and its paired counters in
    one critical section. *)

val snapshot : t -> snapshot
(** Consistent copy of the current counts.  Locks. *)

val unsafe_snapshot : t -> snapshot
(** Snapshot without locking; caller holds the mutex. *)

val quantile : t -> snapshot -> float -> float
(** [quantile t snap p] estimates the [p]-quantile ([0 <= p <= 1]) by
    linear interpolation inside the containing bucket.  Returns [0.] on
    an empty snapshot; ranks landing in the overflow bucket report the
    observed maximum (which is necessarily above the last finite bound),
    not the last bound — a tail beyond the bucket range stays visible
    instead of being silently capped.  Monotone in [p]. *)

val mean : snapshot -> float
(** [sum /. count], [0.] when empty. *)

val merge : snapshot -> snapshot -> snapshot
(** Bucket-wise exact sum of two snapshots with the same bucket layout
    (counts and sums add, max takes the larger).  Because bounds are
    fixed at creation, merging snapshots from different processes with
    the same layout is exact — the merged quantiles are what one
    histogram would have reported had it recorded every value.
    Raises [Invalid_argument] when the bucket arrays differ in length. *)

val raw_of_snapshot : snapshot -> string
(** One-line wire form ["<count> <sum> <max> <b0> ... <bn>"] with
    [%.17g] floats, so [snapshot_of_raw (raw_of_snapshot s)] is exact.
    Lets a router merge per-shard histograms losslessly. *)

val snapshot_of_raw : string -> snapshot option
(** Inverse of {!raw_of_snapshot}; [None] on malformed input (wrong
    field count, non-numeric, or negative counts). *)
