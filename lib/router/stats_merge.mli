(** Merge per-shard [stats] replies into one cluster-wide field list.

    Integer counters sum; [uptime_ms] takes the max;
    [plan_cache_hit_rate] is recomputed from the summed hits/misses;
    [obs.phase.*] latency groups are rebuilt exactly from the lossless
    [.raw] bucket snapshots ({!Suu_obs.Histogram.merge}) rather than by
    averaging pre-rendered quantiles; any other key keeps the first
    source's value.  Output preserves first-seen key order, so the
    merged reply has the shape of a single shard's reply. *)

val merge : (string * string) list list -> (string * string) list
(** [merge sources] with [sources] in shard order.  Malformed [.raw]
    values and layout mismatches are skipped, not fatal. *)
