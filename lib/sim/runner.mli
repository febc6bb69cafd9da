(** Replication harness: repeated executions over independent traces.

    This module owns replication.  Seeds are derived deterministically
    ({!rep_rngs}), so any experiment is reproducible from
    [(instance, policy, seed, reps)]; when several policies are run with
    the same seed they see *identical* traces (paired comparison, as in
    the paper's offline/online argument).  Every Monte-Carlo batch in
    the repository — {!makespans}, the server's deadline-checked
    [simulate] batches and the result store's durable commit batches —
    runs through {!run_range}, the one replication body.

    Replications run across [jobs] domains (default {!Parallel.default_jobs},
    i.e. [SUU_JOBS] or the number of CPUs in the process's affinity
    mask).  The fan-out is bit-identical to a sequential loop:
    replication [k] always draws trace and policy randomness from the
    pair [(rep_rngs ~seed ~reps).(k)], regardless of [jobs] or [reps].  The one shared value is [policy]
    itself: its [fresh] steppers run concurrently, which every policy in
    this repository supports (per-execution state lives in the stepper;
    policy-level caches and stats sinks are lock-protected).  Pass
    [~jobs:1] to force a single-domain run. *)

val rep_rngs :
  seed:int -> reps:int -> (Suu_prng.Rng.t * Suu_prng.Rng.t) array
(** [rep_rngs ~seed ~reps] derives the per-replication
    [(trace_rng, policy_rng)] pairs from a master generator, in a fixed
    order: pair [k] is split off before pair [k + 1], trace generator
    before policy generator.

    Determinism contract: replication [k]'s pair is a function of
    [(seed, k)] alone — independent of [reps] — so run [k] sees the same
    trace whether the sweep asks for 10 replications or 10,000, and
    runs at every domain count agree bit for bit.  Raises
    [Invalid_argument] on negative [reps]; [reps = 0] yields [[||]]. *)

val run_range :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  rngs:(Suu_prng.Rng.t * Suu_prng.Rng.t) array -> float array ->
  lo:int -> hi:int -> unit
(** [run_range inst policy ~rngs results ~lo ~hi] runs replications
    [lo .. hi - 1] across [jobs] domains: replication [k] draws its
    trace from [fst rngs.(k)], runs [policy] on it with [snd rngs.(k)]
    ({!Engine.makespan}, step cap [cap]) and writes the makespan to
    [results.(k)].  No other slot is touched, so callers can run a
    sweep in batches (checking a deadline or committing results between
    them) and get exactly the values of one call over the whole range.
    Raises [Invalid_argument] unless [0 <= lo <= hi] and [hi] is within
    both arrays, or when [jobs] is not positive. *)

val makespans :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float array
(** [makespans inst policy ~seed ~reps] runs [reps] independent
    executions and returns their makespans, in replication order:
    {!rep_rngs} followed by one {!run_range} over [[0, reps)]. *)

val expected_makespan :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float
(** Mean of {!makespans}. *)
