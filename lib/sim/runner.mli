(** Replication harness: repeated executions over independent traces.

    Seeds are derived deterministically (see {!Seeds}), so any experiment
    is reproducible from [(instance, policy, seed, reps)]; when several
    policies are run with the same seed they see *identical* traces
    (paired comparison, as in the paper's offline/online argument).

    Replications run across [jobs] domains (default {!Parallel.default_jobs},
    i.e. [SUU_JOBS] or the machine's core count).  The fan-out is
    bit-identical to a sequential loop: replication [k] always draws
    trace and policy randomness from the pair [Seeds.rep_rngs].(k),
    regardless of [jobs] or [reps].  The one shared value is [policy]
    itself: its [fresh] steppers run concurrently, which every policy in
    this repository supports (per-execution state lives in the stepper;
    policy-level caches and stats sinks are lock-protected).  Pass
    [~jobs:1] to force a single-domain run. *)

val makespans :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float array
(** [makespans inst policy ~seed ~reps] runs [reps] independent
    executions and returns their makespans, in replication order. *)

val expected_makespan :
  ?cap:int -> ?jobs:int -> Suu_core.Instance.t -> Suu_core.Policy.t ->
  seed:int -> reps:int -> float
(** Mean of {!makespans}. *)

val rep_rngs :
  seed:int -> reps:int -> (Suu_prng.Rng.t * Suu_prng.Rng.t) array
(** [rep_rngs ~seed ~reps] is {!Seeds.rep_rngs}: the per-replication
    [(trace_rng, policy_rng)] pairs in the canonical order — shared with
    {!Parallel} so parallel and sequential runs see identical traces.
    Replication [k]'s pair depends only on [(seed, k)], never on [reps]
    (run [k] sees the same trace however many replications follow). *)
