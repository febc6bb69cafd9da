(** SUU-C: the O(log(n+m) loglog min(m,n))-approximation for disjoint
    chains (paper Section 4).

    Construction, following the paper:

    + Solve (LP2) and round it (Lemma 6) into an integral assignment
      [{x_ij}] with unit log mass per job, load and chain lengths
      [O(E[T_OPT])]; job lengths are [d_j = max_i x_ij].
    + A job is {e long} when [d_j] exceeds
      [gamma = t_LP2 / log2(n + m)]; long jobs become {e pauses} of
      [gamma] supersteps in their chain.
    + Each chain runs an adaptive block schedule: its current short job
      [j] occupies [d_j] supersteps, machine [i] serving the first
      [x_ij] of them; a failed block repeats.
    + All chains run "in parallel" as a pseudoschedule of supersteps; the
      start of chain [k] is delayed by a uniform draw from [{0..H}]
      ([H] = the assignment's load), which caps the congestion at
      [O(log(n+m) / loglog(n+m))] w.h.p. (Theorem 7).  Each superstep is
      flattened into [c(s)] real timesteps, machines serving their
      requesting jobs one per step.
    + Every [gamma] supersteps a segment ends: the chains suspend and one
      SUU-I-SEM execution completes all long jobs whose pauses have
      started, then the chains resume.  (The paper schedules the SEM run
      for pauses starting in the segment just ended; completing every
      started-and-pending pause is the same work, stated without segment
      bookkeeping.) *)

type stats = {
  mutable supersteps : int;
  mutable max_congestion : int;
  mutable total_congestion : int;
      (** sum over supersteps of that superstep's flattened length *)
  mutable sem_invocations : int;
  mutable sem_steps : int;  (** timesteps spent inside long-job SEM runs *)
}

val new_stats : unit -> stats

type prepared = {
  assignment : Assignment.t;  (** the Lemma-6-rounded assignment *)
  lp_value : float;  (** t*_LP2 *)
  gamma : int;  (** pause/segment length, >= 1 *)
  load : int;  (** H: max machine load over short jobs, >= 1 *)
  long_jobs : int list;  (** jobs with d_j > gamma *)
  chains : Suu_dag.Chains.t;
}

val prepare :
  ?top_machines:int ->
  ?solver:Solver_choice.t ->
  Instance.t ->
  chains:Suu_dag.Chains.t ->
  prepared
(** [prepare inst ~chains] runs the LP and rounding stages (once;
    deterministic).  [solver] only labels the (LP2) solve's trace span:
    (LP2) always solves with the exact tableau (see {!Lp2.solve}). *)

val policy_of_prepared :
  ?solver:Solver_choice.t ->
  ?stats:stats ->
  ?random_delays:bool ->
  ?delay_granularity:int ->
  Instance.t ->
  prepared ->
  Policy.t
(** [policy_of_prepared inst prep] builds the adaptive schedule.  The
    policy value owns one {!Plan_cache.t} handle, and every long-job
    phase of every execution runs {!Suu_i_sem.stepper} over it.  Each
    execution fills its superstep queues, flattened rows and chain
    cursors in place, so a step allocates nothing outside segment
    boundaries; the stepper keeps cursors over [remaining] that only
    move forward (see {!Policy.stepper}).
    [random_delays] (default true) disables the Theorem-7 delays when
    false — used by the E7 ablation to show the congestion they remove.
    [solver] selects the LP1 backend of the inner SUU-I-SEM runs.
    [stats], when given, accumulates superstep/congestion counters across
    executions.  [delay_granularity] (default 1) draws the random delays
    from multiples of that many supersteps — the effect of the paper's
    "nonpolynomial t_LP2" coarsening trick (Section 4), which thins the
    delay lattice to polynomially many values while preserving
    Theorem 7's congestion bound up to constants. *)

val policy :
  ?solver:Solver_choice.t ->
  ?top_machines:int ->
  ?stats:stats ->
  ?random_delays:bool ->
  ?delay_granularity:int ->
  Instance.t ->
  Policy.t
(** [policy inst] reads the chains off the instance's dag.  Raises
    [Invalid_argument] when the dag is not a disjoint-chain collection. *)
