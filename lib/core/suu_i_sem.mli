(** SUU-I-SEM: the semioblivious O(log log min(m, n))-approximation for
    independent jobs (paper Section 3, Theorem 4).

    The schedule runs [K = ceil(log log min(m, n)) + 3] rounds.  Round 1
    executes the rounded LP1(J, 1/2) schedule; round [k] re-solves (LP1)
    on the surviving jobs [J_k] with the doubled target [L_k = 2^(k-2)]
    and executes its rounded schedule once.  A job surviving round [k-1]
    must have threshold [-log2 r_j > 2^(k-3)], which is why each round's
    cost is within a constant of the offline optimum (the competitive
    argument of Theorem 4).  If jobs remain after round [K]: with
    [n <= m] they are run one at a time on all machines; with [m < n]
    the round-[K] schedule is repeated until completion. *)

val policy :
  ?solver:Solver_choice.t -> ?jobs:int array -> Instance.t -> Policy.t
(** [policy inst] is the SUU-I-SEM schedule.  [jobs] restricts the policy
    to a subset (default all jobs) — the stepper then ignores jobs
    outside the subset entirely, and the round count uses the subset
    size.  The policy value owns one {!Plan_cache.t} handle, shared by
    all its executions. *)

val stepper : Plan_cache.t -> jobs:int array -> Instance.t -> Policy.stepper
(** [stepper cache ~jobs inst] is one execution of SUU-I-SEM on the
    (non-empty) subset [jobs], looking its round plans up through
    [cache], a handle built for [inst].  SUU-I-SEM draws no randomness,
    so this is the stepper [policy ~jobs inst] would start, minus the
    policy value and its handle: SUU-C runs one per segment boundary
    over the handle it built once.  [jobs] is borrowed, not copied, and
    its order is the (LP1) variable order of every round's solve.

    A steady-state step allocates nothing: a round start copies the
    survivors only when some scoped job finished, and the serial tail
    reuses one buffer and finds its job with a cursor that only moves
    forward, since [remaining] only goes from true to false within an
    execution. *)
