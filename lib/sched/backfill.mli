(** EASY-style backfilling over the SUU simulator (pyss-style).

    FCFS with one reservation: eligible jobs queue in index order (the
    SUU analog of submission order); the head job starts as soon as its
    requested width of capable machines is free, and while it cannot
    start it holds a {e reservation} — a shadow time and a reserved
    machine set computed from the {!Predictor}'s runtime predictions
    for the running jobs.  Queued jobs behind the head may {e backfill}
    into the hole under the conservative EASY rule: a candidate starts
    only if it fits on non-reserved machines, or its predicted
    completion lands on or before the shadow time.

    Mispredictions cannot break the reservation: this variant enforces
    it {e hard}.  The moment the head could start on machines that are
    free or held only by backfilled jobs, the blocking backfilled jobs
    are preempted and the head starts.  Preemption is free in SUU —
    accrued log-failure mass persists per job, so a preempted job
    re-queues and resumes with nothing lost.  The resulting invariant
    is exact and machine-checkable: {e at no step does a backfilled job
    stand between the FCFS head and its required width} (see the test
    suite's head-invariant checker over recorded executions).

    Runtime prediction is corrected online: a running job that has
    left the engine's [remaining] set has completed, and its actual
    runtime is fed back into the per-class predictor (in ascending job
    index), exactly how pyss's EASY++ refines its per-user running
    average.  The FCFS queue is a {!Suu_core.Ready} set in index order,
    updated from the previous row, so a step costs O(m) per scheduling
    pass plus the backfill scan over queued jobs after the head.  The
    scan, and the reservation only it reads, are skipped when fewer
    machines are free than the narrowest width.  A step with no
    completion since the previous one returns the previous row: only
    the time has changed, and that cannot start a job.

    Determinism: queue order, machine ranking (highest [l_ij], ties to
    the lowest index) and the predictor seed are all derived from the
    instance, the policy name, and the execution rng — same-seed
    replays are byte-identical, including across domain counts. *)

type event =
  | Started of { job : int; time : int; backfilled : bool }
  | Preempted of { job : int; time : int }
      (** a backfilled job giving way to the FCFS head *)

val policy :
  ?width:(int -> int) ->
  ?on_event:(event -> unit) ->
  Suu_core.Instance.t -> Suu_core.Policy.t
(** The backfill policy, named ["backfill"].  [width j] (clamped to
    [1 .. capable_j]) is job [j]'s rigid machine request.  The default
    is [min capable_j (max 1 (m / 2))], where [capable_j] counts
    machines with [q_ij < 1]: jobs ask for up to half the cluster, the
    rigid-width analog of SWF processor counts, leaving a hole for
    backfill to fill.  [on_event] observes starts and preemptions; it is
    shared across the policy's executions, so only drive it from
    sequential single-execution runs (tests). *)
