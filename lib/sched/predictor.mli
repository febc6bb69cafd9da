(** Per-class runtime prediction for the online policies (pyss-style).

    Supercomputer backfill schedulers predict a job's runtime from the
    recent history of the {e same user's} completed jobs (pyss
    [EasyPlusPlusScheduler]: the running average of the last two).  The
    SUU analog of "user" inside a single instance is the job's fastest
    machine — jobs sharing a best machine have correlated hazard rows
    under the workload generators' per-machine speed model — so the
    predictor keeps one sliding window of completed runtimes per
    best-machine class.

    Until a class has observed a completion, {!predict} falls back to a
    model-based initial estimate, [max 1 (E[w] / l_best)] steps with
    [E[w] = 1/ln 2] (thresholds are [-log2 r], [r] uniform), perturbed
    by a small per-class jitter drawn from the creation seed — the
    analog of user-supplied runtime estimates, which real traces show
    are noisy.  As the simulator reveals completions the window fills
    and predictions are corrected online toward the class's empirical
    mean.

    Determinism: a predictor is a pure function of its creation
    arguments and the order of {!observe} calls.  Callers create one
    predictor {e per execution}, seeded from
    (instance digest, policy name, execution rng) via
    {!execution_seed}, so parallel replications stay bit-identical for
    any domain count. *)

type t

val create : ?window:int -> ?jitter:float -> Suu_core.Instance.t ->
  seed:int -> t
(** [create inst ~seed] is a fresh predictor for [inst]'s jobs.
    [window] (default 8) is the sliding-window length per class;
    [jitter] (default 0.1) is the relative perturbation of the initial
    estimates.  Raises [Invalid_argument] when [window < 1] or
    [jitter < 0]. *)

type model
(** The instance half of a predictor: job classes and the per-class
    model estimates before jitter.  Immutable, so one model serves
    every execution of a policy. *)

val model : ?window:int -> ?jitter:float -> Suu_core.Instance.t -> model
(** [model inst] computes [inst]'s classes and estimates once, in
    O(n + m); [window] and [jitter] are as for {!create}. *)

val of_model : model -> seed:int -> t
(** [of_model md ~seed] is a fresh predictor: it draws the per-class
    jitter from [seed].  [create ?window ?jitter inst ~seed] is
    [of_model (model ?window ?jitter inst) ~seed], bit for bit. *)

val execution_seed :
  digest:string -> policy:string -> Suu_prng.Rng.t -> int
(** Mix (instance digest, policy name, one draw from the execution rng)
    into a predictor seed: distinct policies and executions get
    distinct, reproducible prediction jitter. *)

val predict : t -> int -> float
(** [predict t j] is the predicted runtime (steps, >= 1.0) of job [j]:
    the mean of its class's window when nonempty, the jittered model
    estimate otherwise. *)

val predicted_steps : t -> int -> int
(** [predicted_steps t j] is [int_of_float (Float.ceil (predict t j))],
    the prediction in whole steps, computed without allocating. *)

val observe : t -> job:int -> runtime:int -> unit
(** [observe t ~job ~runtime] records a completed runtime into [job]'s
    class window (runtimes < 1 are clamped to 1). *)

val observed : t -> int -> int
(** Completions recorded so far in [j]'s class (not capped at the
    window length). *)
