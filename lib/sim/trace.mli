(** SUU* traces: the hidden per-job randomness of an execution.

    Following the paper's reformulation (Appendix A), all stochasticity of
    an SUU execution is captured by one uniform draw [r_j] per job: job
    [j] completes at the first step where its accrued log mass reaches the
    threshold [w_j = -log2 r_j].  Theorem 10 proves the resulting state
    process is distributed exactly as the original per-step coin flips.
    Fixing a trace makes executions deterministic, enabling paired
    comparisons of schedules on identical randomness — the offline-versus-
    online view used in the paper's own competitive analysis — and
    adversarial (deterministic-threshold) experiments. *)

type t

val draw : n:int -> Suu_prng.Rng.t -> t
(** [draw ~n rng] samples thresholds [w_j = -log2 r_j] with
    [r_j ~ U(0,1)] for [n] jobs. *)

val of_thresholds : float array -> t
(** [of_thresholds w] fixes the thresholds directly (adversarial /
    deterministic instances, experiment E6).  Raises [Invalid_argument]
    on negative entries. *)

val n : t -> int

val threshold : t -> int -> float
(** [threshold t j] is [w_j]. *)

val thresholds : t -> float array
(** [thresholds t] is every [w_j], indexed by job.  The array is owned
    by [t]: treat as read-only. *)
