(** Revised simplex with an explicit basis inverse: a differential
    oracle for {!Suu_lp.Simplex}.

    A second, structurally independent implementation of two-phase
    simplex: where {!Suu_lp.Simplex} carries the full tableau through
    every pivot, this solver maintains only the basis inverse [B⁻¹]
    (updated by elementary eta transformations and periodically
    refactorized by Gauss–Jordan for numerical hygiene) and prices
    columns against the original constraint matrix.  Every solve starts
    cold from the slack/artificial identity basis.

    The paper's guarantees all flow through LP solutions (Lemmas 1, 2,
    5, 6; the LL LP; LST), so the test suite checks that both solvers
    agree on optimal values, feasibility and unboundedness for every
    randomized instance. *)

val solve : ?max_iters:int -> Suu_lp.Problem.t -> Suu_lp.Simplex.result
(** [solve p] optimizes [p] with the same contract as
    {!Suu_lp.Simplex.solve} (identical result type; optimal values
    agree to numerical tolerance, though the optimal vertex may differ
    when the optimum is degenerate). *)

val solve_exn : ?max_iters:int -> Suu_lp.Problem.t -> float * float array
(** Like {!Suu_lp.Simplex.solve_exn}. *)
