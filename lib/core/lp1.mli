(** The paper's (LP1) relaxation (Section 3).

    For a job subset [J'] and log-mass target [L]:

    {v
      minimize   t
      subject to sum_i l'_ij x_ij >= L   for j in J'     (coverage)
                 sum_j x_ij       <= t   for every i      (load)
                 x_ij >= 0
    v}

    with clipped coefficients [l'_ij = min(l_ij, L)] — clipping loses
    nothing for integral solutions (Lemma 2) and bounds the LP's width.
    The integrality constraint of the original integer program is dropped
    here and recovered by {!Rounding}. *)

type frac = {
  x : float array array;  (** fractional assignment, [m x n] *)
  value : float;  (** the optimal (or near-optimal) load [t] *)
}

val solve :
  ?solver:Solver_choice.t ->
  ?mwu_gap_limit:float ->
  Instance.t ->
  jobs:int array ->
  target:float ->
  frac
(** [solve inst ~jobs ~target] solves the relaxation restricted to [jobs].
    Entries of [x] outside [jobs] are zero.

    With [~solver:(Mwu eps)] each solution is verified against its own
    weak-duality certificate: accepted when
    [value / lower_bound <= mwu_gap_limit] (default
    {!Solver_choice.guarantee}); on a failed certificate — or an
    instance so small the simplex is cheaper
    ([m * |jobs| <= 16]) — the exact simplex result is returned
    instead.  The outcome is counted in the obs registry
    ([lp1.mwu.certified], [lp1.mwu.fallback.cert],
    [lp1.mwu.fallback.tiny]).  [mwu_gap_limit] exists so tests can
    force the fallback; production callers leave it unset.

    Raises [Invalid_argument] on an empty [jobs] array, a non-positive
    [target], or duplicate jobs; [Failure] if the LP solver fails
    (cannot happen on well-formed instances: assigning every machine to
    every job long enough is always feasible). *)

val problem_for_testing :
  Instance.t -> jobs:int array -> target:float -> Suu_lp.Problem.t
(** The problem the exact backend of {!solve} solves, with the same
    validation; for checking it against an independent solver. *)
