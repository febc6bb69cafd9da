(** The paper's (LP2) relaxation for chain precedence constraints
    (Section 4).

    {v
      minimize   t
      subject to sum_i l'_ij x_ij >= 1      for every job j     (coverage)
                 sum_j x_ij       <= t      for every machine i (load)
                 sum_{j in C_k} d_j <= t    for every chain C_k (length)
                 0 <= x_ij <= d_j,  d_j >= 1
    v}

    with [l'_ij = min(l_ij, 1)].  The optimum is [O(E[T_OPT])]
    (paper Lemma 5, citing Lin–Rajaraman), and Lemma 6 rounds it within a
    constant factor while chain lengths grow by at most
    [7 sum d*_j].

    The [x <= d] coupling puts [n*m] rows in the tableau, so for larger
    sweeps [solve] can restrict each job to its [top_machines] most
    reliable machines — a *restriction*, never a relaxation, so rounded
    schedules stay valid; lower bounds for ratio reporting come from
    {!Lower_bound}, not from this LP. *)

type frac = {
  x : float array array;  (** fractional assignment, [m x n] *)
  d : float array;  (** fractional job lengths [d*_j] (1 for jobs not in
                        any chain passed) *)
  value : float;  (** optimal value [t*] *)
}

val solve :
  ?top_machines:int ->
  ?solver:Solver_choice.t ->
  Instance.t ->
  chains:Suu_dag.Chains.t ->
  frac
(** [solve inst ~chains] solves the relaxation over the jobs mentioned in
    [chains] with the exact tableau simplex ({!Suu_lp.Simplex}), whatever
    [solver] says: MWU's min-load cover shape does not fit the
    chain-length rows.  [solver] only labels the [lp2.solve] trace span
    (its [solver] attribute), so callers that thread one solver through
    LP1 and LP2 report it on both.  Raises [Invalid_argument] when chains
    repeat a job or mention one out of range. *)

val problem_for_testing :
  ?top_machines:int ->
  Instance.t ->
  chains:Suu_dag.Chains.t ->
  Suu_lp.Problem.t
(** The problem {!solve} hands to its exact backend, with the same
    arguments and the same validation; for checking solvers against each
    other at LP2 scale. *)

val round : Instance.t -> frac -> Assignment.t
(** [round inst frac] applies the Lemma-6 rounding: the Lemma-2 network
    with the job→machine edge capacity lowered to [ceil(6 d*_j)].  Every
    covered job gets clipped log mass >= 1 and every machine load is
    at most [ceil(6 t_star)]. *)
