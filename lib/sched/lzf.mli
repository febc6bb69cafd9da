(** Largest-Z-ratio-First: an online, LP-free greedy.

    Agnetis and Lidbetter prove that scheduling unreliable jobs in
    nonincreasing order of the Z-ratio — success odds
    [Z_j = (1 - q_j) / q_j] — is 0.8531-approximate on parallel
    machines (PAPERS.md, arXiv:1910.05702).  This adapts the rule to
    SUU's machine-dependent hazards: [Z_j] is computed from job [j]'s
    {e best} machine, eligible jobs are ranked by [Z] descending once
    at construction, and each step hands out machines by repeated
    passes over the ranked eligible jobs, each job taking its best
    still-free machine (highest [l_ij > 0], ties to the lowest machine
    index).  A job with [q = 0] somewhere has infinite [Z] and sorts
    first.

    Every tie-break is by index, the ranking is precomputed, and the
    stepper draws nothing from its rng — replays are byte-identical by
    construction.  The eligible jobs are kept in Z order in a
    {!Suu_core.Ready} set, updated from the previous row, and each pass
    stops once no machine is free: a step costs O(m + completions) to
    update the set plus the jobs the passes visit, at most [m] passes
    over it.  The row depends on the ready set alone, so a step after
    one with no completion returns the previous row and costs only the
    O(m) update.  It allocates nothing; no LP, no plan cache. *)

val policy : Suu_core.Instance.t -> Suu_core.Policy.t
(** The LZF policy, named ["lzf"].  Applicable to every dag shape:
    precedence constraints only gate eligibility. *)
