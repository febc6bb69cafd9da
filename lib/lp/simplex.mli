(** Two-phase primal simplex on a full tableau.

    Solves the minimization problems built with {!Problem}.  Uses Dantzig
    pricing with an automatic switch to Bland's rule to guarantee
    termination under degeneracy, and a full-tableau implementation: one
    row per constraint, one column per variable, slack, surplus and
    artificial.  (LP1) has [n + m] rows; (LP2) has [n + m + z + |pairs| + n]
    (coverage, load, one per chain, [x <= d] per allowed job–machine pair,
    [d >= 1]), which at [n = 256, m = 16] is 4,656 rows by ~9.5k columns.

    The tableau's memory follows its nonzeros: a row is stored sparse
    until it would hold more than an eighth of the columns as nonzeros,
    and dense from then on.  A sparse row keeps only its nonzeros, and
    all sparse rows share one file that is compacted in place, so their
    storage follows the nonzeros live at once; a column index lists the
    sparse rows of each column.  A
    dense row stores only the [cols - rows] nonbasic columns: a basic
    column is 1.0 in its own row and 0.0 in the others, and none of its
    entries changes while it stays basic.  A
    pivot costs one pass over the entering column's entries (ratio
    test), one over the pivot row, and an update of only the rows with a
    nonzero in the entering column at only the pivot row's nonzero
    columns.  The dense rows among them are updated four to a pass over
    the pivot row's nonzeros, which loads each column once for four rows;
    rows are independent, so grouping them changes no entry's
    arithmetic.  Every entry it updates sees the same floating-point
    operations, in the same order, as a sweep of the whole dense
    tableau; the skipped updates would subtract [f *. 0.0], which can at
    most flip the sign of a zero.  So the pivot sequence, the optimum,
    [x] and the duals are those of the full sweep.

    Dense rows, the sparse rows' file and the column index live outside
    the OCaml heap, and each solve frees its tableau's before it returns
    or raises, so a solve holds no memory after it and a run of large
    solves peaks at one tableau.  The counters [lp.dense_rows.allocated]
    and [lp.dense_rows.released] count the dense rows made and freed.

    All comparisons use an absolute tolerance of [1e-9]; callers should
    treat returned values as accurate to roughly [1e-7] relative. *)

type result =
  | Optimal of { objective : float; x : float array }
      (** An optimal vertex: [x.(v)] is the value of variable [v]. *)
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget was exhausted (pathological inputs only). *)

val solve : ?max_iters:int -> Problem.t -> result
(** [solve p] optimizes [p].  [max_iters] defaults to
    [max 100_000 (50 * (rows + cols))]. *)

val solve_exn : ?max_iters:int -> Problem.t -> float * float array
(** Like {!solve} but raises [Failure] unless the result is [Optimal];
    returns [(objective, x)]. *)

type detailed = { objective : float; x : float array; duals : float array }
(** An optimal solution together with its dual values, one per constraint
    (in insertion order).  Sign convention: the Lagrangian is
    [c.x - sum_r duals_r (row_r - rhs_r)], so at optimality
    [objective = sum_r duals_r * rhs_r] (strong duality) and the reduced
    cost [c_j - sum_r duals_r a_rj] of every variable is nonnegative. *)

val solve_detailed : ?max_iters:int -> Problem.t -> detailed option
(** [solve_detailed p] is the optimal primal and dual solution, or [None]
    when [p] is infeasible, unbounded, or hit the pivot budget. *)
