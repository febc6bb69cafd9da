(** SUU problem instances.

    An instance is [(J, M, {q_ij}, G)]: [n] unit-step jobs, [m] machines,
    failure probability [q_ij] of job [j] on machine [i] per step, and a
    precedence dag [G].  The derived log failure is
    [l_ij = -log2 q_ij] — the "work" a step of machine [i] contributes
    toward job [j] in the SUU* view (infinite when [q_ij = 0]). *)

type t

val make : ?name:string -> dag:Suu_dag.Dag.t -> float array array -> t
(** [make ~dag q] builds an instance from the [m x n] matrix [q]
    ([q.(i).(j)] is machine [i]'s failure probability on job [j]) and the
    precedence dag on the [n] jobs.  Raises [Invalid_argument] when the
    matrix is ragged or empty, some [q_ij] is outside [0, 1], the dag size
    differs from [n], or some job has [q_ij = 1] on every machine (such a
    job can never complete). *)

val name : t -> string

val n : t -> int
(** Number of jobs. *)

val m : t -> int
(** Number of machines. *)

val dag : t -> Suu_dag.Dag.t

val q : t -> int -> int -> float
(** [q t i j] is the failure probability of job [j] on machine [i]. *)

val log_failure : t -> int -> int -> float
(** [log_failure t i j] is [l_ij = -log2 (q t i j)]; [infinity] when
    [q = 0] and [0] when [q = 1]. *)

val log_failure_rows : t -> float array array
(** [log_failure_rows t] is the [m x n] matrix of {!log_failure}:
    [(log_failure_rows t).(i).(j) = log_failure t i j].  The rows are
    owned by [t], for hot loops that would otherwise box one float per
    call: treat as read-only. *)

val clipped_log_failure : t -> target:float -> int -> int -> float
(** [clipped_log_failure t ~target i j] is [l'_ij = min l_ij target], the
    clipped coefficient used by the LP relaxations (Lemma 2). *)

val best_machine : t -> int -> int
(** [best_machine t j] is a machine minimizing [q_ij] (the fastest machine
    for [j]); ties go to the lowest index. *)

val jobs : t -> int list
(** [jobs t] is [[0; ...; n-1]]. *)
