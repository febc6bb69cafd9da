(** Incremental ready sets for the LP-free steppers.

    A ready set holds one execution's eligible remaining jobs, sorted by
    a fixed key: a policy's own ranking of the jobs.  The first
    {!sync} of an execution fills it by one O(n) scan.  Every later
    [sync] updates it from the stepper's previous row, relying on the
    engine guarantee stated at {!Policy.stepper}: only a job that row
    ran can have left [remaining], and only that job's successors can
    have become eligible.  A [sync] therefore costs O(m) for the row,
    plus, per completion and per promoted successor, a binary search
    and one shift of the sorted array.  It allocates nothing, and
    tells the stepper whether the set changed. *)

type order
(** A ranking of an instance's jobs with the dag's successor lists:
    immutable, shared by every execution of one policy. *)

val order : Suu_dag.Dag.t -> int array -> order
(** [order g ranked] ranks [g]'s jobs as listed: [ranked.(r)] is the
    job of rank [r], and [ranked] must be a permutation of
    [0 .. size g - 1].  The result keeps [ranked]: do not modify it
    afterwards. *)

val index_order : Suu_dag.Dag.t -> order
(** [index_order g] ranks jobs by index. *)

type t

val create : order -> t
(** [create o] is an empty ready set for one execution; its first
    {!sync} fills it. *)

val sync :
  t -> prev:int array -> remaining:bool array -> eligible:bool array -> bool
(** [sync t ~prev ~remaining ~eligible] brings [t] up to the engine's
    state at the start of a step and tells whether the set changed.
    [prev] is the row the stepper returned at the previous step
    (ignored at the first [sync], which always reports a change).

    A later [sync] reports a change exactly when a ready job of [prev]
    left [remaining].  Otherwise, by the guarantee of
    {!Policy.stepper}, no job left [remaining] since the previous step
    and none became eligible: [remaining], [eligible] and the set are
    as they were.  A stepper whose row is a function of its ready set
    alone may then return its previous row unchanged. *)

val size : t -> int
(** Number of ready jobs. *)

val remaining : t -> int
(** Number of jobs in [remaining] at the last {!sync}, ready or not:
    [size t / remaining t] is how dense the ready jobs are among
    them. *)

val jobs : t -> int array
(** The ready jobs in rank order: entries [0 .. size t - 1] of the
    returned array.  The array is owned by [t] and stays the same
    physical array for [t]'s lifetime, so a stepper may hold it; its
    contents change at each {!sync}.  Treat as read-only. *)
