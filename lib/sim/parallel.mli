(** Multicore execution substrate (OCaml 5 domains, stdlib only).

    A small fork/join pool: each call spawns [jobs - 1] worker domains
    (the caller's domain is the first worker), partitions the index
    space into chunks, and lets workers claim chunks from a shared
    atomic counter — dynamic scheduling, so items with wildly uneven
    costs (simulated executions) still balance.

    The worker count defaults to the [SUU_JOBS] environment variable
    when set, else [Domain.recommended_domain_count ()]; every entry
    point takes an explicit override.

    Replications are embarrassingly parallel: each runs an independent
    trace.  {!makespans} fans the per-replication work of {!Runner} out
    over domains with bit-identical results: the per-replication
    generators come from {!Runner.rep_rngs}, each replication writes
    only its own result slot, so [makespans ~domains:k] equals the
    sequential run for every [k].

    Policies are created per domain through a factory, because a policy
    value may close over scratch buffers or caches that are cheaper to
    keep unshared (each domain then owns a private plan cache). *)

val default_jobs : unit -> int
(** [SUU_JOBS] when set (raises [Invalid_argument] if it is not a
    positive integer), else [Domain.recommended_domain_count ()]. *)

val parallel_for : ?jobs:int -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n - 1)] across [jobs] domains in
    chunks of [chunk] (default: a few chunks per worker).  [f] must be
    safe to run concurrently on distinct indices.  Exceptions raised by
    a worker are re-raised at the join; whichever worker raises, every
    spawned domain is joined before the exception escapes, so no domain
    outlives the call or leaks unjoined. *)

val makespans :
  ?cap:int ->
  ?domains:int ->
  Suu_core.Instance.t ->
  policy:(unit -> Suu_core.Policy.t) ->
  seed:int ->
  reps:int ->
  float array
(** [makespans inst ~policy ~seed ~reps] runs [reps] executions across
    [domains] domains (default: {!default_jobs}, capped at [reps]).
    [policy ()] is called once per domain.  Bit-identical to
    {!Runner.makespans} with the same seed.  Raises [Invalid_argument]
    on non-positive [reps] or [domains]. *)

val expected_makespan :
  ?cap:int ->
  ?domains:int ->
  Suu_core.Instance.t ->
  policy:(unit -> Suu_core.Policy.t) ->
  seed:int ->
  reps:int ->
  float
(** Mean of {!makespans}. *)
