(** Request execution, independent of sockets and threads.

    One service value is shared by every worker: it owns the
    instance-level cache that makes the daemon worth running — parsed
    instances are keyed by their canonical digest
    ({!Suu_core.Instance_io.digest}),
    and each cached instance lazily materializes the policies requested
    against it, so repeated [plan]/[simulate] requests reuse the policy
    values and (for the SUU-I family) the LP plans memoized inside their
    {!Suu_core.Plan_cache}.  Each cached instance also keeps its
    [lower_bound] reply once computed: the bound depends only on the
    instance and the service's fixed solver, so later requests for it
    solve no LP and get the same bytes.  The cache is bounded with FIFO
    eviction, like the plan caches underneath it.

    Deadlines are enforced cooperatively: the deadline is checked
    before each phase of work, between replication batches of
    [simulate], and every 4096 engine steps of [plan], so an expired
    request returns a structured [timeout] error within a bounded
    amount of extra work rather than occupying a worker forever.
    Deadlines are absolute {e monotonic} instants ({!Suu_obs.Clock},
    nanoseconds), not wall-clock times: a wall-clock step (NTP, DST)
    must neither expire every queued request at once nor make one
    immortal.

    Determinism over the wire: for a fixed request body, the ok
    response is byte-identical across calls, worker interleavings and
    simulation-pool sizes — [simulate] runs each batch through
    {!Suu_sim.Runner.run_range} on {!Suu_sim.Runner.rep_rngs}
    replication seeding (replication [k] depends only on [(seed, k)]),
    and floats are rendered with [%.17g]. *)

type t

val create :
  ?instance_cache_capacity:int ->
  ?sim_jobs:int ->
  ?solver:Suu_core.Solver_choice.t ->
  ?extra_stats:(unit -> (string * string) list) ->
  ?clock_ns:(unit -> int64) ->
  metrics:Metrics.t ->
  unit ->
  t
(** [instance_cache_capacity] bounds the digest-keyed instance cache
    (default 64; [Invalid_argument] when < 1).  [sim_jobs] fixes the
    domain count used for [simulate] fan-out (default: the
    {!Suu_sim.Parallel} default, i.e. [SUU_JOBS] or the core count).
    It is resolved here, once: [Invalid_argument] when [sim_jobs] is
    below 1, or when it is absent and [SUU_JOBS] is malformed, so a
    misconfigured server fails at start-up rather than on each
    [simulate].
    [solver] selects the LP backend every policy this service builds
    will use (default: the library default,
    {!Suu_core.Solver_choice.default}; servers pass their resolved
    choice — see the [solver] field of {!Server.config}).  It
    participates in plan identity,
    so services configured differently never share cached plans.
    [extra_stats] is appended to [stats] replies (the server adds queue
    depth and worker count).  [clock_ns] is the monotonic clock used
    for deadline checks (default {!Suu_obs.Clock.now_ns}; injectable so
    tests can freeze or advance it).  [metrics] is rendered into
    [stats] replies. *)

val warm : t -> Protocol.body -> bool
(** Pre-populate the caches from one recovered request body without
    executing it: the instance enters the digest-keyed cache and, for
    [plan]/[simulate] bodies, the named policy is materialized against
    the cached instance.  Returns [true] when the body contributed to a
    cache ([false] only for [stats]).  Building a policy never consults
    its plan cache, so warm-starting cannot double-count the
    {!Suu_core.Plan_cache} hit/miss statistics — the
    [store.warm_start.loaded] counter records warm-start work
    instead. *)

val handle :
  t ->
  ?deadline:int64 ->
  Protocol.body ->
  ((string * string) list, Protocol.error_code * string) result
(** Execute one request body.  [deadline] is an absolute monotonic
    instant in nanoseconds on the service's [clock_ns] (by default
    {!Suu_obs.Clock.now_ns}).  [Ok fields] become the ok-response
    fields; [Error (code, message)] becomes a structured error reply
    ([Timeout] when the deadline expired, [Bad_request] for unknown or
    inapplicable policies and model violations).  Exceptions do not
    escape except through [Error]. *)
