(** Store-backed memoization of {!Suu_sim.Runner.makespans}.

    [makespans ~store inst policy ~seed ~reps] returns exactly what
    [Runner.makespans] would — bit for bit — serving the longest
    committed prefix from the store and computing (then committing)
    only the missing replications, in durable batches (one
    {!Suu_sim.Runner.run_range} call per batch).

    Why the prefix semantics compose with determinism: replication
    [k]'s generators depend only on [(seed, k)] (see
    {!Suu_sim.Runner.rep_rngs}), so results committed by a previous — possibly
    killed — run are the same values this run would compute.  A sweep
    re-run after a mid-batch [kill -9] therefore resumes after the
    last durable batch and produces output identical to an
    uninterrupted (or a cold) run.

    Counters: [store.memo.served] (replications answered from the
    store) and [store.memo.computed] (replications executed and
    committed). *)

val makespans :
  store:Result_store.t ->
  ?cap:int ->
  ?jobs:int ->
  ?batch:int ->
  ?policy_name:string ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  seed:int ->
  reps:int ->
  float array
(** Bit-identical to [Runner.makespans ?cap ?jobs inst policy ~seed
    ~reps].  The store key is the instance's canonical-serialization
    digest, [policy_name] (default {!Suu_core.Policy.name}; override
    when one wire name covers differently-configured policies, e.g.
    alternate LP solvers), [seed] and [cap].  [batch] is the number of
    replications per durable commit (default 64).  Raises
    [Invalid_argument] on non-positive [reps] or [batch]. *)
