(** Memoized round plans for within-round-oblivious policies.

    The per-round plan pipeline — solve (LP1) on the survivors with
    target [L_k = 2^(k-2)], round by Lemma 2, serialize into an
    oblivious schedule — depends only on
    [(instance, solver, round, survivor set)], never on the trace or on
    which policy value asked.  Plans therefore live in one
    {e process-global} sharded store keyed by content: replications of
    one policy share plans with each other, with every other policy
    value built against an equal instance (the server rebuilds policies
    whenever its instance cache evicts), and with {!Suu_i_obl}'s
    one-plan policies via {!shared_plan}.

    A {!t} is a lightweight handle onto the store: it pins the
    instance/solver half of the key.  Traffic is counted per shard of
    the global store ({!shard_stats}) and process-wide
    ({!global_stats}), both in the obs registry, as
    [plan_cache.shardN.{hits,misses,evictions}] and
    [plan_cache.{hits,misses,evictions}].

    Thread-safe: a mutex per shard, so policy values may be driven from
    many domains (the parallel {!Suu_sim.Runner}).  The solve for a
    missing key runs under its shard's lock — concurrent replications
    want the same plans, so serializing the solve lets the other
    domains reuse the result instead of re-deriving it.

    Each shard is bounded; when an insertion would overflow, the
    {e least-recently-used} half of the shard is dropped.  Every lookup
    (hit or miss) re-stamps its entry on the shard's logical clock, so
    hot keys — round-1 plans recur on every replication — survive
    arbitrary churn from trace-dependent survivor sets, where the old
    insertion-order clear-half evicted exactly the hottest entries.

    The store holds plans only: every miss solves its (LP1) from
    scratch with the handle's solver. *)

type t

type stats = { hits : int; misses : int; evictions : int }
(** Monotone counters: lookups served from the table, lookups that
    solved, and entries removed by eviction. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], or [0.] before any lookup. *)

val create : ?solver:Solver_choice.t -> ?max_entries:int -> Instance.t -> t
(** A handle for [inst] onto the process-global store.  With
    [max_entries] the handle instead owns a {e private} single-shard
    store bounded to that many entries (raises [Invalid_argument] when
    not positive) — for tests that exercise eviction, and for callers
    that must not share state across policy values. *)

val plan : t -> round:int -> survivors:int array -> Oblivious.t
(** [plan t ~round ~survivors] is the round-[round] oblivious plan for
    the (ascending) survivor set, computed on first use and cached.
    Cached hits return the same physical plan (plans are immutable) —
    including hits on entries another handle inserted.  Raises
    [Invalid_argument] on an empty survivor set. *)

val shared_plan :
  ?solver:Solver_choice.t -> Instance.t -> round:int ->
  survivors:int array -> Oblivious.t
(** Like {!plan} through a throwaway handle on the global store, but
    {e uncounted}: neither hit/miss statistics nor the obs registry
    move.  For policy construction ({!Suu_i_obl} builds its single plan
    eagerly), which must share plans without perturbing the statistics
    a server's [stats] endpoint reports — warm-starting a server boots
    policies without inflating its hit rate (see {!Service.warm}). *)

val fresh_plan :
  ?solver:Solver_choice.t -> Instance.t -> round:int ->
  survivors:int array -> Oblivious.t
(** The uncached pipeline: what {!plan} computes on a miss.  Exposed so
    tests can check cached plans against freshly solved ones. *)

val size : t -> int
(** Current number of cached plans in [t]'s store (for a global handle:
    the whole process-wide store). *)

val global_stats : unit -> stats
(** Counters aggregated over every handle and store (private ones
    included) since process start — what a resident server reports. *)

val shard_stats : unit -> stats array
(** Per-shard traffic of the process-global store: the
    [plan_cache.shardN.*] registry counters, index-aligned.  Private
    stores are not included. *)

val note_bypass : unit -> unit
(** Record one request served by an LP-free policy that never consulted
    the store ([plan_cache.bypass] in the obs registry).  Bypasses are
    deliberately {e not} part of {!global_stats}: they must not dilute the
    hit rate the serve gate floors at 0.8. *)

val bypasses : unit -> int
(** Process-wide bypass count since start. *)
