(** Multicore execution substrate (OCaml 5 domains, stdlib only).

    A small fork/join pool: each call spawns [jobs - 1] worker domains
    (the caller's domain is the first worker, so [jobs = 1] spawns
    nothing and runs the same worker inline), partitions the index
    space into chunks of a few per worker, and lets workers claim
    chunks from a shared atomic counter — dynamic scheduling, so items
    with wildly uneven costs (simulated executions) still balance.

    The worker count defaults to the [SUU_JOBS] environment variable
    when set, else [Domain.recommended_domain_count ()]; every entry
    point takes an explicit override.  On OCaml 5.1 that count is the
    number of CPUs in the process's affinity mask, not the machine's
    core count: 2 on a 2-vCPU host, 1 under [taskset -c 1].

    Replications are embarrassingly parallel: {!Runner.run_range} fans
    them out through {!parallel_for}, sharing one policy value across
    domains, with results bit-identical at every domain count. *)

val default_jobs : unit -> int
(** [SUU_JOBS] when set (raises [Invalid_argument] if it is not a
    positive integer), else [Domain.recommended_domain_count ()], the
    CPUs this process may run on. *)

val parallel_for : ?jobs:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n - 1)] across [jobs] domains
    (default {!default_jobs}; raises [Invalid_argument] when not
    positive).  [f] must be safe to run concurrently on distinct
    indices.  Exceptions raised by a worker are re-raised at the join;
    whichever worker raises, every spawned domain is joined before the
    exception escapes, so no domain outlives the call or leaks
    unjoined. *)
