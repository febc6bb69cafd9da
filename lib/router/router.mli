(** The suu-router coordinator: digest-affinity sharding over N
    [suu-serve] processes, speaking the v1 wire protocol unchanged.

    Each request's instance digest (the same MD5 the service keys its
    caches by) is rendezvous-hashed onto the shard ring; the owning
    shard therefore sees every request for that instance, keeping its
    plan cache, instance cache, journal and result store hot for its
    slice of the keyspace.  Responses are re-serialized through the
    canonical protocol printer, so a routed reply is byte-identical to
    an unrouted server's.  [stats] fans out to all live shards and
    returns a merged view ({!Stats_merge}) plus a per-shard breakdown.

    Client connections are served by {!Suu_server.Server.serve} — the
    event loop and worker pool of [suu serve] — with the router's
    handler in place of {!Suu_server.Service.handle}.  The loop runs
    [pool_capacity × shards] workers, so each holds at most one pooled
    shard client, and [Server.default_config]'s queue: requests
    pipeline, a full queue answers [overloaded], and {!stop} drains.
    Fault injection and the journal are forced off in the router
    process; [SUU_FAULTS] and [SUU_JOURNAL] arm only the shards.

    Failure handling: pooled clients retry within a shard
    ({!Suu_server.Client} machinery); a shard that still fails is
    marked down immediately and the request falls over to the key's
    next-ranked live shard ([router.failover]).  A background
    {!Health} thread probes every shard, marks crashed ones down,
    respawns spawned shards on their original port (their journal
    gives a warm restart), and marks them up when they answer again. *)

type shard_spec = {
  id : string;  (** ring identity — stable across respawns *)
  host : string;
  port : int;
  child : Spawn.child option;
      (** the process, when the router spawned it (enables death
          detection + respawn) *)
  respawn : (unit -> Spawn.child) option;
      (** how to restart it on the {e same} port/journal *)
}

type config = {
  host : string;
  port : int;  (** 0 = ephemeral *)
  retries : int;  (** per forwarded call, within one shard *)
  timeout_ms : int;  (** per-attempt shard response timeout *)
  backoff_ms : int;
  pool_capacity : int;
      (** idle connections kept per shard; the server loop runs this
          many workers per shard *)
  health_interval_ms : int;
  fail_threshold : int;  (** consecutive probe failures before DOWN *)
  probe_timeout_ms : int;
}

val default_config : config

type t

val start : ?config:config -> shards:shard_spec list -> unit -> t
(** Bind, start the server loop with its workers, then the health
    thread.  Raises [Invalid_argument] on an empty shard list and
    [Unix.Unix_error] when the bind fails. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful, in this order: stop health checks; drain the server loop
    (stop accepting, answer every admitted request through the shards,
    flush the replies); then close the pooled shard clients and SIGTERM
    spawned shards.  Idempotent. *)

val run : ?config:config -> shards:shard_spec list -> unit -> unit
(** [start], print the [suu-router listening on HOST:PORT (shards=N)]
    readiness line, then block until SIGINT/SIGTERM and [stop]. *)

val check_health : t -> unit
(** One synchronous probe round — lets tests and the chaos bench
    observe mark-down/mark-up without racing the probe timer. *)

val live_shards : t -> string list
