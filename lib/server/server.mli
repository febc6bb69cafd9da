(** The TCP front end of both daemons — a single-threaded event loop in
    front of a worker pool.  [suu serve] runs it over {!Service.handle}
    ({!start}); [suu router] runs it over its shard-forwarding handler
    ({!serve}), so both get the same pipelining, admission,
    backpressure, spans and drain.

    One loop thread owns every socket through a {!Reactor} (epoll on
    Linux, [select] elsewhere): it accepts connections, reads frames
    into per-connection incremental parse buffers, admits completed
    requests to a {e bounded} queue, and writes every reply.  Requests
    pipeline naturally — the loop keeps parsing while earlier requests
    execute, and replies flush as they complete (clients match
    responses by id).  A full queue refuses the offer and the loop
    immediately writes a structured [overloaded] error — backpressure
    instead of unbounded buffering.
    Workers run the handler (for [suu serve], simulation replications
    fan out over the {!Suu_sim.Parallel} domain pool) and hand the
    serialized reply back to the loop over a wakeup pipe; only the loop
    touches sockets, so no write locks exist.  A peer that stops reading its replies has
    its read interest shed once [outbuf_limit] is exceeded
    ([server.reader.paused]); partial writes park the remainder and
    resume when the socket drains ([server.writer.resumed]).

    Every request carries an absolute deadline — its own [deadline-ms]
    or the server default — checked when the request is dequeued and
    cooperatively during execution, so expired work is answered with a
    [timeout] error instead of holding a worker.  Deadlines live on the
    monotonic clock ({!Suu_obs.Clock}), so a wall-clock step cannot
    expire the whole queue or make a request immortal; wall time is
    used only for the [stats] uptime.

    Faults: a {!Faults} config (the [faults] field, or the [SUU_FAULTS]
    environment variable when the field is [None]) perturbs worker
    replies — drops, delays, spurious [Internal] errors, mid-frame
    connection kills — and injects handler crashes.  A worker crash
    (injected or real) is isolated: the client gets an [Internal]
    error, [server.worker.restarts] is incremented, and the worker
    keeps serving.  With no faults configured the reply path pays one
    option match.

    A malformed frame gets a located [parse] error reply and the parser
    resynchronizes to the next [done]; the connection survives.

    {!stop} is the graceful drain: stop accepting, refuse new offers
    (admissions answer [overloaded] while draining), let the workers
    finish every admitted request, flush every owed reply, then close
    the remaining connections.  {!run} wires SIGINT/SIGTERM to exactly
    that. *)

type t

type config = {
  host : string;  (** bind address (default 127.0.0.1) *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  workers : int;  (** worker-pool size (default 4) *)
  queue_capacity : int;  (** bounded-queue capacity (default 64) *)
  default_deadline_ms : int;
      (** deadline for requests that carry none (default 30_000) *)
  sim_jobs : int option;
      (** domain count for simulate fan-out (default: the
          {!Suu_sim.Parallel} default).  A count below 1, or a malformed
          [SUU_JOBS] when [None], fails {!start}. *)
  solver : Suu_core.Solver_choice.t option;
      (** LP backend for every policy this server builds.  [None] (the
          default) consults the [SUU_SOLVER] environment variable
          ([simplex], [mwu], [mwu-EPS]) and falls back to
          {!Suu_core.Solver_choice.serve_default} — certified MWU with
          automatic simplex fallback for tiny instances and failed
          certificates.  A malformed [SUU_SOLVER] fails {!start}. *)
  faults : Faults.config option;
      (** fault-injection config.  [None] (the default) consults the
          [SUU_FAULTS] environment variable; [Some Faults.none]
          forces injection off regardless of the environment. *)
  journal : string option;
      (** write-ahead request journal path.  [None] (the default)
          consults the [SUU_JOURNAL] environment variable; [Some ""]
          forces journaling off regardless of the environment.  When
          armed: every parsed request frame is durably journaled {e
          before} it is offered to the queue, every response is
          journaled before it is written to the socket, and on startup
          the recovered journal warm-starts the instance/policy caches
          ({!Service.warm}).  Recovery truncates a torn tail left by a
          [kill -9].  See {!Replay} for re-execution. *)
  clock_ns : unit -> int64;
      (** monotonic clock for deadline arithmetic and the [stats]
          reply's [uptime_ms] (default {!Suu_obs.Clock.now_ns};
          injectable for tests) *)
  so_sndbuf : int option;
      (** send-buffer size forced onto accepted sockets ([None], the
          default, keeps the OS value).  A tiny value makes the kernel
          exert backpressure after a few KB — the short-write test
          hook. *)
  outbuf_limit : int;
      (** per-connection cap on buffered unsent reply bytes (default
          8 MiB).  Above it the loop stops {e reading} that connection
          — no new admissions — until the backlog halves; memory stays
          bounded against a peer that pipelines but never reads. *)
}

val default_config : config

type handler = deadline:int64 -> Protocol.request -> Protocol.response
(** Answers one admitted request on a worker thread.  [deadline] is the
    request's absolute instant on the config's [clock_ns].  The reply
    carries the request's id; an escaping exception becomes an
    [Internal] error reply. *)

val serve :
  config ->
  metrics:Metrics.t ->
  warm:(Protocol.body -> bool) ->
  (t -> handler) ->
  t
(** [serve config ~metrics ~warm make_handler] binds, listens and spins
    up the loop and a pool of [workers] threads running
    [make_handler t], built once the server value [t] exists and before
    any request is read.  Every reply and refusal is counted in
    [metrics].  [warm] sees each request body recovered from an armed
    journal before the workers start.  Reads [SUU_FAULTS] and
    [SUU_JOURNAL] only where [faults] and [journal] are [None], and
    never [solver] or [sim_jobs].  Raises [Unix.Unix_error] when the
    address is unavailable and [Invalid_argument], before binding, when
    [SUU_FAULTS] is read but malformed. *)

val start : ?config:config -> unit -> t
(** {!serve} over a fresh {!Service}: its {!Service.handle} answers,
    its {!Service.warm} takes the journal, and its [stats] replies add
    the queue, worker, connection and uptime figures.  Raises
    [Unix.Unix_error] when the address is unavailable and
    [Invalid_argument], before binding, when [SUU_FAULTS],
    [SUU_SOLVER] or [SUU_JOBS] is set but malformed or [sim_jobs] is
    below 1. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful drain-then-stop; blocks until every admitted request has
    been answered and every thread has exited.  Idempotent. *)

val run : ?config:config -> unit -> unit
(** {!start}, print one [listening on HOST:PORT] line, then block until
    SIGINT or SIGTERM and {!stop}. *)
