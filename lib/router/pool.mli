(** Bounded per-shard pool of {!Suu_server.Client} connections.

    Connections inherit the pool's retry/timeout/backoff policy (each
    with a distinct jitter seed).  The contract with {!with_client} is
    the one that keeps proxied streams sane: a connection is returned
    to the pool only when the call succeeded; any exception destroys it,
    because the stream may hold a stale partial response. *)

type t

val create :
  ?capacity:int ->
  ?retries:int ->
  ?timeout_ms:int ->
  ?backoff_ms:int ->
  ?retry_seed:int ->
  host:string ->
  port:int ->
  unit ->
  t
(** A pool dialing [host:port].  [capacity] (default 8) bounds the
    number of {e idle} connections kept; checkouts beyond it dial fresh
    sockets.  No connection is made until first use. *)

val with_client : t -> (Suu_server.Client.t -> 'a) -> 'a
(** Run [f] with a pooled (or freshly dialed) connection.  On normal
    return the connection goes back to the pool (or is closed when the
    pool is full); on exception it is destroyed and the exception
    re-raised. *)

val clear : t -> unit
(** Close every idle connection — called when the shard is marked down
    so a marked-up shard starts from fresh sockets. *)
