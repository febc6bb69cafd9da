(** Rendezvous (highest-random-weight) hashing over shard ids.

    Placement is a pure function of (shard id, key): the router, a
    restarted router, and a test all agree on where a key lives without
    any shared state.  When a shard is down, each of its keys falls to
    its own second-ranked shard (spreading the load rather than dumping
    it on one neighbour), and returns as soon as the shard is back —
    the minimal-remapping property the qcheck tests pin down. *)

type t

val create : string list -> t
(** Ring over the given shard ids.  Raises [Invalid_argument] on an
    empty list or duplicate ids. *)

val route : t -> live:(string -> bool) -> string -> string option
(** Highest-scoring shard among those for which [live] holds, where a
    shard's score for the key is the first 8 bytes of
    [MD5(shard ^ "\x00" ^ key)] compared unsigned; [None]
    when none are live.  Ties (an MD5 prefix collision) break by shard
    id, so routing is deterministic regardless. *)

val route_ranked : t -> string -> string list
(** All shards, best first — the failover order for the key.  [route]
    is the first live element of this list. *)
