(** Content-addressed durable store for replication results.

    The empirical Table 1 harness is a pure function of
    [(instance digest, policy, seed, cap)] per replication — the SUU*
    reformulation makes replication [k] deterministic given its derived
    trace seed — so makespan batches can be committed once and reused
    forever.  A store is a directory holding one {!Record_log}
    ([results.log]); each record is one committed batch: a key plus
    the makespans of replications [start .. start+len-1].

    Resume semantics: {!committed} returns the longest {e contiguous}
    prefix of replications starting at 0 that has been committed for a
    key.  A sweep killed mid-batch therefore resumes exactly after the
    last batch whose append returned — the torn final append is
    truncated by log recovery — and recomputes the rest, yielding
    output bit-identical to an uninterrupted run (replication [k]'s
    seeding depends only on [(seed, k)]; see {!Suu_sim.Runner}). *)

type key = {
  digest : string;  (** hex digest of the instance's canonical serialization *)
  policy : string;  (** wire/CLI policy name *)
  seed : int;
  cap : int option;  (** engine step cap, when one was used *)
}

type stats = {
  keys : int;  (** distinct keys with at least one committed batch *)
  records : int;  (** committed batch records (recovered + appended) *)
  reps : int;  (** total committed replication results across keys *)
  file_bytes : int;  (** current size of [results.log] *)
}

type t

val open_store : ?sync:bool -> string -> t
(** Open (creating the directory and log as needed) the store rooted at
    [dir].  Recovery of a torn tail happens here, via
    {!Record_log.open_log}.  [sync] (default [true]) governs batch
    appends: [false] trades crash-durability of the last batches for
    throughput. *)

val committed : t -> key -> float array
(** The longest contiguous committed prefix of replication results for
    [key], starting at replication 0.  A fresh array; empty when the
    key is unknown. *)

val append : t -> key -> start:int -> float array -> unit
(** Commit the batch covering replications [start .. start+len-1].
    Durable on return (subject to the store's [sync]).  Overlapping or
    out-of-order batches are legal — results are deterministic per
    [(key, index)], so overlaps must agree and are simply merged. *)

val stats : t -> stats

val close : t -> unit
(** Sync and close the log.  Idempotent. *)
