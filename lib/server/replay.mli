(** Deterministic re-execution of a request journal.

    [run entries] executes each journaled request against a {e fresh}
    {!Service} — new instance cache, new policies, new plan caches —
    and compares the reconstructed response frame byte-for-byte with
    the journaled one.  Because the service's ok responses are a
    deterministic function of the request (see {!Service}), any
    captured traffic becomes a regression test: a mismatch means the
    engine, a policy, the seeding discipline or the wire rendering
    changed behaviour.

    Entries whose recorded outcome is inherently non-reproducible are
    {e skipped}, not failed:
    - a missing response record (the process died mid-execution);
    - [stats] requests (their bodies report live counters and uptime);
    - recorded [overloaded], [timeout] and [internal] errors (functions
      of load, wall time and fault injection, not of the request);
    - a request frame that no longer parses (journal-format skew).

    Everything else — ok responses and the deterministic [bad-request]
    errors — must match byte-for-byte. *)

type mismatch = {
  seq : int;  (** journal sequence number of the divergent entry *)
  expected : string;  (** the journaled response frame *)
  actual : string;  (** the frame produced by re-execution *)
}

type outcome = {
  total : int;  (** journal entries examined *)
  replayed : int;  (** entries re-executed and compared *)
  matched : int;
  mismatched : int;
  skipped : int;  (** non-reproducible entries (see above) *)
  mismatches : mismatch list;  (** ascending [seq] *)
}

val run : ?sim_jobs:int -> Suu_store.Journal.entry list -> outcome
(** Re-execute [entries] (as recovered by {!Suu_store.Journal.read})
    against a fresh service.  [sim_jobs] bounds the simulation fan-out
    (the ok responses are bit-identical for every value; this only
    controls resource use; [Invalid_argument] when below 1, as in
    {!Service.create}).  [replayed = matched + mismatched] and
    [total = replayed + skipped]. *)

val file : ?sim_jobs:int -> string -> outcome
(** [run] on the journal at a path (read-only recovery: a torn tail is
    ignored, not truncated).  Raises [Failure] if the file is not a
    record log. *)
