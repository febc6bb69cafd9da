(** In-process serving counters.

    One value lives in the server; every completed request (ok or
    error) is recorded with its type and outcome.  {!render} flattens
    the counts into deterministic [key value] pairs for the [stats]
    reply: request counts by type, then the outcome counters (ok /
    errors / parse_errors / bad_requests / rejects / timeouts /
    internal_errors); the caller appends the plan-cache aggregates.

    Each count is its own atomic cell, so observes from any number of
    threads or domains never contend on a lock.  One {!render} always
    shows [requests_total = ok + errors]; per-type counts sum to
    [requests_total] once no observe is in flight.  Request latency is
    not here: it is the registry's [server.request] span histogram
    ([obs.phase.server.request.*] in the same reply), next to the
    per-phase children (parse / queue wait / execute / write). *)

type t

val create : unit -> t

val observe : t -> rtype:string -> code:string option -> unit
(** Record one completed request of type [rtype] ([code = None] for an
    ok reply, [Some code] for an error reply).  Rejected-at-the-queue
    requests are recorded with [code = Some "overloaded"]. *)

val render : t -> (string * string) list
(** Deterministic key order; values are decimal integers. *)
