(** Readiness multiplexer for the event-loop server core.

    One reactor owns every socket of a [suu-serve] daemon (listener,
    connections, wakeup pipe) and tells the single event-loop thread
    which of them are ready.  On Linux it is backed by [epoll(7)]
    (level-triggered, so a partially drained buffer simply reports
    ready again), elsewhere it falls back to {!Unix.select} — the
    backend is chosen at {!create} and reported by {!backend}.

    The reactor is deliberately dumb: it tracks (fd, read/write
    interest) registrations and surfaces readiness; buffering, parsing
    and state machines live with the caller.  It is single-owner state
    — only the event-loop thread may call into it (the C stub releases
    the runtime lock during the wait, so worker threads keep running
    while the loop sleeps). *)

type t

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
}
(** Error/hang-up conditions are folded into both flags: the caller's
    next read observes EOF or the error, its next write [EPIPE] —
    exactly the paths that already handle a vanished peer. *)

val create : unit -> t
(** Raises [Unix.Unix_error] if neither backend can be set up. *)

val backend : t -> string
(** ["epoll"] or ["select"] — surfaced in [stats] replies so an
    operator can see which ceiling (fd count, wait cost) applies. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register a new fd.  [Invalid_argument] if already registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change the interest set of a registered fd.  No-op syscall-wise if
    the interests did not change. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister; safe to call for an fd that was never added.  Must be
    called {e before} closing the fd. *)

val wait : t -> timeout_ms:int -> event list
(** Block until at least one registered fd is ready or the timeout
    elapses ([] on timeout).  [timeout_ms < 0] waits forever.  EINTR is
    retried internally. *)
