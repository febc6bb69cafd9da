(** Spawn a server child process and wait for its readiness line.

    The single implementation of "start on port 0, read the printed
    [listening on HOST:PORT] line, with a deadline and fast failure if
    the child dies" — shared by the router's shard lifecycle, the
    tests, and (in shell form, [scripts/wait_ready.sh]) the CI smokes. *)

type child

val pid : child -> int

val addr_of_ready_line : string -> (string * int) option
(** Parse a readiness line of the form
    ["... listening on HOST:PORT ..."]; [None] when the marker or a
    valid [host:port] is absent.  Pure — unit-testable without
    processes. *)

val spawn :
  ?extra_env:(string * string) list -> prog:string -> args:string list ->
  unit -> child
(** Fork/exec [prog args] with stdout piped to us and stderr
    inherited.  [extra_env] entries are appended to (and shadow) the
    inherited environment — per-shard [SUU_JOURNAL]/[SUU_STORE]. *)

val alive : child -> bool
(** Non-blocking liveness poll ([waitpid WNOHANG]); once a child has
    been observed dead it stays dead. *)

val wait_ready : ?timeout_s:float -> child -> (string * int, string) result
(** Scan the child's stdout for the first readiness line, returning its
    [(host, port)].  Fails with a descriptive message when the child
    exits, closes stdout, or the deadline (default 10 s) passes. *)

val drain : ?echo:(string -> unit) -> child -> Thread.t
(** Keep reading the child's stdout until EOF so it can never block on
    a full pipe; each line is passed to [echo] when given.  Call once,
    after {!wait_ready}. *)

val terminate : ?timeout_s:float -> child -> unit
(** SIGTERM, wait (default 5 s on the monotonic clock, polling from
    1 ms up to every 20 ms), escalate to SIGKILL, close the pipe. *)
