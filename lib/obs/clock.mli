(** Monotonic time source for all span and phase measurements.

    Wall-clock time ([Unix.gettimeofday]) can step backwards under NTP;
    a span timed across such a step would report a negative or wildly
    wrong duration.  Everything in [Suu_obs] therefore timestamps with
    [CLOCK_MONOTONIC], whose epoch is arbitrary but whose differences
    are real elapsed time. *)

val now_ns : unit -> int64
(** Nanoseconds on the process monotonic clock (arbitrary epoch). *)

val ns_to_s : int64 -> float
(** Convert a nanosecond count (typically a difference of two
    {!now_ns} reads) to seconds. *)
