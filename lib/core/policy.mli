(** Scheduling policies: the interface between the paper's algorithms and
    the simulator.

    A policy is the paper's schedule [Sigma]: a (possibly adaptive) rule
    that, given what has happened so far, assigns machines to jobs for the
    next unit step.  The simulator drives a fresh {!stepper} per
    execution; the stepper sees only the sets of remaining and eligible
    jobs — never the hidden SUU* thresholds — exactly like the paper's
    history-based schedules. *)

type stepper = time:int -> remaining:bool array -> eligible:bool array -> int array
(** [step ~time ~remaining ~eligible] returns the machine → job assignment
    for step [time] (0-based): entry [i] is the job run by machine [i], or
    [-1] to idle.  Assigning a completed job is allowed (the machine
    idles, as in the paper); assigning an ineligible, uncompleted job is a
    policy bug and rejected by the engine.  The returned array is read
    immediately, never written and never retained, so policies may
    reuse a buffer and return it unchanged.
    [remaining] and [eligible] are owned by the engine: treat as
    read-only.  Within one execution a job never returns to
    [remaining] once it has left, so steppers may keep cursors over it
    that only move forward.

    The engine also guarantees, within one execution, that between two
    calls a job leaves [remaining] only if the row the stepper returned
    at the earlier call assigned it to some machine; jobs with zero
    thresholds have already left before the first call.  [eligible]
    gains only successors of jobs that left, and a job is [eligible]
    only while it is [remaining].  Steppers may therefore update what
    they know from their own previous row ({!Ready} does) instead of
    rescanning all [n] jobs.  In particular, when no job of that row
    left [remaining], [remaining] and [eligible] are exactly as at the
    earlier call, and a stepper whose row depends on nothing else may
    return that row again. *)

type t

val make : name:string -> fresh:(Suu_prng.Rng.t -> stepper) -> t
(** [make ~name ~fresh] wraps a policy.  [fresh rng] must return the
    stepper for one independent execution; [rng] is the execution's
    private randomness (for random delays etc.). *)

val name : t -> string

val fresh : t -> Suu_prng.Rng.t -> stepper
(** Start a new execution. *)
