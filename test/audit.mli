(** Independent validation of recorded executions, used as a test
    oracle for {!Suu_sim.Engine}.

    The engine enforces the SUU model on the fly; this module re-derives
    everything from scratch — given only the instance, the trace and the
    recorded step-by-step assignments — and checks that the execution
    obeyed the model.  Because it shares no code with the engine's
    bookkeeping, it serves as a differential test of the engine itself
    (and of any external schedule fed to it). *)

type violation = {
  step : int;  (** 0-based step at which the violation occurred *)
  message : string;
}

val check :
  Suu_core.Instance.t -> trace:Suu_sim.Trace.t -> steps:int array array ->
  (unit, violation) result
(** [check inst ~trace ~steps] replays [steps] (one row per unit step,
    one machine → job entry per column, [-1] = idle) and verifies:

    - every row has exactly [m] entries and refers to valid jobs;
    - no machine is ever assigned an uncompleted job whose predecessors
      are not all complete (eligibility);
    - by the final step, every job's accrued log mass reaches its trace
      threshold (all jobs complete);
    - no job receives work after its completion threshold was reached
      {e and} counts it toward completion (assignments to completed jobs
      are legal but must do nothing).

    Returns [Ok ()] or the first violation found. *)

val completion_times :
  Suu_core.Instance.t -> trace:Suu_sim.Trace.t -> steps:int array array ->
  int array
(** [completion_times inst ~trace ~steps] is each job's completion step
    (1-based; [-1] when the job never completes within [steps]),
    recomputed solely from the recording. *)
