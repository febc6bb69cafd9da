module Instance = Suu_core.Instance
module Policy = Suu_core.Policy

exception Invalid_schedule of string
exception Horizon_exceeded of int

type result = {
  makespan : int;
  busy_steps : int;
  wasted_steps : int;
  idle_steps : int;
}

(* Completion uses a tolerance *relative* to the threshold: the accrued
   mass is a sum of floats of the threshold's magnitude, so its roundoff
   scales with w_j — an absolute epsilon under-completes for large w_j.
   [1.0] floors the scale so tiny thresholds keep the old behaviour.
   Thresholds are never NaN ([Trace.of_thresholds] rejects them), so a
   plain comparison gives [Float.max]'s result without the cross-module
   call that boxes a float per job per run. *)
let completion_slack w = 1e-12 *. if w > 1.0 then w else 1.0

(* Telemetry is recorded per *run*, never per step: two clock reads and a
   handful of batched counter adds bound the overhead regardless of the
   makespan.  Counters are interned on first use, so the registry entry
   only appears once a simulation actually ran in this process. *)
let c_runs = Suu_obs.Registry.memo_counter "engine.runs"
let c_steps = Suu_obs.Registry.memo_counter "engine.steps"
let c_busy = Suu_obs.Registry.memo_counter "engine.busy_steps"
let c_wasted = Suu_obs.Registry.memo_counter "engine.wasted_steps"
let c_idle = Suu_obs.Registry.memo_counter "engine.idle_steps"

let run ?(cap = 4_000_000) ?on_step inst policy ~trace ~rng =
  let obs = Suu_obs.Registry.enabled () in
  let t_start = if obs then Suu_obs.Clock.now_ns () else 0L in
  let n = Instance.n inst in
  let m = Instance.m inst in
  if Trace.n trace <> n then invalid_arg "Engine.run: trace size mismatch";
  let g = Instance.dag inst in
  let remaining = Array.make n true in
  let mass = Array.make n 0.0 in
  let completed = Array.make n false in
  (* The thresholds and the rows of l are read in place: copying them
     through closures, or calling [Instance.log_failure] per busy
     machine, boxed one float per element. *)
  let w = Trace.thresholds trace in
  let ell = Instance.log_failure_rows inst in
  let w_lo = Array.make n 0.0 in
  for j = 0 to n - 1 do
    w_lo.(j) <- w.(j) -. completion_slack w.(j)
  done;
  let left = ref n in
  (* Zero thresholds (r_j = 1) complete with no work at all. *)
  for j = 0 to n - 1 do
    if w.(j) <= 0.0 then begin
      remaining.(j) <- false;
      completed.(j) <- true;
      decr left
    end
  done;
  (* Incremental eligibility: count each job's uncompleted predecessors
     once; decrement on completion and promote at zero.  No O(n) rescans
     after this point. *)
  let pred_off, pred_tgt = Suu_dag.Dag.pred_csr g in
  let succ_off, succ_tgt = Suu_dag.Dag.succ_csr g in
  let npred = Array.make n 0 in
  let eligible = Array.make n false in
  for j = 0 to n - 1 do
    let c = ref 0 in
    for k = pred_off.(j) to pred_off.(j + 1) - 1 do
      if not completed.(pred_tgt.(k)) then incr c
    done;
    npred.(j) <- !c;
    eligible.(j) <- remaining.(j) && !c = 0
  done;
  let complete j =
    remaining.(j) <- false;
    completed.(j) <- true;
    eligible.(j) <- false;
    decr left;
    for k = succ_off.(j) to succ_off.(j + 1) - 1 do
      let s = succ_tgt.(k) in
      npred.(s) <- npred.(s) - 1;
      if npred.(s) = 0 && remaining.(s) then eligible.(s) <- true
    done
  in
  let stepper = Policy.fresh policy (Suu_prng.Rng.split rng) in
  let busy = ref 0 and wasted = ref 0 and idle = ref 0 in
  let time = ref 0 in
  (* Scratch for jobs that gained mass this step: at most one push per
     machine, reused across steps (no per-step list cells). *)
  let touched = Array.make (max m 1) 0 in
  let t_init = if obs then Suu_obs.Clock.now_ns () else 0L in
  while !left > 0 do
    if !time >= cap then raise (Horizon_exceeded cap);
    let a = stepper ~time:!time ~remaining ~eligible in
    (match on_step with
    | Some f -> f ~time:!time ~assignment:a
    | None -> ());
    if Array.length a <> m then
      raise
        (Invalid_schedule
           (Printf.sprintf "%s: assignment has %d entries for %d machines"
              (Policy.name policy) (Array.length a) m));
    let ntouched = ref 0 in
    for i = 0 to m - 1 do
      let j = a.(i) in
      if j = -1 then incr idle
      else if j < 0 || j >= n then
        raise
          (Invalid_schedule
             (Printf.sprintf "%s: machine %d assigned to bad job %d"
                (Policy.name policy) i j))
      else if not remaining.(j) then incr wasted
      else if not eligible.(j) then
        raise
          (Invalid_schedule
             (Printf.sprintf
                "%s: machine %d assigned to ineligible job %d at step %d"
                (Policy.name policy) i j !time))
      else begin
        incr busy;
        if mass.(j) < w.(j) then begin
          mass.(j) <- mass.(j) +. ell.(i).(j);
          touched.(!ntouched) <- j;
          incr ntouched
        end
      end
    done;
    (* Completions take effect at the end of the unit step. *)
    for k = 0 to !ntouched - 1 do
      let j = touched.(k) in
      if remaining.(j) && mass.(j) >= w_lo.(j) then complete j
    done;
    incr time
  done;
  if obs then begin
    let t_done = Suu_obs.Clock.now_ns () in
    Suu_obs.Span.record ~name:"engine.init" ~start_ns:t_start ~stop_ns:t_init
      ();
    Suu_obs.Span.record ~name:"engine.exec" ~start_ns:t_init ~stop_ns:t_done
      ();
    Suu_obs.Counter.incr (c_runs ());
    Suu_obs.Counter.add (c_steps ()) !time;
    Suu_obs.Counter.add (c_busy ()) !busy;
    Suu_obs.Counter.add (c_wasted ()) !wasted;
    Suu_obs.Counter.add (c_idle ()) !idle
  end;
  { makespan = !time; busy_steps = !busy; wasted_steps = !wasted;
    idle_steps = !idle }

let makespan ?cap inst policy ~trace ~rng =
  (run ?cap inst policy ~trace ~rng).makespan

let run_recorded ?cap inst policy ~trace ~rng =
  let rows = ref [] in
  let on_step ~time:_ ~assignment = rows := Array.copy assignment :: !rows in
  let result = run ?cap ~on_step inst policy ~trace ~rng in
  (result, Array.of_list (List.rev !rows))
