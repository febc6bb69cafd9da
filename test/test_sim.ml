(* Tests for the SUU* simulator: traces, the strict engine, and the
   statistical equivalence of the SUU* reformulation (paper Theorem 10). *)

module Dag = Suu_dag.Dag
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Trace = Suu_sim.Trace
module Engine = Suu_sim.Engine
module Runner = Suu_sim.Runner
module Rng = Suu_prng.Rng

let checkf4 = Alcotest.(check (float 1e-4))

let single_machine_inst q n =
  Instance.make ~dag:(Dag.empty n) [| Array.make n q |]

(* A policy assigning machine 0 to the lowest remaining job. *)
let work_first inst =
  let m = Instance.m inst in
  Policy.make ~name:"work-first" ~fresh:(fun _rng ->
      fun ~time:_ ~remaining ~eligible ->
        let buf = Array.make m (-1) in
        (try
           Array.iteri
             (fun j r ->
               if r && eligible.(j) then begin
                 for i = 0 to m - 1 do
                   buf.(i) <- j
                 done;
                 raise Exit
               end)
             remaining
         with Exit -> ());
        buf)

(* --- traces --- *)

let test_trace_draw_positive () =
  let rng = Rng.create ~seed:1 in
  let t = Trace.draw ~n:100 rng in
  Alcotest.(check int) "size" 100 (Trace.n t);
  for j = 0 to 99 do
    Alcotest.(check bool) "positive" true (Trace.threshold t j > 0.0)
  done

let test_trace_mean () =
  (* w = -log2 r with r uniform: E[w] = 1/ln 2 ~ 1.4427. *)
  let rng = Rng.create ~seed:2 in
  let t = Trace.draw ~n:200_000 rng in
  let sum = ref 0.0 in
  for j = 0 to Trace.n t - 1 do
    sum := !sum +. Trace.threshold t j
  done;
  let mean = !sum /. 200_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 1.4427" mean)
    true
    (Float.abs (mean -. (1.0 /. log 2.0)) < 0.02)

let test_trace_of_thresholds () =
  let t = Trace.of_thresholds [| 1.0; 0.0; 2.5 |] in
  checkf4 "kept" 2.5 (Trace.threshold t 2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Trace.of_thresholds: negative threshold") (fun () ->
      ignore (Trace.of_thresholds [| -1.0 |]))

(* --- engine mechanics --- *)

let test_engine_deterministic_threshold () =
  (* threshold 2.0, l = 1 per step: completes at exactly step 2. *)
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 2.0 |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "two steps" 2 mk

let test_engine_zero_threshold () =
  (* r = 1 (w = 0): job completes with no work; engine must not hang. *)
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 0.0 |] in
  let r =
    Engine.run inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "instant" 0 r.Engine.makespan

let test_engine_counters () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  let r =
    Engine.run inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "makespan" 2 r.Engine.makespan;
  Alcotest.(check int) "busy" 2 r.Engine.busy_steps;
  Alcotest.(check int) "accounting" (1 * r.Engine.makespan)
    (r.Engine.busy_steps + r.Engine.wasted_steps + r.Engine.idle_steps)

let test_engine_stuck_policy_capped () =
  (* A policy that never schedules job 1 must hit the step cap, and its
     steps on the already-completed job 0 count as wasted. *)
  let inst = Instance.make ~dag:(Dag.empty 2) [| [| 0.5; 0.5 |] |] in
  let sticky =
    Policy.make ~name:"sticky" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0 |])
  in
  let trace = Trace.of_thresholds [| 0.5; 3.0 |] in
  Alcotest.check_raises "stuck policy" (Engine.Horizon_exceeded 50) (fun () ->
      ignore
        (Engine.run ~cap:50 inst sticky ~trace ~rng:(Rng.create ~seed:0)))

let test_engine_rejects_ineligible () =
  let inst =
    Instance.make
      ~dag:(Dag.of_edges ~n:2 [ (0, 1) ])
      [| [| 0.5; 0.5 |] |]
  in
  let bad =
    Policy.make ~name:"bad" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 1 |])
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  Alcotest.(check bool)
    "raises Invalid_schedule" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_rejects_bad_job_index () =
  let inst = single_machine_inst 0.5 1 in
  let bad =
    Policy.make ~name:"bad-index" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 7 |])
  in
  let trace = Trace.of_thresholds [| 1.0 |] in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_rejects_wrong_width () =
  let inst = single_machine_inst 0.5 1 in
  let bad =
    Policy.make ~name:"wide" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0; 0 |])
  in
  let trace = Trace.of_thresholds [| 1.0 |] in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Engine.run inst bad ~trace ~rng:(Rng.create ~seed:0));
       false
     with Engine.Invalid_schedule _ -> true)

let test_engine_precedence_progress () =
  (* Chain 0 -> 1: makespan is the sum of both geometric phases. *)
  let inst =
    Instance.make
      ~dag:(Dag.of_edges ~n:2 [ (0, 1) ])
      [| [| 0.5; 0.5 |] |]
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "sequential" 2 mk

(* Completion tolerance must scale with the threshold: 1000 unit steps
   each adding l = -log2 0.3 accumulate ~3e-11 of roundoff against the
   threshold 1000 * l — far beyond an absolute 1e-12 epsilon (which
   cost a 1001st step), within the relative one. *)
let test_engine_relative_epsilon () =
  let inst = single_machine_inst 0.3 1 in
  let l = -.(log 0.3 /. log 2.0) in
  let trace = Trace.of_thresholds [| 1000.0 *. l |] in
  let mk =
    Engine.makespan inst (work_first inst) ~trace ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "exactly 1000 steps" 1000 mk

(* --- Theorem 10: SUU* equals SUU distributionally --- *)

let test_suu_star_equivalence_single () =
  (* Single job, q = 0.5: makespan should be Geometric(1/2).
     Compare E and the full distribution coarsely. *)
  let inst = single_machine_inst 0.5 1 in
  let reps = 40_000 in
  let xs = Runner.makespans inst (work_first inst) ~seed:7 ~reps in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2" mean)
    true
    (Float.abs (mean -. 2.0) < 0.05);
  (* P(T = 1) should be ~1/2, P(T = 2) ~1/4 *)
  let count v =
    Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 xs
  in
  let p1 = float_of_int (count 1.0) /. float_of_int reps in
  let p2 = float_of_int (count 2.0) /. float_of_int reps in
  Alcotest.(check bool) "P(T=1)" true (Float.abs (p1 -. 0.5) < 0.02);
  Alcotest.(check bool) "P(T=2)" true (Float.abs (p2 -. 0.25) < 0.02)

let test_suu_star_equivalence_two_machines () =
  (* Two machines q1 = 0.5, q2 = 0.25 on one job: per-step failure
     q1 q2 = 1/8, E[T] = 8/7. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.5 |]; [| 0.25 |] |] in
  let gang =
    Policy.make ~name:"gang" ~fresh:(fun _ ->
        fun ~time:_ ~remaining:_ ~eligible:_ -> [| 0; 0 |])
  in
  let xs = Runner.makespans inst gang ~seed:11 ~reps:40_000 in
  let mean = Array.fold_left ( +. ) 0.0 xs /. 40_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 8/7" mean)
    true
    (Float.abs (mean -. (8.0 /. 7.0)) < 0.02)

(* --- recording and gantt --- *)

let test_run_recorded () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 2.0 |] in
  let result, steps =
    Engine.run_recorded inst (work_first inst) ~trace
      ~rng:(Rng.create ~seed:0)
  in
  Alcotest.(check int) "one row per step" result.Engine.makespan
    (Array.length steps);
  (* first step works job 0, later steps job 1 *)
  Alcotest.(check int) "step 0" 0 steps.(0).(0);
  Alcotest.(check int) "last step" 1 steps.(Array.length steps - 1).(0)

let test_gantt_render () =
  let steps = [| [| 0; -1 |]; [| 1; 1 |]; [| 0; -1 |] |] in
  let s = Suu_sim.Gantt.render steps in
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  Alcotest.(check int) "one line per machine" 2 (List.length lines);
  Alcotest.(check bool) "machine 0 row" true
    (String.length (List.hd lines) > 0);
  Alcotest.(check string) "empty recording" "" (Suu_sim.Gantt.render [||])

let test_gantt_sampling () =
  let steps = Array.make 1000 [| 0 |] in
  let s = Suu_sim.Gantt.render ~max_width:50 steps in
  Alcotest.(check bool) "notes the scale" true
    (String.length s < 200
    &&
    match String.index_opt s '(' with Some _ -> true | None -> false)

let test_gantt_utilization () =
  let steps = [| [| 0; -1 |]; [| 1; -1 |]; [| -1; -1 |]; [| 0; 2 |] |] in
  let u = Suu_sim.Gantt.utilization steps in
  checkf4 "machine 0" 0.75 u.(0);
  checkf4 "machine 1" 0.25 u.(1)

let test_gantt_symbols () =
  Alcotest.(check char) "idle" '.' (Suu_sim.Gantt.job_symbol (-1));
  Alcotest.(check char) "zero" '0' (Suu_sim.Gantt.job_symbol 0);
  Alcotest.(check char) "ten" 'a' (Suu_sim.Gantt.job_symbol 10);
  Alcotest.(check char) "cycles" '0' (Suu_sim.Gantt.job_symbol 62)

(* Machine-step accounting: every step, each machine is exactly one of
   busy / wasted / idle. *)
let prop_engine_accounting =
  QCheck.Test.make ~count:60 ~name:"busy + wasted + idle = m * makespan"
    QCheck.small_int (fun seed ->
      let module W = Suu_workload.Workload in
      let inst =
        W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n:8 ~m:3 ~seed
      in
      let rng = Rng.create ~seed:(seed + 13) in
      let trace = Trace.draw ~n:8 (Rng.split rng) in
      let r =
        Engine.run inst (Suu_core.Baselines.round_robin inst) ~trace ~rng
      in
      r.Engine.busy_steps + r.Engine.wasted_steps + r.Engine.idle_steps
      = 3 * r.Engine.makespan)

(* The guarantee [Policy.stepper] states and the ready sets rely on,
   checked at every call of every registered policy applicable to the
   instance: between two calls a job leaves [remaining] only if the
   previous row assigned it, zero-threshold jobs have left before the
   first call, a job never returns to [remaining], [eligible] gains
   only successors of jobs that left, and an eligible job is
   remaining.  The previous row comes from [~on_step]. *)
let prop_engine_guarantee =
  QCheck.Test.make ~count:40
    ~name:"steppers see only completions of their previous row"
    QCheck.(triple small_int (int_range 0 2) (int_range 0 2))
    (fun (seed, shape, zeros) ->
      let module W = Suu_workload.Workload in
      Suu_sched.Register.ensure ();
      let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
      let inst =
        match shape with
        | 0 -> W.independent uniform ~n:10 ~m:3 ~seed
        | 1 -> W.random_chains uniform ~n:12 ~z:3 ~m:3 ~seed
        | _ -> W.forest uniform ~n:12 ~trees:2 ~orientation:`Mixed ~m:3 ~seed
      in
      let n = Instance.n inst and g = Instance.dag inst in
      let rng = Rng.create ~seed:(seed + 31) in
      let drawn = Trace.draw ~n (Rng.split rng) in
      (* [zeros] in five jobs complete with no work at all. *)
      let w =
        Array.init n (fun j ->
            if (j + seed) mod 5 < zeros then 0.0 else Trace.threshold drawn j)
      in
      let trace = Trace.of_thresholds w in
      let check name =
        let p =
          match Suu_core.Policy_registry.build name inst with
          | Ok p -> p
          | Error _ -> Alcotest.failf "%s: not applicable" name
        in
        let fail fmt = Printf.ksprintf (fun m -> failwith (name ^ ": " ^ m)) fmt in
        let row = ref [||] in
        let prev_rem = Array.make n true and prev_elig = Array.make n false in
        let watched =
          Policy.make ~name ~fresh:(fun rng ->
              let step = Policy.fresh p rng in
              fun ~time ~remaining ~eligible ->
                for j = 0 to n - 1 do
                  if time = 0 then begin
                    if remaining.(j) <> (w.(j) > 0.0) then
                      fail "job %d remaining=%b at the first call" j
                        remaining.(j)
                  end
                  else begin
                    if remaining.(j) && not prev_rem.(j) then
                      fail "job %d returned at step %d" j time;
                    if prev_rem.(j) && (not remaining.(j))
                       && not (Array.mem j !row)
                    then fail "job %d left unassigned at step %d" j time;
                    if eligible.(j) && (not prev_elig.(j))
                       && not
                            (List.exists
                               (fun p -> prev_rem.(p) && not remaining.(p))
                               (Dag.preds g j))
                    then fail "job %d became eligible at step %d" j time
                  end;
                  if eligible.(j) && not remaining.(j) then
                    fail "job %d eligible but done at step %d" j time
                done;
                Array.blit remaining 0 prev_rem 0 n;
                Array.blit eligible 0 prev_elig 0 n;
                step ~time ~remaining ~eligible)
        in
        let on_step ~time:_ ~assignment = row := Array.copy assignment in
        ignore (Engine.run ~on_step inst watched ~trace ~rng:(Rng.copy rng))
      in
      List.iter check (Suu_core.Policy_registry.applicable inst);
      true)

(* --- audit --- *)

let test_audit_accepts_valid () =
  let inst = single_machine_inst 0.5 3 in
  let rng = Rng.create ~seed:3 in
  let trace = Trace.draw ~n:3 rng in
  let _, steps =
    Engine.run_recorded inst (work_first inst) ~trace ~rng:(Rng.create ~seed:4)
  in
  (match Audit.check inst ~trace ~steps with
  | Ok () -> ()
  | Error v -> Alcotest.failf "step %d: %s" v.Audit.step v.message);
  let times = Audit.completion_times inst ~trace ~steps in
  Alcotest.(check bool) "all completed" true (Array.for_all (fun t -> t > 0) times)

let test_audit_rejects_ineligible () =
  let inst =
    Instance.make ~dag:(Dag.of_edges ~n:2 [ (0, 1) ]) [| [| 0.5; 0.5 |] |]
  in
  let trace = Trace.of_thresholds [| 1.0; 1.0 |] in
  (* Hand-built illegal recording: job 1 before job 0. *)
  let steps = [| [| 1 |]; [| 0 |]; [| 1 |] |] in
  match Audit.check inst ~trace ~steps with
  | Error v ->
      Alcotest.(check int) "at step 0" 0 v.Audit.step
  | Ok () -> Alcotest.fail "expected a violation"

let test_audit_rejects_incomplete () =
  let inst = single_machine_inst 0.5 2 in
  let trace = Trace.of_thresholds [| 1.0; 5.0 |] in
  let steps = [| [| 0 |] |] in
  match Audit.check inst ~trace ~steps with
  | Error v ->
      Alcotest.(check bool)
        "mentions the job" true
        (String.length v.Audit.message > 0)
  | Ok () -> Alcotest.fail "expected incompleteness violation"

let test_audit_rejects_bad_job () =
  let inst = single_machine_inst 0.5 1 in
  let trace = Trace.of_thresholds [| 0.5 |] in
  let steps = [| [| 9 |] |] in
  Alcotest.(check bool)
    "bad index flagged" true
    (match Audit.check inst ~trace ~steps with
    | Error _ -> true
    | Ok () -> false)

(* Differential property: every policy's recorded execution, on every
   precedence shape, passes the independent audit, and the auditor's
   recomputed completion times are consistent with the makespan. *)
let prop_engine_executions_audit_clean =
  QCheck.Test.make ~count:60 ~name:"recorded executions pass the audit"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let module W = Suu_workload.Workload in
      let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
      let inst =
        match shape with
        | 0 -> W.independent uniform ~n:8 ~m:3 ~seed
        | 1 -> W.chains uniform ~z:2 ~length:4 ~m:3 ~seed
        | 2 -> W.forest uniform ~n:9 ~trees:2 ~orientation:`Mixed ~m:3 ~seed
        | _ -> W.mapreduce uniform ~maps:4 ~reduces:3 ~m:3 ~seed
      in
      let policy = Suu_core.Auto.policy inst in
      let rng = Rng.create ~seed:(seed + 77) in
      let trace = Trace.draw ~n:(Instance.n inst) (Rng.split rng) in
      let result, steps = Engine.run_recorded inst policy ~trace ~rng in
      (match Audit.check inst ~trace ~steps with
      | Ok () -> true
      | Error _ -> false)
      &&
      let times = Audit.completion_times inst ~trace ~steps in
      Array.for_all
        (fun t -> t >= 0 && t <= result.Engine.makespan)
        times)

(* --- parallel runner --- *)

let test_parallel_matches_sequential () =
  let inst = single_machine_inst 0.6 5 in
  let run jobs =
    Runner.makespans ~jobs inst (work_first inst) ~seed:21 ~reps:16
  in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains identical" jobs)
        true (seq = par))
    [ 1; 2; 4 ]

let test_parallel_validation () =
  let inst = single_machine_inst 0.6 2 in
  Alcotest.check_raises "bad reps"
    (Invalid_argument "Runner.makespans: reps must be positive") (fun () ->
      ignore (Runner.makespans inst (work_first inst) ~seed:0 ~reps:0));
  Alcotest.check_raises "bad jobs"
    (Invalid_argument "Parallel.parallel_for: jobs must be positive")
    (fun () ->
      ignore (Runner.makespans ~jobs:0 inst (work_first inst) ~seed:0 ~reps:4))

let test_parallel_real_policy () =
  (* One stateful LP-driven policy, shared by three domains, must agree
     with the sequential runner. *)
  let inst =
    Suu_core.Instance.make ~dag:(Suu_dag.Dag.empty 6)
      (Array.init 2 (fun i ->
           Array.init 6 (fun j ->
               0.3 +. (0.1 *. float_of_int ((i + j) mod 5)))))
  in
  let seq =
    Runner.makespans ~jobs:1 inst (Suu_core.Suu_i_sem.policy inst) ~seed:5
      ~reps:8
  in
  let par =
    Runner.makespans ~jobs:3 inst (Suu_core.Suu_i_sem.policy inst) ~seed:5
      ~reps:8
  in
  Alcotest.(check bool) "identical" true (seq = par)

(* Replications fan out over domains with bit-identical results, for
   one policy value shared by every domain, across random instances,
   seeds, and job counts. *)
let prop_parallel_bit_identical =
  QCheck.Test.make ~count:15
    ~name:"parallel runners bit-identical to sequential"
    QCheck.(triple small_int (int_range 1 11) (int_range 0 2))
    (fun (seed, reps, shape) ->
      let module W = Suu_workload.Workload in
      let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
      let inst =
        match shape with
        | 0 -> W.independent uniform ~n:8 ~m:3 ~seed
        | 1 -> W.chains uniform ~z:2 ~length:4 ~m:3 ~seed
        | _ -> W.forest uniform ~n:9 ~trees:2 ~orientation:`Mixed ~m:3 ~seed
      in
      let policy = Suu_core.Auto.policy inst in
      let run jobs =
        Runner.makespans ~jobs inst policy ~seed:(seed + 1) ~reps
      in
      let seq = run 1 in
      List.for_all (fun jobs -> run jobs = seq) [ 2; 3; 5 ])

(* Regression: a raising body must re-raise AND join every spawned
   domain first.  The old code joined only after the caller's inline
   worker returned normally, so an exception unwound past live domains —
   they kept running (and mutating caller-owned buffers) after the call
   "failed", and were never joined. *)
let test_parallel_raise_joins_all () =
  let n = 8 in
  let completed = Atomic.make 0 in
  let raised =
    try
      (* 8 items over 4 jobs are claimed one item per chunk. *)
      Suu_sim.Parallel.parallel_for ~jobs:4 ~n (fun i ->
          if i = 0 then failwith "boom"
          else begin
            (* Slow enough that unjoined domains would still be running
               when the exception escapes. *)
            Thread.delay 0.02;
            Atomic.incr completed
          end);
      false
    with Failure msg ->
      Alcotest.(check string) "body exception surfaces" "boom" msg;
      true
  in
  Alcotest.(check bool) "exception propagated" true raised;
  (* All spawned domains were joined before the raise escaped, and one
     worker's failure does not cancel the others' claimed chunks: every
     non-raising item has completed by the time the caller sees the
     exception — none completes later. *)
  Alcotest.(check int) "all other items done at the catch" (n - 1)
    (Atomic.get completed);
  Thread.delay 0.05;
  Alcotest.(check int) "no stray domain runs on" (n - 1)
    (Atomic.get completed)

(* --- runner --- *)

let test_runner_deterministic () =
  let inst = single_machine_inst 0.6 3 in
  let a = Runner.makespans inst (work_first inst) ~seed:5 ~reps:20 in
  let b = Runner.makespans inst (work_first inst) ~seed:5 ~reps:20 in
  Alcotest.(check bool) "same seed same runs" true (a = b);
  let c = Runner.makespans inst (work_first inst) ~seed:6 ~reps:20 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_runner_ratio () =
  let inst = single_machine_inst 0.5 1 in
  let r =
    Runner.expected_makespan inst (work_first inst) ~seed:3 ~reps:500 /. 2.0
  in
  Alcotest.(check bool) "ratio near 1" true (r > 0.8 && r < 1.25)

let test_runner_validation () =
  let inst = single_machine_inst 0.5 1 in
  Alcotest.check_raises "reps"
    (Invalid_argument "Runner.makespans: reps must be positive") (fun () ->
      ignore (Runner.makespans inst (work_first inst) ~seed:0 ~reps:0));
  let rngs = Runner.rep_rngs ~seed:0 ~reps:4 in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "range [%d, %d)" lo hi)
        (Invalid_argument "Runner.run_range: bad range") (fun () ->
          Runner.run_range inst (work_first inst) ~rngs (Array.make 4 0.0)
            ~lo ~hi))
    [ (-1, 2); (3, 2); (0, 5) ]

(* The documented determinism contract: replication k's generators
   depend on (seed, k) only, so extending a sweep re-runs the same
   prefix of traces. *)
let test_runner_rep_prefix () =
  let inst = single_machine_inst 0.6 4 in
  let short = Runner.makespans inst (work_first inst) ~seed:9 ~reps:6 in
  let long = Runner.makespans inst (work_first inst) ~seed:9 ~reps:17 in
  Alcotest.(check bool)
    "first 6 of 17 identical" true
    (Array.sub long 0 6 = short);
  (* Batches of one sweep, as the server and the result store run it. *)
  let rngs = Runner.rep_rngs ~seed:9 ~reps:17 in
  let batched = Array.make 17 0.0 in
  List.iter
    (fun (lo, hi) ->
      Runner.run_range ~jobs:2 inst (work_first inst) ~rngs batched ~lo ~hi)
    [ (0, 6); (6, 6); (6, 17) ];
  Alcotest.(check bool) "batched run_range identical" true (batched = long)

let () =
  Alcotest.run "sim"
    [
      ( "trace",
        [
          Alcotest.test_case "draw positive" `Quick test_trace_draw_positive;
          Alcotest.test_case "mean" `Slow test_trace_mean;
          Alcotest.test_case "of_thresholds" `Quick test_trace_of_thresholds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic threshold" `Quick
            test_engine_deterministic_threshold;
          Alcotest.test_case "zero threshold" `Quick
            test_engine_zero_threshold;
          Alcotest.test_case "counters" `Quick test_engine_counters;
          Alcotest.test_case "stuck policy capped" `Quick
            test_engine_stuck_policy_capped;
          Alcotest.test_case "rejects ineligible" `Quick
            test_engine_rejects_ineligible;
          Alcotest.test_case "rejects bad index" `Quick
            test_engine_rejects_bad_job_index;
          Alcotest.test_case "rejects wrong width" `Quick
            test_engine_rejects_wrong_width;
          Alcotest.test_case "precedence" `Quick
            test_engine_precedence_progress;
          Alcotest.test_case "relative completion epsilon" `Quick
            test_engine_relative_epsilon;
        ] );
      ( "theorem-10",
        [
          Alcotest.test_case "single machine distribution" `Slow
            test_suu_star_equivalence_single;
          Alcotest.test_case "two-machine mean" `Slow
            test_suu_star_equivalence_two_machines;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "run_recorded" `Quick test_run_recorded;
          Alcotest.test_case "render" `Quick test_gantt_render;
          Alcotest.test_case "sampling" `Quick test_gantt_sampling;
          Alcotest.test_case "utilization" `Quick test_gantt_utilization;
          Alcotest.test_case "symbols" `Quick test_gantt_symbols;
        ] );
      ( "audit",
        [
          Alcotest.test_case "accepts valid" `Quick test_audit_accepts_valid;
          Alcotest.test_case "rejects ineligible" `Quick
            test_audit_rejects_ineligible;
          Alcotest.test_case "rejects incomplete" `Quick
            test_audit_rejects_incomplete;
          Alcotest.test_case "rejects bad job" `Quick
            test_audit_rejects_bad_job;
          QCheck_alcotest.to_alcotest prop_engine_executions_audit_clean;
          QCheck_alcotest.to_alcotest prop_engine_accounting;
          QCheck_alcotest.to_alcotest prop_engine_guarantee;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "validation" `Quick test_parallel_validation;
          Alcotest.test_case "lp policy" `Quick test_parallel_real_policy;
          Alcotest.test_case "raise joins all domains" `Quick
            test_parallel_raise_joins_all;
          QCheck_alcotest.to_alcotest prop_parallel_bit_identical;
        ] );
      ( "runner",
        [
          Alcotest.test_case "determinism" `Quick test_runner_deterministic;
          Alcotest.test_case "ratio" `Quick test_runner_ratio;
          Alcotest.test_case "validation" `Quick test_runner_validation;
          Alcotest.test_case "rep prefix determinism" `Quick
            test_runner_rep_prefix;
        ] );
    ]
