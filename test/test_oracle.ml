(* Differential tests: the allocation-free greedy, round-robin, serial,
   lzf, backfill, SUU-I-SEM, SUU-C and SUU-T steppers against the
   straightforward versions kept in Oracle_policies.  Both run on the
   same instance, trace and execution rng; every recorded assignment
   row, the engine result, backfill's event stream, SUU-C's stats and
   the plan-cache traffic must be equal. *)

module Instance = Suu_core.Instance
module Baselines = Suu_core.Baselines
module Engine = Suu_sim.Engine
module Trace = Suu_sim.Trace
module Backfill = Suu_sched.Backfill
module W = Suu_workload.Workload
module Rng = Suu_prng.Rng
module Plan_cache = Suu_core.Plan_cache
module Solver_choice = Suu_core.Solver_choice
module Suu_c = Suu_core.Suu_c

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }
let shapes = [| "independent"; "near-one"; "chains"; "forest" |]
let qmodes = [| "generated"; "ties"; "ties+ones" |]

(* One case: dag shape, q mode, n, m and a seed.  [n] and [m] range
   over both n > m and m > n. *)
type case = { shape : int; qmode : int; n : int; m : int; seed : int }

let case_gen =
  QCheck.Gen.(
    map
      (fun ((shape, qmode, n, m), seed) -> { shape; qmode; n; m; seed })
      (pair
         (quad (int_range 0 3) (int_range 0 2) (int_range 1 40)
            (int_range 1 12))
         (int_bound 100_000)))

let case_print c =
  Printf.sprintf "shape=%s q=%s n=%d m=%d seed=%d" shapes.(c.shape)
    qmodes.(c.qmode) c.n c.m c.seed

let arb_case = QCheck.make ~print:case_print case_gen

let shaped { shape; n; m; seed; _ } =
  match shape with
  | 0 -> W.independent uniform ~n ~m ~seed
  | 1 -> W.independent W.Near_one ~n ~m ~seed
  | 2 -> W.random_chains uniform ~n ~z:(max 1 (n / 4)) ~m ~seed
  | _ -> W.forest uniform ~n ~trees:(max 1 (n / 6)) ~orientation:`Mixed ~m ~seed

(* Tie-heavy hazards: every q drawn from {0, 0.5, 0.75, 1}.  With
   [ones], one machine fails every job (an all-ones row) and one job
   fails on all machines but one (an all-ones column except for a
   single capable machine: [Instance.make] rejects a job no machine can
   advance).  Any job left with no capable machine gets q = 0.5 on one. *)
let tie_heavy ~ones c inst =
  let n = c.n and m = c.m in
  let rng = Rng.create ~seed:(c.seed + 17) in
  let levels = [| 0.0; 0.5; 0.75; 1.0 |] in
  let q =
    Array.init m (fun _ -> Array.init n (fun _ -> levels.(Rng.int rng 4)))
  in
  if ones then begin
    Array.fill q.(Rng.int rng m) 0 n 1.0;
    let col = Rng.int rng n and keep = Rng.int rng m in
    for i = 0 to m - 1 do
      if i <> keep then q.(i).(col) <- 1.0
    done
  end;
  for j = 0 to n - 1 do
    if Array.for_all (fun row -> row.(j) >= 1.0) q then
      q.(j mod m).(j) <- 0.5
  done;
  Instance.make ~dag:(Instance.dag inst) q

let instance c =
  let inst = shaped c in
  match c.qmode with
  | 0 -> inst
  | 1 -> tie_heavy ~ones:false c inst
  | _ -> tie_heavy ~ones:true c inst

(* The engine result, or [Error cap] when the run passed [cap] steps,
   with the assignment rows recorded up to there.  A policy that never
   finishes is compared like one that does: both sides must stall on
   the same rows.  [scale] multiplies every drawn threshold, so that
   jobs outlive SUU-I-SEM's K rounds and reach its tail phases. *)
let recorded ?(cap = 100_000) ?(scale = 1.0) inst policy ~seed =
  let rng = Rng.create ~seed in
  let n = Instance.n inst in
  let trace = Trace.draw ~n (Rng.split rng) in
  let trace =
    if scale = 1.0 then trace
    else
      Trace.of_thresholds
        (Array.init n (fun j -> scale *. Trace.threshold trace j))
  in
  let rows = ref [] in
  let on_step ~time:_ ~assignment = rows := Array.copy assignment :: !rows in
  let r =
    match Engine.run ~cap ~on_step inst policy ~trace ~rng with
    | r -> Ok r
    | exception Engine.Horizon_exceeded cap -> Error cap
  in
  (r, Array.of_list (List.rev !rows))

let makespan_of = function Ok r -> r.Engine.makespan | Error _ -> -1

let same_run ?scale ~what inst oracle prod ~seed =
  let r_o, rows_o = recorded ?scale inst oracle ~seed in
  let r_p, rows_p = recorded ?scale inst prod ~seed in
  if r_o <> r_p || rows_o <> rows_p then begin
    let first =
      let k = ref 0 in
      while
        !k < Array.length rows_o
        && !k < Array.length rows_p
        && rows_o.(!k) = rows_p.(!k)
      do
        incr k
      done;
      !k
    in
    QCheck.Test.fail_reportf "%s: first differing step %d (makespans %d vs %d)"
      what first (makespan_of r_o) (makespan_of r_p)
  end;
  true

let prop_baselines =
  QCheck.Test.make ~count:500
    ~name:"greedy, round-robin and serial equal their oracles step by step"
    arb_case (fun c ->
      let inst = instance c in
      let seed = c.seed + 1 in
      same_run ~what:"greedy" inst
        (Oracle_policies.greedy_completion inst)
        (Baselines.greedy_completion inst) ~seed
      && same_run ~what:"round-robin" inst
           (Oracle_policies.round_robin inst)
           (Baselines.round_robin inst) ~seed
      && same_run ~what:"serial" inst
           (Oracle_policies.serial inst)
           (Baselines.serial inst) ~seed)

(* LZF's ready set is kept in Z order and updated from the previous
   row: chains and forests exercise successor promotion, and the tie
   modes equal Z ratios and machines with q = 1. *)
let prop_lzf =
  QCheck.Test.make ~count:500 ~name:"lzf equals its oracle step by step"
    arb_case (fun c ->
      let inst = instance c in
      same_run ~what:"lzf" inst (Oracle_policies.lzf inst)
        (Suu_sched.Lzf.policy inst) ~seed:(c.seed + 4))

(* Backfilled starts seen in the production event logs, so that a run
   of cases can show it compared the backfill scan at all. *)
let backfilled_starts = ref 0

(* Backfill with an event log per side: the assignment rows and the
   Started/Preempted stream must both match. *)
let backfill_matches ?width inst ~seed =
  let log () =
    let events = ref [] in
    (events, fun e -> events := e :: !events)
  in
  let ev_o, on_o = log () and ev_p, on_p = log () in
  let ok =
    same_run ~what:"backfill" inst
      (Oracle_policies.backfill ?width ~on_event:on_o inst)
      (Backfill.policy ?width ~on_event:on_p inst)
      ~seed
  in
  List.iter
    (function
      | Backfill.Started { backfilled = true; _ } -> incr backfilled_starts
      | _ -> ())
    !ev_p;
  ok
  &&
  if !ev_o <> !ev_p then
    QCheck.Test.fail_reportf "backfill: event streams differ (%d vs %d events)"
      (List.length !ev_o) (List.length !ev_p)
  else true

let prop_backfill =
  QCheck.Test.make ~count:500 ~name:"backfill equals its oracle step by step"
    arb_case (fun c -> backfill_matches (instance c) ~seed:(c.seed + 2))

(* The [?width] override: arbitrary requests, including out-of-range
   ones the policy clamps to [1 .. capable_j]. *)
let prop_backfill_width =
  QCheck.Test.make ~count:300
    ~name:"backfill with a width override equals its oracle"
    arb_case (fun c ->
      let inst = instance c in
      let rng = Rng.create ~seed:(c.seed + 29) in
      let widths = Array.init c.n (fun _ -> Rng.int rng (c.m + 2)) in
      backfill_matches ~width:(fun j -> widths.(j)) inst ~seed:(c.seed + 3))

(* The width cases must reach the backfill scan: if none of them starts
   a job behind the head, the comparison above never covered it. *)
let backfill_width_case =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_backfill_width in
  ( name,
    speed,
    fun () ->
      backfilled_starts := 0;
      run ();
      if !backfilled_starts = 0 then
        Alcotest.fail "no case started a backfilled job" )

(* --- the paper's LP policies --- *)

(* One LP case: dag shape (independent, chains or forest), SUU-C's
   delay knobs, the LP backend, how many of SUU-C's jobs are forced
   short, whether the trace's thresholds are scaled up, n, m and a
   seed.  Kept small: every case solves (LP2) and the
   SEM rounds' (LP1)s. *)
type lp_case = {
  lshape : int;
  delays : bool;
  gran : int;
  mwu : bool;
  short : int;
  hard : bool;
  ln : int;
  lm : int;
  lseed : int;
}

let lp_shapes = [| "independent"; "chains"; "forest" |]

let lp_case_gen =
  QCheck.Gen.(
    map
      (fun ((lshape, delays, gran, mwu), (short, hard), (ln, lm, lseed)) ->
        { lshape; delays; gran = (if gran then 3 else 1); mwu; short; hard;
          ln; lm; lseed })
      (triple
         (quad (int_range 0 2) bool bool bool)
         (pair (int_range 0 2) bool)
         (triple (int_range 1 24) (int_range 1 6) (int_bound 100_000))))

let lp_case_print c =
  Printf.sprintf
    "shape=%s random_delays=%b granularity=%d solver=%s short=%d hard=%b \
     n=%d m=%d seed=%d"
    lp_shapes.(c.lshape) c.delays c.gran
    (if c.mwu then "mwu-0.1" else "simplex")
    c.short c.hard c.ln c.lm c.lseed

let lp_scale c = if c.hard then 6.0 else 1.0

let arb_lp_case = QCheck.make ~print:lp_case_print lp_case_gen

let lp_instance c =
  let n = c.ln and m = c.lm and seed = c.lseed in
  match c.lshape with
  | 0 -> W.independent uniform ~n ~m ~seed
  | 1 -> W.random_chains uniform ~n ~z:(max 1 (n / 4)) ~m ~seed
  | _ -> W.forest uniform ~n ~trees:(max 1 (n / 6)) ~orientation:`Mixed ~m ~seed

let cache_traffic () =
  let s = Plan_cache.global_stats () in
  (s.Plan_cache.hits, s.Plan_cache.misses)

(* [same_run] plus equal plan-cache traffic.  The store is global, so a
   warm-up run of [warm] (an oracle policy value with no stats sink)
   first makes both measured runs see the same store: then equal hit
   and miss deltas mean both sides looked up the same number of plans,
   and a miss on the production side would mean a key the oracle never
   asked for. *)
let same_run_and_traffic ?scale ~what ~warm inst oracle prod ~seed =
  ignore (recorded ?scale inst warm ~seed);
  let delta f =
    let h0, m0 = cache_traffic () in
    f ();
    let h1, m1 = cache_traffic () in
    (h1 - h0, m1 - m0)
  in
  let d_o = delta (fun () -> ignore (recorded ?scale inst oracle ~seed)) in
  let d_p = delta (fun () -> ignore (recorded ?scale inst prod ~seed)) in
  if d_o <> d_p then
    QCheck.Test.fail_reportf
      "%s: plan-cache (hits, misses) deltas differ: (%d, %d) vs (%d, %d)" what
      (fst d_o) (snd d_o) (fst d_p) (snd d_p);
  same_run ?scale ~what inst oracle prod ~seed

(* At these sizes the rounded job lengths nearly all exceed gamma, so
   SUU-C would only pause and run SEM.  [short] 1 and 2 raise gamma to
   the median and the maximum job length, recomputing the long jobs and
   the short-job load as [Suu_c.prepare] does, so the supersteps, their
   queues and their congestion get exercised too. *)
let with_short c inst (prep : Suu_c.prepared) =
  let jobs = Array.concat prep.chains in
  let len j = Suu_core.Assignment.job_length prep.assignment j in
  let lens = Array.map len jobs in
  Array.sort compare lens;
  let gamma =
    match c.short with
    | 0 -> prep.gamma
    | 1 -> max 1 lens.(Array.length lens / 2)
    | _ -> max 1 lens.(Array.length lens - 1)
  in
  let long_jobs = List.filter (fun j -> len j > gamma) (Array.to_list jobs) in
  let load = ref 1 in
  for i = 0 to Instance.m inst - 1 do
    let acc = ref 0 in
    Array.iter
      (fun j ->
        if len j <= gamma then
          acc := !acc + Suu_core.Assignment.get prep.assignment i j)
      jobs;
    load := max !load !acc
  done;
  { prep with gamma; long_jobs; load = !load }

(* SUU-C from one shared preparation, each side with its own stats
   sink: after the same runs both sinks must hold the same record. *)
let suu_c_matches c inst ~solver ~chains ~seed =
  let prep = with_short c inst (Suu_c.prepare ~solver inst ~chains) in
  let s_o = Suu_c.new_stats () and s_p = Suu_c.new_stats () in
  let build stats f =
    f ?solver:(Some solver) ?stats ?random_delays:(Some c.delays)
      ?delay_granularity:(Some c.gran) inst prep
  in
  same_run_and_traffic ~scale:(lp_scale c) ~what:"suu-c" inst
    ~warm:(build None Oracle_policies.suu_c_of_prepared)
    (build (Some s_o) Oracle_policies.suu_c_of_prepared)
    (build (Some s_p) Suu_c.policy_of_prepared)
    ~seed
  &&
  if s_o <> s_p then
    QCheck.Test.fail_reportf
      "suu-c: stats differ (supersteps %d vs %d, sem steps %d vs %d)"
      s_o.Suu_c.supersteps s_p.Suu_c.supersteps s_o.Suu_c.sem_steps
      s_p.Suu_c.sem_steps
  else true

let prop_lp_policies =
  QCheck.Test.make ~count:200
    ~name:"SUU-I-SEM, SUU-C and SUU-T equal their oracles step by step"
    arb_lp_case (fun c ->
      let inst = lp_instance c in
      let solver =
        if c.mwu then Solver_choice.Mwu 0.1 else Solver_choice.Simplex
      in
      let seed = c.lseed + 5 in
      let chains = Suu_dag.Chains.of_dag (Instance.dag inst) in
      (match c.lshape with
      | 0 ->
          let oracle = Oracle_policies.sem ~solver inst in
          same_run_and_traffic ~scale:(lp_scale c) ~what:"suu-i-sem"
            ~warm:oracle inst oracle
            (Suu_core.Suu_i_sem.policy ~solver inst)
            ~seed
      | _ -> true)
      && (match chains with
         | Some chains -> suu_c_matches c inst ~solver ~chains ~seed
         | None -> true)
      &&
      match c.lshape with
      | 2 ->
          let oracle = Oracle_policies.suu_t ~solver inst in
          same_run_and_traffic ~scale:(lp_scale c) ~what:"suu-t" ~warm:oracle
            inst oracle
            (Suu_core.Suu_t.policy ~solver inst)
            ~seed
      | _ -> true)

let () =
  Alcotest.run "oracle"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_baselines; prop_lzf; prop_backfill ]
        @ [ backfill_width_case;
            QCheck_alcotest.to_alcotest prop_lp_policies ] );
    ]
