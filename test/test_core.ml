(* Tests for the core SUU machinery: instances, assignments, the (LP1)
   relaxation, the Lemma-2 rounding (whose exact inequalities are asserted
   here), (LP2) with Lemma 6, lower bounds, oblivious serialization and
   the exact DP optimum. *)

module Dag = Suu_dag.Dag
module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Mathx = Suu_core.Mathx
module Lp1 = Suu_core.Lp1
module Lp2 = Suu_core.Lp2
module Rounding = Suu_core.Rounding
module Oblivious = Suu_core.Oblivious
module Lower_bound = Suu_core.Lower_bound
module Exact_dp = Suu_core.Exact_dp
module W = Suu_workload.Workload

let checkf = Alcotest.(check (float 1e-9))
let checkf4 = Alcotest.(check (float 1e-4))

let inst2x2 () =
  Instance.make ~dag:(Dag.empty 2) [| [| 0.5; 0.25 |]; [| 0.75; 0.5 |] |]

(* --- mathx --- *)

let test_mathx_log2 () =
  checkf4 "log2 8" 3.0 (Mathx.log2 8.0);
  Alcotest.(check int) "ceil_log2 1" 0 (Mathx.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Mathx.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Mathx.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Mathx.ceil_log2 1024)

let test_mathx_rounds () =
  (* K = ceil(log log min(m,n)) + 3, clamped to >= 4. *)
  Alcotest.(check int) "min 4" 4 (Mathx.rounds_k ~n:1 ~m:100);
  Alcotest.(check int) "n=16: ceil(loglog 16)+3" 5 (Mathx.rounds_k ~n:16 ~m:100);
  Alcotest.(check int) "n=256: ceil(loglog 256)+3" 6
    (Mathx.rounds_k ~n:256 ~m:256);
  Alcotest.(check bool)
    "monotone-ish" true
    (Mathx.rounds_k ~n:65536 ~m:65536 >= Mathx.rounds_k ~n:16 ~m:16)

let test_mathx_targets () =
  checkf "L1" 0.5 (Mathx.target_for_round 1);
  checkf "L2" 1.0 (Mathx.target_for_round 2);
  checkf "L5" 8.0 (Mathx.target_for_round 5);
  Alcotest.check_raises "k=0"
    (Invalid_argument "Mathx.target_for_round: k must be >= 1") (fun () ->
      ignore (Mathx.target_for_round 0))

let test_mathx_floors () =
  Alcotest.(check int) "floor_pos exact" 6 (Mathx.floor_pos 6.0);
  Alcotest.(check int) "floor_pos below" 5 (Mathx.floor_pos 5.99999);
  Alcotest.(check int) "floor_pos epsilon" 6 (Mathx.floor_pos (6.0 -. 1e-12));
  Alcotest.(check int) "ceil_pos exact" 6 (Mathx.ceil_pos 6.0);
  Alcotest.(check int) "ceil_pos epsilon" 6 (Mathx.ceil_pos (6.0 +. 1e-12));
  Alcotest.(check int) "negative clamps" 0 (Mathx.floor_pos (-3.0))

(* --- instance --- *)

let test_instance_basic () =
  let inst = inst2x2 () in
  Alcotest.(check int) "n" 2 (Instance.n inst);
  Alcotest.(check int) "m" 2 (Instance.m inst);
  checkf "q 0 1" 0.25 (Instance.q inst 0 1);
  checkf4 "l 0 0 = 1" 1.0 (Instance.log_failure inst 0 0);
  checkf4 "l 0 1 = 2" 2.0 (Instance.log_failure inst 0 1);
  Alcotest.(check int) "best machine of 1" 0 (Instance.best_machine inst 1);
  Alcotest.(check (list int)) "jobs" [ 0; 1 ] (Instance.jobs inst)

let test_instance_clipping () =
  let inst = inst2x2 () in
  checkf4 "clip to 1.5" 1.5 (Instance.clipped_log_failure inst ~target:1.5 0 1);
  checkf4 "no clip" 1.0 (Instance.clipped_log_failure inst ~target:1.5 0 0)

let test_instance_zero_q () =
  (* q = 0 means guaranteed completion: infinite log failure. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.0 |] |] in
  Alcotest.(check bool)
    "infinite" true
    (Instance.log_failure inst 0 0 = infinity);
  checkf "clipped is finite" 0.5
    (Instance.clipped_log_failure inst ~target:0.5 0 0)

let test_instance_validation () =
  Alcotest.check_raises "hopeless job"
    (Invalid_argument "Instance.make: a job fails on every machine")
    (fun () -> ignore (Instance.make ~dag:(Dag.empty 1) [| [| 1.0 |] |]));
  Alcotest.check_raises "bad q"
    (Invalid_argument "Instance.make: q out of [0,1]") (fun () ->
      ignore (Instance.make ~dag:(Dag.empty 1) [| [| 1.5 |] |]));
  Alcotest.check_raises "dag mismatch"
    (Invalid_argument "Instance.make: dag size mismatch") (fun () ->
      ignore (Instance.make ~dag:(Dag.empty 3) [| [| 0.5 |] |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Instance.make: ragged matrix") (fun () ->
      ignore
        (Instance.make ~dag:(Dag.empty 2) [| [| 0.5; 0.5 |]; [| 0.5 |] |]))

(* --- assignment --- *)

let test_assignment_metrics () =
  let a = Assignment.make [| [| 2; 0; 1 |]; [| 0; 3; 1 |] |] in
  Alcotest.(check int) "m" 2 (Assignment.m a);
  Alcotest.(check int) "n" 3 (Assignment.n a);
  Alcotest.(check int) "load machine 0" 3 (Assignment.machine_load a 0);
  Alcotest.(check int) "load" 4 (Assignment.load a);
  Alcotest.(check int) "length job 1" 3 (Assignment.job_length a 1);
  Alcotest.(check int) "steps job 2" 2 (Assignment.job_steps a 2);
  Alcotest.(check int) "total" 7 (Assignment.total_steps a);
  Alcotest.(check (list (pair int int)))
    "machines of job 2"
    [ (0, 1); (1, 1) ]
    (Assignment.machines_of_job a 2)

let test_assignment_log_mass () =
  let inst = inst2x2 () in
  let a = Assignment.make [| [| 1; 2 |]; [| 0; 1 |] |] in
  (* job 1: 2 steps at l=2 on machine 0, 1 step at l=1 on machine 1 *)
  checkf4 "log mass" 5.0 (Assignment.log_mass inst a 1);
  checkf4 "clipped" (3.0 *. 0.5)
    (Assignment.clipped_log_mass inst ~target:0.5 a 1)

let test_assignment_validation () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Assignment.make: negative") (fun () ->
      ignore (Assignment.make [| [| -1 |] |]));
  let a = Assignment.zero ~m:2 ~n:2 in
  Alcotest.(check int) "zero load" 0 (Assignment.load a)

(* --- oblivious serialization --- *)

let test_oblivious_serialization () =
  let a = Assignment.make [| [| 2; 1 |]; [| 0; 3 |] |] in
  let plan = Oblivious.of_assignment a in
  Alcotest.(check int) "horizon = load" 3 (Oblivious.horizon plan);
  Alcotest.(check int) "machines" 2 (Oblivious.machines plan);
  (* machine 0 runs job 0 twice then job 1; machine 1 runs job 1 thrice *)
  let counts = Array.make_matrix 2 2 0 in
  for k = 0 to Oblivious.horizon plan - 1 do
    let row = Oblivious.assignment_at plan k in
    Array.iteri
      (fun i j -> if j >= 0 then counts.(i).(j) <- counts.(i).(j) + 1)
      row
  done;
  Alcotest.(check int) "m0 j0" 2 counts.(0).(0);
  Alcotest.(check int) "m0 j1" 1 counts.(0).(1);
  Alcotest.(check int) "m1 j1" 3 counts.(1).(1);
  Alcotest.(check int) "m1 j0" 0 counts.(1).(0)

let test_oblivious_empty () =
  let plan = Oblivious.of_assignment (Assignment.zero ~m:2 ~n:2) in
  Alcotest.(check int) "idle step" 1 (Oblivious.horizon plan);
  Alcotest.(check bool)
    "all idle" true
    (Array.for_all (( = ) (-1)) (Oblivious.assignment_at plan 0))

(* --- LP1 + Lemma 2 rounding --- *)

let random_instance seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 2 + Suu_prng.Rng.int rng 4 in
  let n = 2 + Suu_prng.Rng.int rng 10 in
  let q =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:0.999))
  in
  Instance.make ~dag:(Dag.empty n) q

let lp1_feasible inst target frac =
  let m = Instance.m inst and n = Instance.n inst in
  let ok = ref true in
  for j = 0 to n - 1 do
    let cov = ref 0.0 in
    for i = 0 to m - 1 do
      cov :=
        !cov
        +. (frac.Lp1.x.(i).(j)
           *. Instance.clipped_log_failure inst ~target i j)
    done;
    if !cov < target -. 1e-6 then ok := false
  done;
  for i = 0 to m - 1 do
    let load = Array.fold_left ( +. ) 0.0 frac.Lp1.x.(i) in
    if load > frac.Lp1.value +. 1e-6 then ok := false
  done;
  !ok

let prop_lp1_feasible =
  QCheck.Test.make ~count:80 ~name:"LP1 solution is feasible"
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let jobs = Array.init (Instance.n inst) Fun.id in
      let frac = Lp1.solve inst ~jobs ~target:0.5 in
      lp1_feasible inst 0.5 frac)

let prop_lp1_mwu_close_to_simplex =
  QCheck.Test.make ~count:40 ~name:"LP1 via MWU within its guarantee"
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let jobs = Array.init (Instance.n inst) Fun.id in
      let exact = Lp1.solve inst ~jobs ~target:0.5 in
      let approx =
        Lp1.solve ~solver:(Suu_core.Solver_choice.Mwu 0.1) inst ~jobs
          ~target:0.5
      in
      lp1_feasible inst 0.5 approx
      && approx.Lp1.value <= (1.55 *. exact.Lp1.value) +. 1e-6
      && approx.Lp1.value >= exact.Lp1.value -. 1e-6)

let prop_lp1_oracle_doubling =
  QCheck.Test.make ~count:40
    ~name:"revised LP1 = simplex across doubling rounds"
    QCheck.small_int (fun seed ->
      (* The clipped coefficients l'_ij = min(l_ij, L) move with the
         target, so every round of a doubling sequence is its own LP.
         On each, the tableau must agree with the independent revised
         simplex (test/oracle_revised.ml) to 1e-9, and be feasible. *)
      let inst = random_instance seed in
      let n = Instance.n inst in
      let jobs = Array.init n Fun.id in
      let k_max = Mathx.rounds_k ~n ~m:(Instance.m inst) in
      List.for_all
        (fun k ->
          let target = Mathx.target_for_round k in
          let frac = Lp1.solve inst ~jobs ~target in
          let oracle, _ =
            Oracle_revised.solve_exn
              (Lp1.problem_for_testing inst ~jobs ~target)
          in
          Float.abs (oracle -. frac.Lp1.value)
          <= 1e-9 *. Float.max 1.0 frac.Lp1.value
          && lp1_feasible inst target frac)
        (List.init k_max (fun i -> i + 1)))

let counter_get name = Suu_obs.Counter.get (Suu_obs.Registry.counter name)

let test_lp1_mwu_cert_fallback () =
  (* A gap limit of 1.0 demands value <= lower_bound: MWU's certificate
     can essentially never clear it, so the solve must fall back to
     simplex — bit-identical to a direct simplex solve — and count the
     rejection. *)
  let inst = random_instance 42 in
  let n = Instance.n inst in
  Alcotest.(check bool) "instance is not tiny" true
    (Instance.m inst * n > 16);
  let jobs = Array.init n Fun.id in
  let before = counter_get "lp1.mwu.fallback.cert" in
  let via_mwu =
    Lp1.solve
      ~solver:(Suu_core.Solver_choice.Mwu 0.1)
      ~mwu_gap_limit:1.0 inst ~jobs ~target:0.5
  in
  let direct = Lp1.solve inst ~jobs ~target:0.5 in
  Alcotest.(check bool) "fallback counted" true
    (counter_get "lp1.mwu.fallback.cert" > before);
  Alcotest.(check (float 0.0)) "value identical to simplex"
    direct.Lp1.value via_mwu.Lp1.value;
  Alcotest.(check bool) "assignment identical to simplex" true
    (via_mwu.Lp1.x = direct.Lp1.x)

let test_lp1_mwu_one_machine () =
  (* On one machine MWU's weight total crosses 1 inside the first phase.
     Jobs that phase never reached used to keep zero coverage, and the
     scaling then turned x into NaN with value 0 — which the
     certificate accepted, leaving SUU-I-SEM a plan that never
     finishes. *)
  let inst =
    W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n:23 ~m:1 ~seed:9858
  in
  let jobs = Array.init 23 Fun.id in
  let mwu = Suu_core.Solver_choice.Mwu 0.1 in
  let via_mwu = Lp1.solve ~solver:mwu inst ~jobs ~target:0.5 in
  let direct = Lp1.solve inst ~jobs ~target:0.5 in
  Alcotest.(check bool) "every x finite" true
    (Array.for_all (Array.for_all Float.is_finite) via_mwu.Lp1.x);
  Alcotest.(check (float 1e-6)) "value equals simplex" direct.Lp1.value
    via_mwu.Lp1.value;
  let sem = Suu_core.Suu_i_sem.policy ~solver:mwu inst in
  let mk =
    Suu_sim.Runner.makespans ~cap:5000 ~jobs:1 inst sem ~seed:1 ~reps:1
  in
  Alcotest.(check bool) "SUU-I-SEM finishes under the cap" true
    (mk.(0) <= 5000.0)

let test_lp1_mwu_tiny_fallback () =
  (* m * |jobs| <= 16: MWU's per-phase machinery costs more than an
     exact dense solve, so tiny instances route to simplex. *)
  let rng = Suu_prng.Rng.create ~seed:7 in
  let q =
    Array.init 2 (fun _ ->
        Array.init 4 (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:0.9))
  in
  let inst = Instance.make ~dag:(Dag.empty 4) q in
  let jobs = Array.init 4 Fun.id in
  let before = counter_get "lp1.mwu.fallback.tiny" in
  let via_mwu =
    Lp1.solve ~solver:(Suu_core.Solver_choice.Mwu 0.1) inst ~jobs ~target:1.0
  in
  let direct = Lp1.solve inst ~jobs ~target:1.0 in
  Alcotest.(check bool) "tiny fallback counted" true
    (counter_get "lp1.mwu.fallback.tiny" > before);
  Alcotest.(check bool) "identical to simplex" true
    (via_mwu.Lp1.x = direct.Lp1.x && via_mwu.Lp1.value = direct.Lp1.value)

let test_solver_choice_strings () =
  let module SC = Suu_core.Solver_choice in
  let roundtrip t =
    match SC.of_string (SC.name t) with
    | Ok t' -> Alcotest.(check string) "round-trip" (SC.name t) (SC.name t')
    | Error e -> Alcotest.failf "round-trip failed: %s" e
  in
  List.iter roundtrip [ SC.Simplex; SC.Mwu 0.1; SC.Mwu 0.25 ];
  Alcotest.(check bool) "bare mwu is the serve default" true
    (SC.of_string "mwu" = Ok SC.serve_default);
  List.iter
    (fun s ->
      match SC.of_string s with
      | Ok _ -> Alcotest.failf "%S should be rejected" s
      | Error _ -> ())
    [ ""; "mwu-0"; "mwu-0.9"; "mwu-"; "mwu-x"; "newton"; "revised" ];
  checkf "simplex guarantee" 1.0 (SC.guarantee SC.Simplex);
  checkf "mwu guarantee" 1.5 (SC.guarantee (SC.Mwu 0.1))

(* Lemma 2's exact postconditions: clipped mass >= L per job, machine load
   <= ceil(6 t_star). *)
let rounding_postconditions inst target =
  let jobs = Array.init (Instance.n inst) Fun.id in
  let frac = Lp1.solve inst ~jobs ~target in
  let a =
    Rounding.round inst ~jobs ~target ~frac:frac.Lp1.x
      ~frac_value:frac.Lp1.value
  in
  let ok = ref true in
  Array.iter
    (fun j ->
      if Assignment.clipped_log_mass inst ~target a j < target -. 1e-6 then
        ok := false)
    jobs;
  let cap = max 1 (Mathx.ceil_pos (6.0 *. frac.Lp1.value)) in
  for i = 0 to Instance.m inst - 1 do
    if Assignment.machine_load a i > cap then ok := false
  done;
  !ok

let prop_rounding_lemma2 =
  QCheck.Test.make ~count:60 ~name:"Lemma 2: mass >= L, load <= ceil(6t)"
    QCheck.small_int (fun seed ->
      rounding_postconditions (random_instance seed) 0.5)

let prop_rounding_lemma2_big_targets =
  QCheck.Test.make ~count:40 ~name:"Lemma 2 at doubled targets"
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      List.for_all
        (fun k -> rounding_postconditions inst (Mathx.target_for_round k))
        [ 2; 3; 4 ])

let prop_rounding_with_job_cap =
  QCheck.Test.make ~count:40 ~name:"Lemma 6 cap: x_ij <= job cap"
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let jobs = Array.init (Instance.n inst) Fun.id in
      let target = 1.0 in
      let frac = Lp1.solve inst ~jobs ~target in
      (* derive per-job caps from the fractional lengths *)
      let dstar =
        Array.init (Instance.n inst) (fun j ->
            let best = ref 0.0 in
            for i = 0 to Instance.m inst - 1 do
              if frac.Lp1.x.(i).(j) > !best then best := frac.Lp1.x.(i).(j)
            done;
            Float.max 1.0 !best)
      in
      let cap j = Mathx.ceil_pos (6.0 *. dstar.(j)) in
      let a =
        Rounding.round ~job_cap:cap inst ~jobs ~target ~frac:frac.Lp1.x
          ~frac_value:frac.Lp1.value
      in
      let ok = ref true in
      Array.iter
        (fun j ->
          if Assignment.clipped_log_mass inst ~target a j < target -. 1e-6
          then ok := false;
          for i = 0 to Instance.m inst - 1 do
            if Assignment.get a i j > cap j then ok := false
          done)
        jobs;
      !ok)

let test_lp1_validation () =
  let inst = inst2x2 () in
  Alcotest.check_raises "no jobs" (Invalid_argument "Lp1.solve: no jobs")
    (fun () -> ignore (Lp1.solve inst ~jobs:[||] ~target:0.5));
  Alcotest.check_raises "bad target"
    (Invalid_argument "Lp1.solve: target must be positive") (fun () ->
      ignore (Lp1.solve inst ~jobs:[| 0 |] ~target:0.0));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Lp1.solve: duplicate job") (fun () ->
      ignore (Lp1.solve inst ~jobs:[| 0; 0 |] ~target:0.5))

let test_lp1_with_certain_machines () =
  (* q = 0 machines (infinite log failure) must survive the clipped LP +
     rounding pipeline: coverage is achieved with single steps. *)
  let inst =
    Instance.make ~dag:(Dag.empty 3)
      [| [| 0.0; 0.5; 0.0 |]; [| 0.9; 0.0; 0.8 |] |]
  in
  let jobs = [| 0; 1; 2 |] in
  let frac = Lp1.solve inst ~jobs ~target:0.5 in
  let a =
    Rounding.round inst ~jobs ~target:0.5 ~frac:frac.Lp1.x
      ~frac_value:frac.Lp1.value
  in
  Array.iter
    (fun j ->
      Alcotest.(check bool)
        "covered" true
        (Assignment.clipped_log_mass inst ~target:0.5 a j >= 0.5 -. 1e-9))
    jobs;
  (* and the resulting schedule finishes fast: every job completes in one
     pass of the plan *)
  let mk =
    Suu_sim.Runner.expected_makespan inst
      (Suu_core.Suu_i_obl.policy inst)
      ~seed:1 ~reps:20
  in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.1f small" mk)
    true (mk <= 8.0)

let test_lp1_subset () =
  (* Solving on a subset leaves other jobs' columns at zero. *)
  let inst = random_instance 5 in
  let frac = Lp1.solve inst ~jobs:[| 0 |] ~target:0.5 in
  let others = ref 0.0 in
  for i = 0 to Instance.m inst - 1 do
    for j = 1 to Instance.n inst - 1 do
      others := !others +. frac.Lp1.x.(i).(j)
    done
  done;
  checkf "untouched" 0.0 !others

(* --- LP2 + Lemma 6 --- *)

let chain_instance seed =
  W.chains (W.Uniform { lo = 0.2; hi = 0.95 }) ~z:3 ~length:4 ~m:3 ~seed

let test_lp2_feasible () =
  let inst = chain_instance 11 in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> Alcotest.fail "not chains"
  in
  let frac = Lp2.solve inst ~chains in
  Alcotest.(check bool) "value positive" true (frac.Lp2.value > 0.0);
  (* coverage *)
  for j = 0 to Instance.n inst - 1 do
    let cov = ref 0.0 in
    for i = 0 to Instance.m inst - 1 do
      cov :=
        !cov
        +. (frac.Lp2.x.(i).(j)
           *. Instance.clipped_log_failure inst ~target:1.0 i j)
    done;
    Alcotest.(check bool) "covered" true (!cov >= 1.0 -. 1e-6)
  done;
  (* x <= d *)
  for j = 0 to Instance.n inst - 1 do
    for i = 0 to Instance.m inst - 1 do
      Alcotest.(check bool)
        "x <= d" true
        (frac.Lp2.x.(i).(j) <= frac.Lp2.d.(j) +. 1e-6)
    done;
    Alcotest.(check bool) "d >= 1" true (frac.Lp2.d.(j) >= 1.0 -. 1e-6)
  done;
  (* chain lengths <= t *)
  List.iter
    (fun chain ->
      let len = Array.fold_left (fun acc j -> acc +. frac.Lp2.d.(j)) 0.0 chain in
      Alcotest.(check bool) "chain length" true (len <= frac.Lp2.value +. 1e-6))
    chains

let test_lp2_round () =
  let inst = chain_instance 13 in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> Alcotest.fail "not chains"
  in
  let frac = Lp2.solve inst ~chains in
  let a = Lp2.round inst frac in
  for j = 0 to Instance.n inst - 1 do
    Alcotest.(check bool)
      "unit mass" true
      (Assignment.clipped_log_mass inst ~target:1.0 a j >= 1.0 -. 1e-6);
    for i = 0 to Instance.m inst - 1 do
      Alcotest.(check bool)
        "job cap" true
        (Assignment.get a i j <= Mathx.ceil_pos (6.0 *. frac.Lp2.d.(j)))
    done
  done;
  let cap = max 1 (Mathx.ceil_pos (6.0 *. frac.Lp2.value)) in
  for i = 0 to Instance.m inst - 1 do
    Alcotest.(check bool) "load" true (Assignment.machine_load a i <= cap)
  done

let test_lp2_chain_length_growth () =
  (* Lemma 6's remark: rounding grows each chain's length to at most
     6 sum(d*_j) + |Ck| <= 7 sum(d*_j). *)
  let inst = chain_instance 19 in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> Alcotest.fail "not chains"
  in
  let frac = Lp2.solve inst ~chains in
  let a = Lp2.round inst frac in
  List.iter
    (fun chain ->
      let rounded =
        Array.fold_left
          (fun acc j -> acc + Assignment.job_length a j)
          0 chain
      in
      let fractional =
        Array.fold_left (fun acc j -> acc +. frac.Lp2.d.(j)) 0.0 chain
      in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d <= 6*%.2f + %d" rounded fractional
           (Array.length chain))
        true
        (float_of_int rounded
        <= (6.0 *. fractional) +. float_of_int (Array.length chain) +. 1e-6))
    chains

let test_lp2_top_machines () =
  let inst = chain_instance 17 in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> Alcotest.fail "not chains"
  in
  let full = Lp2.solve inst ~chains in
  let restricted = Lp2.solve ~top_machines:1 inst ~chains in
  (* restriction can only worsen the optimum *)
  Alcotest.(check bool)
    "restricted >= full" true
    (restricted.Lp2.value >= full.Lp2.value -. 1e-6)

(* --- lower bounds --- *)

let test_lower_bound_single_job () =
  (* One job, one machine with q = 0.5: E[T_OPT] = 2 exactly. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.5 |] |] in
  checkf4 "critical path = 1/(1-q)" 2.0 (Lower_bound.critical_path inst);
  Alcotest.(check bool)
    "combined <= true OPT" true
    (Lower_bound.combined inst <= 2.0 +. 1e-6)

let test_lower_bound_chain () =
  (* Chain of 3 jobs each with best q = 0.5: path bound = 6. *)
  let q = Array.make_matrix 1 3 0.5 in
  let inst =
    Instance.make ~dag:(Dag.of_edges ~n:3 [ (0, 1); (1, 2) ]) q
  in
  checkf4 "path bound" 6.0 (Lower_bound.critical_path inst)

let test_lower_bound_work () =
  (* n jobs, 1 machine: work bound >= n * max(1, E[w]/l). *)
  let q = Array.make_matrix 1 4 0.25 in
  let inst = Instance.make ~dag:(Dag.empty 4) q in
  (* l = 2, E[w]/l = 1/(2 ln 2) < 1, so each job costs >= 1 step. *)
  checkf4 "work" 4.0 (Lower_bound.work inst)

let prop_lower_bound_below_dp =
  (* On tiny instances the combined bound must sit below the true optimum. *)
  QCheck.Test.make ~count:30 ~name:"lower bound <= exact E[T_OPT]"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let n = 1 + Suu_prng.Rng.int rng 4 in
      let m = 1 + Suu_prng.Rng.int rng 2 in
      let q =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:0.9))
      in
      let inst = Instance.make ~dag:(Dag.empty n) q in
      let lb = Lower_bound.combined inst in
      let opt = Exact_dp.expected_makespan inst in
      lb <= opt +. 1e-6)

(* --- instance serialization --- *)

let instances_equal a b =
  Instance.n a = Instance.n b
  && Instance.m a = Instance.m b
  && Instance.name a = Instance.name b
  && Suu_dag.Dag.edges (Instance.dag a) = Suu_dag.Dag.edges (Instance.dag b)
  &&
  let same = ref true in
  for i = 0 to Instance.m a - 1 do
    for j = 0 to Instance.n a - 1 do
      if Instance.q a i j <> Instance.q b i j then same := false
    done
  done;
  !same

let test_io_roundtrip () =
  let inst =
    Instance.make ~name:"rt"
      ~dag:(Dag.of_edges ~n:3 [ (0, 2); (1, 2) ])
      [| [| 0.5; 0.125; 0.0 |]; [| 1.0 /. 3.0; 0.9999; 1.0 |] |]
  in
  let back = Suu_core.Instance_io.of_string (Suu_core.Instance_io.to_string inst) in
  Alcotest.(check bool) "roundtrip" true (instances_equal inst back)

let test_io_rejects_garbage () =
  Alcotest.(check bool)
    "not a header" true
    (try
       ignore (Suu_core.Instance_io.of_string "hello\n");
       false
     with Failure _ -> true);
  Alcotest.(check bool)
    "truncated" true
    (try
       ignore
         (Suu_core.Instance_io.of_string
            "suu-instance v1\nname x\nmachines 1\njobs 1\nq\n");
       false
     with Failure _ -> true)

(* Malformed input must be rejected with an error locating the offending
   1-based line — these are the messages the server relays to clients. *)
let test_io_located_errors () =
  let expect label input msg =
    Alcotest.check_raises label (Failure msg) (fun () ->
        ignore (Suu_core.Instance_io.of_string input))
  in
  expect "bad name line" "suu-instance v1\nwrong stuff\n"
    "Instance_io: line 2: expected \"name\"";
  expect "bad machine count" "suu-instance v1\nname x\nmachines zz\njobs 1\n"
    "Instance_io: line 3: expected an integer, got \"zz\"";
  expect "bad float"
    "suu-instance v1\nname x\nmachines 1\njobs 1\nq\nNOTAFLOAT\nedges 0\nend\n"
    "Instance_io: line 6: bad float \"NOTAFLOAT\"";
  expect "wrong q arity"
    "suu-instance v1\nname x\nmachines 1\njobs 2\nq\n0.5\nedges 0\nend\n"
    "Instance_io: line 6: wrong number of q entries";
  expect "bad edge"
    "suu-instance v1\nname x\nmachines 1\njobs 2\nq\n0.5 0.5\nedges 1\n0\nend\n"
    "Instance_io: line 8: expected two node indices";
  expect "truncated mid-file" "suu-instance v1\nname x\nmachines 1\n"
    "Instance_io: line 4: expected \"jobs\""

let test_io_files () =
  let inst =
    Instance.make ~name:"file-rt" ~dag:(Dag.empty 2)
      [| [| 0.25; 0.75 |] |]
  in
  let path = Filename.temp_file "suu" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Suu_core.Instance_io.save_file path inst;
      let back = Suu_core.Instance_io.load_file path in
      Alcotest.(check bool) "file roundtrip" true (instances_equal inst back))

let prop_io_roundtrip =
  QCheck.Test.make ~count:80 ~name:"serialization roundtrips"
    QCheck.small_int (fun seed ->
      let inst =
        Suu_workload.Workload.forest
          (Suu_workload.Workload.Uniform { lo = 0.1; hi = 0.99 })
          ~n:12 ~trees:3 ~orientation:`Mixed ~m:3 ~seed
      in
      let back =
        Suu_core.Instance_io.of_string (Suu_core.Instance_io.to_string inst)
      in
      instances_equal inst back)

(* Unlike [prop_io_roundtrip] (which only varies a workload generator's
   seed), this drives dimensions, the q matrix and the edge set directly,
   including the awkward exact values 0 and 1. *)
let prop_io_roundtrip_random =
  QCheck.Test.make ~count:200 ~name:"random instances roundtrip"
    QCheck.(triple (int_range 1 5) (int_range 1 10) small_int)
    (fun (m, n, seed) ->
      (* The shrinker can escape int_range's bounds; clamp defensively. *)
      let m = max 1 m and n = max 1 n in
      let rng = Suu_prng.Rng.create ~seed:(Hashtbl.hash (m, n, seed)) in
      let q =
        Array.init m (fun _ ->
            Array.init n (fun _ ->
                match Suu_prng.Rng.int rng 5 with
                | 0 -> 0.0
                | 1 -> 1.0
                | _ -> Suu_prng.Rng.float rng 1.0))
      in
      (* Every job needs one machine that can finish it (q < 1). *)
      for j = 0 to n - 1 do
        if Array.for_all (fun row -> row.(j) = 1.0) q then
          q.(0).(j) <- Suu_prng.Rng.float rng 0.99
      done;
      let edges = ref [] in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Suu_prng.Rng.int rng 4 = 0 then edges := (a, b) :: !edges
        done
      done;
      let inst =
        Instance.make
          ~name:(Printf.sprintf "rand-%d-%d-%d" m n seed)
          ~dag:(Dag.of_edges ~n !edges)
          q
      in
      let back =
        Suu_core.Instance_io.of_string (Suu_core.Instance_io.to_string inst)
      in
      instances_equal inst back)

(* The canonical digest keys router placement and persisted result-store
   entries, so its value for a fixed instance is pinned: a change here
   would move every shard assignment and orphan every stored result. *)
let pinned_instance () =
  Instance.make ~name:"pinned"
    ~dag:(Dag.of_edges ~n:3 [ (0, 2); (1, 2) ])
    [| [| 0.5; 0.125; 0.0 |]; [| 1.0 /. 3.0; 0.9999; 1.0 |] |]

let test_io_digest_pinned () =
  let inst = pinned_instance () in
  let pinned = "9843ee60d6d2fcca32c069348adb67af" in
  Alcotest.(check string) "digest" pinned
    (Digest.to_hex (Suu_core.Instance_io.digest inst));
  Alcotest.(check string) "memoized digest" pinned
    (Digest.to_hex (Suu_core.Instance_io.digest inst));
  Alcotest.(check string) "equal instance, other value" pinned
    (Digest.to_hex (Suu_core.Instance_io.digest (pinned_instance ())))

let prop_io_digest_is_render_digest =
  QCheck.Test.make ~count:100 ~name:"digest = MD5 of the rendering"
    QCheck.small_int (fun seed ->
      let inst =
        Suu_workload.Workload.forest
          (Suu_workload.Workload.Uniform { lo = 0.05; hi = 0.99 })
          ~n:(1 + (seed mod 13)) ~trees:1 ~orientation:`Mixed
          ~m:(1 + (seed mod 4)) ~seed
      in
      let d = Suu_core.Instance_io.digest inst in
      d = Digest.string (Suu_core.Instance_io.to_string inst)
      && Suu_core.Instance_io.digest inst = d)

(* [float17] must render every double exactly as [Printf]'s [%.17g]. *)
let prop_float17_is_printf =
  let special =
    [ 0.0; -0.0; 1.0; -1.0; Float.succ 1.0; Float.pred 1.0;
      Float.min_float; Float.pred Float.min_float; Float.succ 0.0;
      Float.max_float; Float.infinity; Float.neg_infinity; Float.nan;
      0.1; 1.0 /. 3.0; 1e-300; 5e-324 ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (1, oneofl special);
          (3, map Int64.float_of_bits ui64);
          (2, float_range 0.0 1.0);
          (1, map (fun k -> Float.succ (float_of_int k)) small_nat) ])
  in
  QCheck.Test.make ~count:2000 ~name:"float17 = Printf %.17g"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x -> Suu_core.Instance_io.float17 x = Printf.sprintf "%.17g" x)

(* --- exact DP --- *)

let test_dp_single_geometric () =
  (* One job on one machine with q: E[T] = 1 / (1 - q). *)
  List.iter
    (fun q ->
      let inst = Instance.make ~dag:(Dag.empty 1) [| [| q |] |] in
      checkf4
        (Printf.sprintf "q = %.2f" q)
        (1.0 /. (1.0 -. q))
        (Exact_dp.expected_makespan inst))
    [ 0.0; 0.25; 0.5; 0.9 ]

let test_dp_two_machines_one_job () =
  (* Both machines always help: success prob 1 - q1 q2 per step. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.5 |]; [| 0.4 |] |] in
  checkf4 "1/(1-0.2)" (1.0 /. 0.8) (Exact_dp.expected_makespan inst)

let test_dp_chain () =
  (* Two jobs in a chain, one machine q = 0.5 for both: sequential
     geometrics, E = 2 + 2 = 4. *)
  let inst =
    Instance.make ~dag:(Dag.of_edges ~n:2 [ (0, 1) ])
      [| [| 0.5; 0.5 |] |]
  in
  checkf4 "chain" 4.0 (Exact_dp.expected_makespan inst)

let test_dp_independent_pair_one_machine () =
  (* Two independent jobs, one machine, q = 0.5 each.  The machine works
     on one at a time: E = 2 + 2 = 4 (no parallelism available). *)
  let inst = Instance.make ~dag:(Dag.empty 2) [| [| 0.5; 0.5 |] |] in
  checkf4 "serial sum" 4.0 (Exact_dp.expected_makespan inst)

let test_dp_budget () =
  let q = Array.make_matrix 3 12 0.5 in
  let inst = Instance.make ~dag:(Dag.empty 12) q in
  Alcotest.(check bool)
    "budget exceeded raises" true
    (try
       ignore (Exact_dp.expected_makespan ~budget:1000 inst);
       false
     with Invalid_argument _ -> true)

let random_tiny seed =
  let rng = Suu_prng.Rng.create ~seed in
  let n = 2 + Suu_prng.Rng.int rng 2 in
  let m = 1 + Suu_prng.Rng.int rng 2 in
  let q =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.2 ~hi:0.8))
  in
  Instance.make ~dag:(Dag.empty n) q

let test_dp_policy_matches_value () =
  (* Simulating the DP policy many times approximates the DP value. *)
  let inst = random_tiny 3 in
  let opt = Exact_dp.expected_makespan inst in
  let sim =
    Suu_sim.Runner.expected_makespan inst (Exact_dp.policy inst) ~seed:0
      ~reps:4000
  in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.3f vs dp %.3f" sim opt)
    true
    (Float.abs (sim -. opt) < 0.25 *. opt)

let test_chain_dp_simple () =
  (* Two jobs in a chain on one q = 0.5 machine: E = 2 + 2. *)
  let inst =
    Instance.make ~dag:(Dag.of_edges ~n:2 [ (0, 1) ]) [| [| 0.5; 0.5 |] |]
  in
  checkf4 "chain of two" 4.0 (Exact_dp.chains_expected_makespan inst)

let test_chain_dp_rejects_non_chains () =
  let inst =
    Instance.make
      ~dag:(Dag.of_edges ~n:3 [ (0, 1); (0, 2) ])
      (Array.make_matrix 1 3 0.5)
  in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (Exact_dp.chains_expected_makespan inst);
       false
     with Invalid_argument _ -> true)

let test_chain_dp_budget () =
  let inst = W.chains (W.Uniform { lo = 0.3; hi = 0.8 }) ~z:6 ~length:8 ~m:4 ~seed:1 in
  Alcotest.(check bool)
    "budget raises" true
    (try
       ignore (Exact_dp.chains_expected_makespan ~budget:100 inst);
       false
     with Invalid_argument _ -> true)

let test_ideal_dp_ladder () =
  (* A width-2 "ladder" dag with n = 20 jobs: the subset DP would need
     2^20 masks, the ideal DP visits O(n^2) states.  Cross-check against
     the chain DP on the two independent rails (the ladder without rungs
     is two chains; with rungs the optimum can only grow). *)
  let n = 20 in
  let rng = Suu_prng.Rng.create ~seed:9 in
  let q =
    Array.init 2 (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.3 ~hi:0.8))
  in
  (* rails: even jobs 0->2->4->..., odd jobs 1->3->5->...; rungs even->odd *)
  let edges = ref [] in
  for k = 0 to (n / 2) - 2 do
    edges := (2 * k, 2 * (k + 1)) :: !edges;
    edges := ((2 * k) + 1, (2 * (k + 1)) + 1) :: !edges
  done;
  for k = 0 to (n / 2) - 1 do
    edges := (2 * k, (2 * k) + 1) :: !edges
  done;
  let ladder = Instance.make ~dag:(Dag.of_edges ~n !edges) q in
  let v = Exact_dp.ideal_expected_makespan ladder in
  Alcotest.(check bool) "finite" true (Float.is_finite v && v > 0.0);
  let rails_only =
    Instance.make
      ~dag:
        (Dag.of_edges ~n
           (List.filter (fun (a, b) -> b - a = 2) !edges))
      q
  in
  let rails = Exact_dp.chains_expected_makespan rails_only in
  Alcotest.(check bool)
    (Printf.sprintf "ladder %.2f >= rails %.2f" v rails)
    true
    (v >= rails -. 1e-6)

let prop_ideal_dp_matches_generic =
  QCheck.Test.make ~count:20 ~name:"ideal DP = subset DP on random dags"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let n = 2 + Suu_prng.Rng.int rng 4 in
      let m = 1 + Suu_prng.Rng.int rng 2 in
      let q =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.2 ~hi:0.9))
      in
      (* random forward dag *)
      let edges = ref [] in
      for a = 0 to n - 2 do
        for b = a + 1 to n - 1 do
          if Suu_prng.Rng.bool rng then edges := (a, b) :: !edges
        done
      done;
      let inst = Instance.make ~dag:(Dag.of_edges ~n !edges) q in
      let a = Exact_dp.expected_makespan inst in
      let b = Exact_dp.ideal_expected_makespan inst in
      Float.abs (a -. b) < 1e-9 *. Float.max 1.0 a)

let prop_chain_dp_matches_generic =
  QCheck.Test.make ~count:25 ~name:"chain DP = subset DP on small chains"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let z = 1 + Suu_prng.Rng.int rng 2 in
      let len = 1 + Suu_prng.Rng.int rng 3 in
      let m = 1 + Suu_prng.Rng.int rng 2 in
      let inst =
        W.chains (W.Uniform { lo = 0.2; hi = 0.9 }) ~z ~length:len ~m ~seed
      in
      let a = Exact_dp.expected_makespan inst in
      let b = Exact_dp.chains_expected_makespan inst in
      Float.abs (a -. b) < 1e-9 *. Float.max 1.0 a)

let prop_dp_policy_never_beats_value =
  (* The DP value is optimal: any other policy's expected makespan is at
     least it (checked statistically with generous slack). *)
  QCheck.Test.make ~count:10 ~name:"greedy >= DP optimum (statistical)"
    QCheck.small_int (fun seed ->
      let inst = random_tiny seed in
      let opt = Exact_dp.expected_makespan inst in
      let greedy =
        Suu_sim.Runner.expected_makespan inst
          (Suu_core.Baselines.greedy_completion inst)
          ~seed ~reps:2000
      in
      greedy >= opt -. (0.15 *. opt) -. 0.2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "mathx",
        [
          Alcotest.test_case "log2" `Quick test_mathx_log2;
          Alcotest.test_case "rounds" `Quick test_mathx_rounds;
          Alcotest.test_case "targets" `Quick test_mathx_targets;
          Alcotest.test_case "guarded floors" `Quick test_mathx_floors;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basic" `Quick test_instance_basic;
          Alcotest.test_case "clipping" `Quick test_instance_clipping;
          Alcotest.test_case "q = 0" `Quick test_instance_zero_q;
          Alcotest.test_case "validation" `Quick test_instance_validation;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "metrics" `Quick test_assignment_metrics;
          Alcotest.test_case "log mass" `Quick test_assignment_log_mass;
          Alcotest.test_case "validation" `Quick test_assignment_validation;
        ] );
      ( "oblivious",
        [
          Alcotest.test_case "serialization" `Quick
            test_oblivious_serialization;
          Alcotest.test_case "empty" `Quick test_oblivious_empty;
        ] );
      ( "lp1",
        [
          Alcotest.test_case "validation" `Quick test_lp1_validation;
          Alcotest.test_case "certain machines (q=0)" `Quick
            test_lp1_with_certain_machines;
          Alcotest.test_case "subset" `Quick test_lp1_subset;
          Alcotest.test_case "mwu cert fallback" `Quick
            test_lp1_mwu_cert_fallback;
          Alcotest.test_case "mwu one machine" `Quick
            test_lp1_mwu_one_machine;
          Alcotest.test_case "mwu tiny fallback" `Quick
            test_lp1_mwu_tiny_fallback;
          Alcotest.test_case "solver-choice strings" `Quick
            test_solver_choice_strings;
        ] );
      ( "lp2",
        [
          Alcotest.test_case "feasible" `Quick test_lp2_feasible;
          Alcotest.test_case "lemma 6 rounding" `Quick test_lp2_round;
          Alcotest.test_case "lemma 6 chain growth" `Quick
            test_lp2_chain_length_growth;
          Alcotest.test_case "top machines" `Quick test_lp2_top_machines;
        ] );
      ( "lower-bounds",
        [
          Alcotest.test_case "single job" `Quick test_lower_bound_single_job;
          Alcotest.test_case "chain path" `Quick test_lower_bound_chain;
          Alcotest.test_case "work" `Quick test_lower_bound_work;
        ] );
      ( "instance-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "located errors" `Quick test_io_located_errors;
          Alcotest.test_case "files" `Quick test_io_files;
          Alcotest.test_case "pinned digest" `Quick test_io_digest_pinned;
          q prop_io_digest_is_render_digest;
          q prop_float17_is_printf;
        ] );
      ( "exact-dp",
        [
          Alcotest.test_case "geometric" `Quick test_dp_single_geometric;
          Alcotest.test_case "two machines" `Quick
            test_dp_two_machines_one_job;
          Alcotest.test_case "chain" `Quick test_dp_chain;
          Alcotest.test_case "serial pair" `Quick
            test_dp_independent_pair_one_machine;
          Alcotest.test_case "budget" `Quick test_dp_budget;
          Alcotest.test_case "policy simulation" `Slow
            test_dp_policy_matches_value;
          Alcotest.test_case "chain DP simple" `Quick test_chain_dp_simple;
          Alcotest.test_case "chain DP non-chains" `Quick
            test_chain_dp_rejects_non_chains;
          Alcotest.test_case "chain DP budget" `Quick test_chain_dp_budget;
          Alcotest.test_case "ideal DP ladder (n=20)" `Quick
            test_ideal_dp_ladder;
        ] );
      ( "properties",
        [
          q prop_lp1_feasible;
          q prop_lp1_mwu_close_to_simplex;
          q prop_lp1_oracle_doubling;
          q prop_rounding_lemma2;
          q prop_rounding_lemma2_big_targets;
          q prop_rounding_with_job_cap;
          q prop_lower_bound_below_dp;
          q prop_dp_policy_never_beats_value;
          q prop_chain_dp_matches_generic;
          q prop_ideal_dp_matches_generic;
          q prop_io_roundtrip;
          q prop_io_roundtrip_random;
        ] );
    ]
