(* The lib/sched online-policy family: LZF greedy, EASY-style backfill
   with runtime prediction, the shared predictor, and the policy
   registry that dispatches them.  The strict engine raises on any
   ineligible assignment, and the audit re-derives validity from the
   recording alone, so "runs clean through both" is the model-validity
   bar every policy must clear. *)

module Dag = Suu_dag.Dag
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Registry = Suu_core.Policy_registry
module Runner = Suu_sim.Runner
module Engine = Suu_sim.Engine
module Trace = Suu_sim.Trace
module Lzf = Suu_sched.Lzf
module Backfill = Suu_sched.Backfill
module Predictor = Suu_sched.Predictor
module W = Suu_workload.Workload
module Rng = Suu_prng.Rng

let () = Suu_sched.Register.ensure ()

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let shaped_instance ~shape ~seed =
  match shape mod 4 with
  | 0 -> W.independent uniform ~n:9 ~m:3 ~seed
  | 1 -> W.random_chains uniform ~n:9 ~z:3 ~m:3 ~seed
  | 2 -> W.forest uniform ~n:9 ~trees:2 ~orientation:`Out ~m:3 ~seed
  | _ -> W.mapreduce uniform ~maps:4 ~reduces:2 ~m:3 ~seed

let audit_clean inst policy ~seed =
  let rng = Rng.create ~seed in
  let trace = Trace.draw ~n:(Instance.n inst) (Rng.split rng) in
  let _r, steps = Engine.run_recorded inst policy ~trace ~rng in
  match Audit.check inst ~trace ~steps with
  | Ok () -> true
  | Error v ->
      Printf.eprintf "audit: step %d: %s\n" v.Audit.step v.Audit.message;
      false

(* --- LZF --- *)

let prop_lzf_audit_clean =
  QCheck.Test.make ~count:60 ~name:"lzf executions pass the audit"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let inst = shaped_instance ~shape ~seed in
      audit_clean inst (Lzf.policy inst) ~seed:(seed + 1))

let test_lzf_z_ranking () =
  (* Machine 0 is best for both jobs; job 1 has the lower failure
     probability there, hence the higher Z ratio, hence priority. *)
  let inst =
    Instance.make ~dag:(Dag.empty 2) [| [| 0.9; 0.2 |]; [| 0.95; 0.6 |] |]
  in
  Alcotest.(check bool)
    "z(1) > z(0)" true
    (Oracle_policies.z_ratio inst 1 > Oracle_policies.z_ratio inst 0);
  let stepper = Policy.fresh (Lzf.policy inst) (Rng.create ~seed:1) in
  let a =
    stepper ~time:0 ~remaining:[| true; true |] ~eligible:[| true; true |]
  in
  (* Job 1 takes its best machine (0); job 0 gets the remaining one. *)
  Alcotest.(check (list int)) "assignment" [ 1; 0 ] (Array.to_list a)

let test_lzf_idles_incapable () =
  (* Machine 1 has q = 1 for every job: it must idle rather than grind
     on a job it can never advance. *)
  let inst = Instance.make ~dag:(Dag.empty 1) [| [| 0.5 |]; [| 1.0 |] |] in
  let stepper = Policy.fresh (Lzf.policy inst) (Rng.create ~seed:1) in
  let a = stepper ~time:0 ~remaining:[| true |] ~eligible:[| true |] in
  Alcotest.(check (list int)) "machine 1 idle" [ 0; -1 ] (Array.to_list a)

let prop_lzf_replay_identical =
  QCheck.Test.make ~count:30
    ~name:"lzf same-seed replays are identical for any domain count"
    QCheck.small_int
    (fun seed ->
      let inst = W.independent uniform ~n:10 ~m:4 ~seed in
      let run jobs =
        Runner.makespans ~jobs inst (Lzf.policy inst) ~seed:(seed + 7)
          ~reps:6
      in
      run 1 = run 1 && run 1 = run 4)

(* --- backfill --- *)

let prop_backfill_audit_clean =
  QCheck.Test.make ~count:60 ~name:"backfill executions pass the audit"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let inst = shaped_instance ~shape ~seed in
      audit_clean inst (Backfill.policy inst) ~seed:(seed + 2))

let prop_backfill_replay_identical =
  QCheck.Test.make ~count:30
    ~name:"backfill same-seed replays are identical for any domain count"
    QCheck.small_int
    (fun seed ->
      let inst = W.independent uniform ~n:10 ~m:4 ~seed in
      let run jobs =
        Runner.makespans ~jobs inst (Backfill.policy inst) ~seed:(seed + 3)
          ~reps:6
      in
      run 1 = run 1 && run 1 = run 4)

(* The EASY invariant: backfilled jobs never delay the FCFS queue.  On
   an independent instance every job is eligible from step 0, so the
   FCFS (non-backfilled) starts must come in strict job-index order —
   any inversion means a backfilled job held machines the head needed
   without being preempted. *)
let prop_backfill_fcfs_order =
  QCheck.Test.make ~count:40
    ~name:"backfill FCFS starts in index order on independent instances"
    QCheck.small_int
    (fun seed ->
      let inst = W.independent uniform ~n:10 ~m:3 ~seed in
      let events = ref [] in
      let policy =
        Backfill.policy ~on_event:(fun e -> events := e :: !events) inst
      in
      let rng = Rng.create ~seed:(seed + 5) in
      let trace = Trace.draw ~n:10 (Rng.split rng) in
      let _ = Engine.run inst policy ~trace ~rng in
      let fcfs_starts =
        List.rev_map
          (function
            | Backfill.Started { job; backfilled = false; _ } -> Some job
            | _ -> None)
          !events
        |> List.filter_map Fun.id
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      sorted fcfs_starts)

(* Preempted jobs must have been started as backfill: the scheduler
   never cancels an FCFS job. *)
let prop_backfill_preempts_only_backfilled =
  QCheck.Test.make ~count:40 ~name:"backfill preempts only backfilled jobs"
    QCheck.small_int
    (fun seed ->
      let inst = W.independent uniform ~n:10 ~m:3 ~seed in
      let events = ref [] in
      let policy =
        Backfill.policy ~on_event:(fun e -> events := e :: !events) inst
      in
      let rng = Rng.create ~seed:(seed + 6) in
      let trace = Trace.draw ~n:10 (Rng.split rng) in
      let _ = Engine.run inst policy ~trace ~rng in
      let events = List.rev !events in
      (* Replay the event stream: a job's backfill flag holds from its
         latest start to its preemption. *)
      let bfilled = Hashtbl.create 16 in
      List.for_all
        (function
          | Backfill.Started { job; backfilled; _ } ->
              Hashtbl.replace bfilled job backfilled;
              true
          | Backfill.Preempted { job; _ } ->
              Option.value (Hashtbl.find_opt bfilled job) ~default:false)
        events)

let test_backfill_width_override () =
  let inst = W.independent uniform ~n:6 ~m:4 ~seed:11 in
  Alcotest.(check bool)
    "width 1 completes" true
    (audit_clean inst (Backfill.policy ~width:(fun _ -> 1) inst) ~seed:12);
  Alcotest.(check bool)
    "width m completes" true
    (audit_clean inst (Backfill.policy ~width:(fun _ -> 4) inst) ~seed:13)

(* --- pinned makespans --- *)

(* Makespans recorded from the first versions of the lzf, greedy and
   backfill steppers (8 replications, seed 7, one domain), on one
   instance per regime at n = 48, m = 8.  The narrow width override
   makes backfill compute reservations and start jobs behind the head,
   which its default widths rarely do; the test also checks that it
   did.  A stepper rewrite must reproduce every schedule. *)
let pinned_instances =
  [
    ("independent", W.independent uniform ~n:48 ~m:8 ~seed:101);
    ("near-one", W.independent W.Near_one ~n:48 ~m:8 ~seed:102);
    ("chains", W.random_chains uniform ~n:48 ~z:8 ~m:8 ~seed:103);
    ( "forest",
      W.forest uniform ~n:48 ~trees:6 ~orientation:`Mixed ~m:8 ~seed:104 );
  ]

let pinned =
  [
    ( "independent",
      [ ("lzf", [| 12; 11; 10; 10; 11; 13; 10; 10 |]);
        ("greedy", [| 11; 11; 10; 9; 10; 11; 9; 9 |]);
        ("backfill", [| 30; 26; 28; 25; 29; 26; 28; 27 |]);
        ("backfill-narrow", [| 19; 15; 24; 15; 46; 18; 18; 15 |]) ] );
    ( "near-one",
      [ ("lzf", [| 96; 89; 86; 68; 118; 95; 69; 88 |]);
        ("greedy", [| 91; 82; 79; 64; 110; 88; 64; 78 |]);
        ("backfill", [| 154; 143; 131; 105; 183; 149; 118; 130 |]);
        ("backfill-narrow", [| 166; 142; 246; 132; 188; 145; 149; 139 |]) ] );
    ( "chains",
      [ ("lzf", [| 20; 17; 17; 17; 20; 20; 16; 16 |]);
        ("greedy", [| 19; 16; 18; 17; 21; 18; 16; 16 |]);
        ("backfill", [| 30; 28; 27; 27; 32; 28; 27; 26 |]);
        ("backfill-narrow", [| 31; 22; 23; 22; 24; 24; 20; 21 |]) ] );
    ( "forest",
      [ ("lzf", [| 13; 12; 12; 9; 13; 14; 11; 12 |]);
        ("greedy", [| 13; 12; 11; 11; 13; 15; 11; 11 |]);
        ("backfill", [| 29; 27; 27; 25; 28; 30; 26; 26 |]);
        ("backfill-narrow", [| 28; 19; 18; 16; 41; 20; 15; 20 |]) ] );
  ]

let test_pinned_makespans () =
  List.iter
    (fun (shape, inst) ->
      let backfilled = ref 0 in
      let on_event = function
        | Backfill.Started { backfilled = true; _ } -> incr backfilled
        | _ -> ()
      in
      let policies =
        [ ("lzf", Lzf.policy inst);
          ("greedy", Suu_core.Baselines.greedy_completion inst);
          ("backfill", Backfill.policy inst);
          ( "backfill-narrow",
            Backfill.policy ~on_event ~width:(fun j -> 1 + (j mod 3)) inst ) ]
      in
      List.iter
        (fun (name, expected) ->
          let got =
            Runner.makespans ~jobs:1 inst (List.assoc name policies) ~seed:7
              ~reps:8
            |> Array.map int_of_float
          in
          Alcotest.(check (array int)) (shape ^ " " ^ name) expected got)
        (List.assoc shape pinned);
      Alcotest.(check bool)
        (shape ^ " narrow backfill starts jobs behind the head")
        true (!backfilled > 0))
    pinned_instances

(* --- predictor --- *)

let test_predictor_converges_exact () =
  (* Constant runtimes: once the window has one observation the
     prediction is exactly that constant, for every job of the class. *)
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:21 in
  let p = Predictor.create inst ~seed:5 in
  Predictor.observe p ~job:0 ~runtime:17;
  let cls_mates =
    List.filter
      (fun j ->
        Instance.best_machine inst j = Instance.best_machine inst 0)
      [ 0; 1; 2; 3 ]
  in
  List.iter
    (fun j ->
      Alcotest.(check (float 1e-9)) "exact constant" 17.0
        (Predictor.predict p j))
    cls_mates

let test_predictor_window_mean () =
  (* The prediction is the mean of the last [window] observations: old
     samples age out. *)
  let inst = W.independent uniform ~n:2 ~m:2 ~seed:22 in
  let p = Predictor.create ~window:3 inst ~seed:5 in
  List.iter (fun r -> Predictor.observe p ~job:0 ~runtime:r) [ 100; 4; 5; 6 ];
  Alcotest.(check (float 1e-9)) "mean of last 3" 5.0 (Predictor.predict p 0);
  Alcotest.(check int) "observed counts all" 4 (Predictor.observed p 0)

let test_predictor_converges_noisy () =
  (* Noisy stationary runtimes: the windowed prediction lands near the
     true mean (10), far from the initial model estimate. *)
  let inst = W.independent uniform ~n:2 ~m:2 ~seed:23 in
  let p = Predictor.create ~window:8 inst ~seed:5 in
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 200 do
    let r = 5 + Rng.int rng 11 in
    Predictor.observe p ~job:0 ~runtime:r
  done;
  let pred = Predictor.predict p 0 in
  Alcotest.(check bool)
    (Printf.sprintf "prediction %.2f within [7, 13]" pred)
    true
    (pred >= 7.0 && pred <= 13.0)

let test_predictor_deterministic () =
  let inst = W.independent uniform ~n:6 ~m:3 ~seed:24 in
  let mk () =
    let p = Predictor.create inst ~seed:42 in
    List.init 6 (Predictor.predict p)
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same estimates" (mk ())
    (mk ());
  let other =
    let p = Predictor.create inst ~seed:43 in
    List.init 6 (Predictor.predict p)
  in
  Alcotest.(check bool) "different seed jitters" true (mk () <> other)

let test_predictor_floor_and_validation () =
  let inst = W.independent uniform ~n:2 ~m:2 ~seed:25 in
  let p = Predictor.create inst ~seed:1 in
  Predictor.observe p ~job:0 ~runtime:0;
  Alcotest.(check bool)
    "clamped to >= 1" true
    (Predictor.predict p 0 >= 1.0);
  Alcotest.check_raises "window < 1 rejected"
    (Invalid_argument "Predictor.create: window must be >= 1") (fun () ->
      ignore (Predictor.create ~window:0 inst ~seed:1))

let test_predictor_observe_allocates_nothing () =
  (* The window sum lives in float-only storage, so recording a runtime
     boxes nothing; the window fills and then wraps.  The whole-step
     prediction backfill reads is an int, so reading it boxes nothing
     either. *)
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:26 in
  let p = Predictor.create ~window:3 inst ~seed:5 in
  let w0 = Gc.minor_words () in
  for r = 1 to 1000 do
    Predictor.observe p ~job:(r land 3) ~runtime:r
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 1000 calls" 0.0 (w1 -. w0);
  let steps = ref 0 in
  let w0 = Gc.minor_words () in
  for j = 0 to 999 do
    steps := !steps + Predictor.predicted_steps p (j land 3)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "predicted_steps, 1000 calls" 0.0 (w1 -. w0);
  Alcotest.(check int) "predicted_steps = ceil predict"
    (List.fold_left
       (fun acc j ->
         acc + (250 * int_of_float (Float.ceil (Predictor.predict p j))))
       0 [ 0; 1; 2; 3 ])
    !steps

(* --- registry --- *)

let test_registry_has_sched_policies () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (Registry.mem name);
      Alcotest.(check bool) (name ^ " lp-free") true (Registry.lp_free name))
    [ "lzf"; "backfill" ]

(* Every registered policy, built through the registry on an instance
   matching its shape requirement, must complete and pass the audit —
   the dispatch path the server and CLI use is exactly this one. *)
let test_registry_every_policy_audits_clean () =
  let for_shape = function
    | Registry.Any_shape | Registry.Independent_only ->
        W.independent uniform ~n:8 ~m:3 ~seed:31
    | Registry.Chains_only -> W.random_chains uniform ~n:8 ~z:2 ~m:3 ~seed:32
    | Registry.Forest_only ->
        W.forest uniform ~n:8 ~trees:2 ~orientation:`Out ~m:3 ~seed:33
  in
  List.iter
    (fun (e : Registry.entry) ->
      let inst = for_shape e.Registry.shape in
      match Registry.build e.Registry.name inst with
      | Ok policy ->
          Alcotest.(check bool)
            (e.Registry.name ^ " audits clean")
            true
            (audit_clean inst policy ~seed:34)
      | Error _ ->
          Alcotest.failf "%s failed to build on a matching instance"
            e.Registry.name)
    (Registry.entries ())

let test_registry_unknown_lists_names () =
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:35 in
  match Registry.build "no-such-policy" inst with
  | Error (`Unknown msg) ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" name)
            true
            (contains ~sub:name msg))
        (Registry.names ())
  | Error (`Inapplicable _) | Ok _ ->
      Alcotest.fail "expected `Unknown for a made-up policy name"

let test_registry_shape_mismatch () =
  (* A chained instance must not build independent-only policies. *)
  let inst = W.random_chains uniform ~n:8 ~z:2 ~m:3 ~seed:36 in
  (match Registry.build "suu-i-sem" inst with
  | Error (`Inapplicable msg) ->
      Alcotest.(check bool)
        "mentions the requirement" true
        (contains ~sub:"independent" msg)
  | _ -> Alcotest.fail "expected `Inapplicable for suu-i-sem on chains");
  Alcotest.(check bool)
    "applicable excludes suu-i-sem" true
    (not (List.mem "suu-i-sem" (Registry.applicable inst)));
  Alcotest.(check bool)
    "applicable includes lzf" true
    (List.mem "lzf" (Registry.applicable inst))

let test_registry_duplicate_raises () =
  let e = Option.get (Registry.find "lzf") in
  Alcotest.(check bool)
    "duplicate registration raises" true
    (match Registry.register e with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "sched"
    [
      ( "lzf",
        [
          QCheck_alcotest.to_alcotest prop_lzf_audit_clean;
          QCheck_alcotest.to_alcotest prop_lzf_replay_identical;
          Alcotest.test_case "z ranking drives assignment" `Quick
            test_lzf_z_ranking;
          Alcotest.test_case "incapable machines idle" `Quick
            test_lzf_idles_incapable;
        ] );
      ( "backfill",
        [
          QCheck_alcotest.to_alcotest prop_backfill_audit_clean;
          QCheck_alcotest.to_alcotest prop_backfill_replay_identical;
          QCheck_alcotest.to_alcotest prop_backfill_fcfs_order;
          QCheck_alcotest.to_alcotest prop_backfill_preempts_only_backfilled;
          Alcotest.test_case "width overrides complete" `Quick
            test_backfill_width_override;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "lzf, greedy and backfill makespans" `Quick
            test_pinned_makespans;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "constant runtimes predicted exactly" `Quick
            test_predictor_converges_exact;
          Alcotest.test_case "sliding window ages out old samples" `Quick
            test_predictor_window_mean;
          Alcotest.test_case "noisy runtimes converge to the mean" `Quick
            test_predictor_converges_noisy;
          Alcotest.test_case "seeded determinism" `Quick
            test_predictor_deterministic;
          Alcotest.test_case "floor and validation" `Quick
            test_predictor_floor_and_validation;
          Alcotest.test_case "observe and predicted_steps allocate nothing" `Quick
            test_predictor_observe_allocates_nothing;
        ] );
      ( "registry",
        [
          Alcotest.test_case "sched policies registered lp-free" `Quick
            test_registry_has_sched_policies;
          Alcotest.test_case "every policy audits clean via dispatch" `Quick
            test_registry_every_policy_audits_clean;
          Alcotest.test_case "unknown error lists every name" `Quick
            test_registry_unknown_lists_names;
          Alcotest.test_case "shape mismatch is a located error" `Quick
            test_registry_shape_mismatch;
          Alcotest.test_case "duplicate registration rejected" `Quick
            test_registry_duplicate_raises;
        ] );
    ]
