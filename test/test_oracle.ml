(* Differential tests: the allocation-free greedy, round-robin, serial
   and backfill steppers against the straightforward versions kept in
   Oracle_policies.  Both run on the same instance, trace and execution
   rng; every recorded assignment row, the engine result and backfill's
   event stream must be equal. *)

module Instance = Suu_core.Instance
module Baselines = Suu_core.Baselines
module Engine = Suu_sim.Engine
module Trace = Suu_sim.Trace
module Backfill = Suu_sched.Backfill
module W = Suu_workload.Workload
module Rng = Suu_prng.Rng

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

let recorded inst policy ~seed =
  let rng = Rng.create ~seed in
  let trace = Trace.draw ~n:(Instance.n inst) (Rng.split rng) in
  Engine.run_recorded inst policy ~trace ~rng

let same_run ~what inst oracle prod ~seed =
  let r_o, rows_o = recorded inst oracle ~seed in
  let r_p, rows_p = recorded inst prod ~seed in
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
      what first r_o.Engine.makespan r_p.Engine.makespan
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

(* Backfill with an event log per side: the assignment rows and the
   Started/Preempted stream must both match. *)
let backfill_matches ?width inst ~seed =
  let log () =
    let events = ref [] in
    (events, fun e -> events := e :: !events)
  in
  let ev_o, on_o = log () and ev_p, on_p = log () in
  same_run ~what:"backfill" inst
    (Oracle_policies.backfill ?width ~on_event:on_o inst)
    (Backfill.policy ?width ~on_event:on_p inst)
    ~seed
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

let () =
  Alcotest.run "oracle"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_baselines; prop_backfill; prop_backfill_width ] );
    ]
