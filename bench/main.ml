(* Benchmark harness regenerating the paper's evaluation.

   The paper (SPAA 2008) is theory-only: its entire evaluation is Table 1,
   a table of approximation guarantees for three precedence classes.  This
   harness regenerates that table *empirically*: for each row it measures
   expected-makespan ratios against certified lower bounds, across sizes,
   and fits the growth of those ratios against the claimed asymptotics
   (log n for the previously-best algorithms, log log for this paper's).
   Experiments E4-E8 and A1-A3 probe the supporting claims (exact optima,
   Appendix C, the competitive argument, Theorem 7's random delays, the
   machine-step breakdown, the Lemma-2/6 rounding constants, the LP
   backends, greedy vs LP); `perf` runs bechamel micro-benchmarks of every
   substrate, and table1, serve, chaos, replay and shard measure the
   served system.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe e1 e4 perf # selected experiments
   Experiment ids: e1 e1m e2 e3 e4 e5 e6 e7 e8 a1 a2 a3 perf table1 serve
   chaos replay shard (see DESIGN.md and [experiments] below).  Flags:
   --connections N and --workload SPEC for serve.

   perf, table1, serve, chaos, replay and shard each write
   BENCH_<id>.json, then run that experiment's checks from
   {!Checks.table} on it, all but the baseline rules, which gate.exe
   adds.  The run exits 1 if any check failed. *)

module W = Suu_workload.Workload
module Table = Suu_util.Table
module Summary = Suu_stats.Summary
module Fit = Suu_stats.Fit
module Runner = Suu_sim.Runner
module Instance = Suu_core.Instance
module LB = Suu_core.Lower_bound

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* SUU_PERF_SCALE=tiny shrinks perf, serve, chaos, replay, shard and
   table1 to a CI smoke size. *)
let tiny_scale () = Sys.getenv_opt "SUU_PERF_SCALE" = Some "tiny"

module J = Suu_util.Json

let num x = J.Float x
let int n = J.Float (float_of_int n)
let str s = J.String s

(* {"p50": q 0.5, ...}: [q] at each named quantile, in order. *)
let quantiles q ps = J.Obj (List.map (fun (k, p) -> (k, num (q p))) ps)
let p50_to_max = [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99); ("max", 1.0) ]

(* [let growth = growth_since () in ... let d = growth () in d name]:
   how far the obs counter [name] grew between the two snapshots.  The
   registry is process-wide, so a bench reads its own run's counts even
   after other benches ran in the same process. *)
let growth_since () =
  let counters () = (Suu_obs.Registry.snapshot ()).Suu_obs.Registry.counters in
  let before = counters () in
  fun () ->
    let now = counters () in
    fun name ->
      let get cs = Option.value (List.assoc_opt name cs) ~default:0 in
      get now - get before

(* How many checks failed in the artifacts written so far. *)
let failed_checks = ref 0

(* BENCH_<experiment>.json: the experiment id and scale, then [fields].
   The written file is then checked against the experiment's rules. *)
let write_artifact experiment fields =
  let file = Printf.sprintf "BENCH_%s.json" experiment in
  J.to_file file
    (J.Obj
       (("experiment", str experiment)
       :: ("scale", str (if tiny_scale () then "tiny" else "full"))
       :: fields));
  note "\nwrote %s" file;
  Checks.verify (J.of_file file);
  failed_checks := !failed_checks + Checks.report ()

(* Durable memoization: with SUU_STORE set to a directory, every ratio
   sweep routes through {!Suu_store.Memo} — committed replication
   batches are served from the store and only missing ones are
   computed (and committed), so re-running the harness after a crash
   (or with more experiments) is incremental.  Results are bit-identical
   either way: replication [k]'s seeding depends only on [(seed, k)].
   The perf experiment keeps calling [Runner.makespans] directly — its
   point is to time the computation, not to skip it. *)
let store =
  lazy
    (match Sys.getenv_opt "SUU_STORE" with
    | Some dir when dir <> "" ->
        Some (Suu_store.Result_store.open_store dir)
    | _ -> None)

let makespans ?cap ?jobs inst policy ~seed ~reps =
  match Lazy.force store with
  | None -> Runner.makespans ?cap ?jobs inst policy ~seed ~reps
  | Some st ->
      Suu_store.Memo.makespans ~store:st ?cap ?jobs inst policy ~seed ~reps

(* ------------------------------------------------------------------ *)
(* The ratio sweep behind E1-E4 and A3.  Each row is an instance and
   the bound its cells are divided by.  A column is a
   Suu_core.Policy_registry entry, built with the sweep's [?solver]; a
   policy the registry cannot build as the experiment needs; or a value
   read once the columns to its left have run. *)

type column =
  | Policy of string
  | Built of (Instance.t -> Suu_core.Policy.t)
  | After of (unit -> float)

(* Prints one table: row [(label, inst, bound, values)] reads [label],
   [values], [bound], then a cell per column, where a policy's cell is
   its mean makespan over [reps] traces divided by [bound].  Returns
   the column cells, row by row. *)
let ratio_sweep ~header ~seed ~reps ?solver columns rows =
  let table = Table.create ~header in
  let cells (label, inst, bound, values) =
    let ratio policy =
      let xs = makespans inst policy ~seed ~reps in
      Array.fold_left ( +. ) 0.0 xs
      /. float_of_int reps
      /. Float.max bound 1e-9
    in
    let cell = function
      | Policy name -> (
          match Suu_core.Policy_registry.build ?solver name inst with
          | Ok policy -> ratio policy
          | Error (`Unknown msg | `Inapplicable msg) -> failwith msg)
      | Built build -> ratio (build inst)
      | After read -> read ()
    in
    let cs = List.map cell columns in
    Table.add_float_row table label (values @ (bound :: cs));
    Array.of_list cs
  in
  let matrix = Array.of_list (List.map cells rows) in
  Table.print table;
  matrix

(* Row [label] of [inst] against its combined lower bound. *)
let lb_row ?solver label inst = (label, inst, LB.combined ?solver inst, [])

(* ------------------------------------------------------------------ *)
(* E1 — Table 1, row "Independent":
   O(log n) (Lin-Rajaraman / SUU-I-OBL) vs O(log log min(m,n))
   (SUU-I-SEM). *)

let e1 () =
  section
    "E1: Table 1 row 'Independent' - ratio to lower bound vs n \
     (m = 8, 10 traces/point)";
  let m = 8 and seed = 101 and reps = 10 in
  let sizes = [ 8; 16; 32; 64; 128; 256 ] in
  let sweep hazard =
    Printf.printf "hazard: %s\n" (W.hazard_name hazard);
    let ratios =
      ratio_sweep ~seed ~reps
        ~header:
          [ "n"; "lower bd"; "SUU-I-SEM"; "SUU-I-OBL"; "grd-obl"; "greedy";
            "rrobin" ]
        [ Policy "suu-i-sem"; Policy "suu-i-obl"; Policy "greedy-oblivious";
          Policy "greedy"; Policy "round-robin" ]
        (List.map
           (fun n ->
             lb_row (string_of_int n)
               (W.independent hazard ~n ~m ~seed:(seed + n)))
           sizes)
    in
    print_newline ();
    ratios
  in
  let near_one = sweep W.Near_one in
  ignore (sweep (W.Uniform { lo = 0.2; hi = 0.95 }));
  ignore (sweep (W.Specialists { capable = 3 }));
  (* Growth-shape check on the separating hazard (near-one): the paper
     claims SEM grows like loglog n and OBL like log n. *)
  let xs = Array.of_list (List.map float_of_int sizes) in
  let cells k ratios = Array.map (fun row -> row.(k)) ratios in
  let sem = cells 0 near_one and obl = cells 1 near_one in
  let fit f ys = (Fit.fit_against ~f ~xs ~ys).Fit.slope in
  note "growth fits on near-one hazard (slope per unit of growth fn):";
  note "  SUU-I-SEM: %.3f per log2 n, %.3f per loglog2 n" (fit Fit.log2 sem)
    (fit Fit.loglog2 sem);
  note "  SUU-I-OBL: %.3f per log2 n, %.3f per loglog2 n" (fit Fit.log2 obl)
    (fit Fit.loglog2 obl);
  note
    "expected shape: OBL's log2-slope clearly positive; SEM's much \
     smaller (Table 1: O(log n) -> O(log log min(m,n))).";
  (* Large-n extension: the MWU backend replaces the exact simplex so the
     sweep reaches n = 1024 (ablation A2 justifies the swap). *)
  let solver = Suu_core.Solver_choice.Mwu 0.1 in
  let big = [ 256; 512; 1024 ] in
  note "large-n extension (near-one hazard, m = 16, MWU LP backend):";
  let big_ratios =
    ratio_sweep ~seed ~reps:3 ~solver
      ~header:[ "n"; "lower bd"; "SUU-I-SEM"; "SUU-I-OBL"; "greedy" ]
      [ Policy "suu-i-sem"; Policy "suu-i-obl"; Policy "greedy" ]
      (List.map
         (fun n ->
           lb_row ~solver (string_of_int n)
             (W.independent W.Near_one ~n ~m:16 ~seed:(seed + n)))
         big)
  in
  let xs2 = Array.append xs (Array.of_list (List.map float_of_int big)) in
  let sem2 = Array.append sem (cells 0 big_ratios) in
  let obl2 = Array.append obl (cells 1 big_ratios) in
  let fit2 f ys = (Fit.fit_against ~f ~xs:xs2 ~ys).Fit.slope in
  note "growth fits over the full 8..1024 sweep:";
  note "  SUU-I-SEM: %.3f per log2 n" (fit2 Fit.log2 sem2);
  note "  SUU-I-OBL: %.3f per log2 n" (fit2 Fit.log2 obl2)

(* ------------------------------------------------------------------ *)
(* E1m — the machine-count side of Table 1's min(m, n): ratios vs m. *)

let e1m () =
  section
    "E1m: Table 1 row 'Independent' - ratio vs m (near-one hazard, \
     n = 64, 10 traces/point)";
  let n = 64 and seed = 131 and reps = 10 in
  ignore
    (ratio_sweep ~seed ~reps
       ~header:[ "m"; "lower bd"; "SUU-I-SEM"; "SUU-I-OBL"; "greedy" ]
       [ Policy "suu-i-sem"; Policy "suu-i-obl"; Policy "greedy" ]
       (List.map
          (fun m ->
            lb_row (string_of_int m)
              (W.independent W.Near_one ~n ~m ~seed:(seed + m)))
          [ 2; 4; 8; 16; 32 ]));
  note
    "\nexpected shape: SEM's ratio stays flat in m as well - the bound \
     is loglog of min(m, n), so varying either argument below the other \
     changes only the loglog; OBL's log n factor is m-independent, so \
     both curves are flat here and the SEM < OBL gap persists."

(* ------------------------------------------------------------------ *)
(* E2 — Table 1, row "Disjoint Chains". *)

let e2 () =
  section
    "E2: Table 1 row 'Disjoint Chains' - SUU-C ratio to lower bound \
     (m = 4, 5 traces/point)";
  let m = 4 and seed = 202 and reps = 5 in
  (* Each row's SUU-C gets a fresh stats record; the last column reads
     its congestion after the SUU-C traces ran. *)
  let stats = ref (Suu_core.Suu_c.new_stats ()) in
  let suu_c inst =
    stats := Suu_core.Suu_c.new_stats ();
    Suu_core.Suu_c.policy ~stats:!stats inst
  in
  ignore
    (ratio_sweep ~seed ~reps
       ~header:
         [ "n"; "chains"; "lower bd"; "SUU-C"; "greedy"; "serial";
           "max congestion" ]
       [ Built suu_c; Policy "greedy"; Policy "serial";
         After (fun () -> float_of_int !stats.Suu_core.Suu_c.max_congestion)
       ]
       (List.map
          (fun (z, len) ->
            let n = z * len in
            let inst =
              W.chains (W.Uniform { lo = 0.2; hi = 0.95 }) ~z ~length:len ~m
                ~seed:(seed + n)
            in
            (string_of_int n, inst, LB.combined inst, [ float_of_int z ]))
          [ (8, 6); (12, 8); (20, 8); (24, 10) ]));
  note
    "\nexpected shape: SUU-C's ratio stays within a slowly-growing band \
     (O(log(n+m) loglog min(m,n)) with substantial constants from the \
     6x rounding and the {0..H} delays); congestion stays near the \
     O(log(n+m)/loglog(n+m)) bound of Theorem 7."

(* ------------------------------------------------------------------ *)
(* E3 — Table 1, row "Directed Forests". *)

let e3 () =
  section
    "E3: Table 1 row 'Directed Forests' - SUU-T ratio to lower bound \
     (m = 4, 5 traces/point)";
  let m = 4 and seed = 303 and reps = 5 in
  ignore
    (ratio_sweep ~seed ~reps
       ~header:[ "n"; "blocks"; "lower bd"; "SUU-T"; "greedy"; "rrobin" ]
       [ Policy "suu-t"; Policy "greedy"; Policy "round-robin" ]
       (List.map
          (fun n ->
            let inst =
              W.forest (W.Uniform { lo = 0.2; hi = 0.95 }) ~n
                ~trees:(max 1 (n / 8)) ~orientation:`Mixed ~m
                ~seed:(seed + n)
            in
            let blocks = Array.length (Suu_core.Suu_t.blocks inst) in
            (string_of_int n, inst, LB.combined inst, [ float_of_int blocks ]))
          [ 32; 64; 128; 192 ]));
  note
    "\nexpected shape: block count <= floor(log2 n) + 1 (heavy-path \
     bound); SUU-T's ratio tracks blocks x SUU-C's ratio (Theorem 12)."

(* ------------------------------------------------------------------ *)
(* E4 — measured ratios against the exact optimum on tiny instances. *)

let e4 () =
  section "E4: tiny instances vs exact E[T_OPT] (DP; 1000 traces/point)";
  let seed = 404 in
  ignore
    (ratio_sweep ~seed ~reps:1000
       ~header:
         [ "n x m"; "E[T_OPT]"; "DP policy"; "SUU-I-SEM"; "SUU-I-OBL";
           "greedy" ]
       [ Built Suu_core.Exact_dp.policy;
         Policy "suu-i-sem"; Policy "suu-i-obl"; Policy "greedy" ]
       (List.map
          (fun (n, m) ->
            let inst =
              W.independent (W.Uniform { lo = 0.2; hi = 0.9 }) ~n ~m
                ~seed:(seed + (10 * n) + m)
            in
            ( Printf.sprintf "%dx%d" n m, inst,
              Suu_core.Exact_dp.expected_makespan inst, [] ))
          [ (3, 2); (4, 2); (4, 3); (5, 2) ]));
  (* Chain-structured exact optima (Malewicz's bounded-width regime via
     the per-chain-position DP) validate SUU-C against true E[T_OPT]. *)
  note "chains against the exact optimum (chain-position DP; 400 traces):";
  ignore
    (ratio_sweep ~seed ~reps:400
       ~header:[ "z x len x m"; "E[T_OPT]"; "SUU-C"; "greedy"; "serial" ]
       [ Policy "suu-c"; Policy "greedy"; Policy "serial" ]
       (List.map
          (fun (z, len, m) ->
            let inst =
              W.chains (W.Uniform { lo = 0.2; hi = 0.9 }) ~z ~length:len ~m
                ~seed:(seed + (100 * z) + len)
            in
            ( Printf.sprintf "%dx%dx%d" z len m, inst,
              Suu_core.Exact_dp.chains_expected_makespan inst, [] ))
          [ (2, 4, 2); (3, 5, 2); (2, 8, 3) ]));
  note
    "\nexpected shape: DP-policy ratio = 1.0 (sanity: the simulator \
     reproduces the computed optimum); all ratios small constants, \
     consistent with the O(.) guarantees at trivial sizes; SUU-C's \
     true ratio at small sizes is dominated by its 6x rounding and \
     {0..H} delay constants."

(* ------------------------------------------------------------------ *)
(* E5 — Appendix C: STC-I on stochastic job lengths. *)

let e5 () =
  section "E5: Appendix C - STC-I ratio to the offline LL bound (m = 4)";
  let m = 4 and reps = 30 in
  let sizes = [| 8; 16; 32; 48 |] in
  let table =
    Table.create
      ~header:
        [ "n"; "K"; "E[makespan]"; "E[offline]"; "ratio";
          "STC-R ratio" ]
  in
  Array.iter
    (fun n ->
      let rng = Suu_prng.Rng.create ~seed:(505 + n) in
      let rates =
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.3 ~hi:3.0)
      in
      let speeds =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:2.0))
      in
      let inst = Suu_stoch.Stoch_instance.make ~rates speeds in
      let runs = Suu_stoch.Stc_i.runs inst ~seed:(606 + n) ~reps in
      let mk =
        Summary.mean (Array.map (fun r -> r.Suu_stoch.Stc_i.makespan) runs)
      in
      let off =
        Summary.mean (Array.map (fun r -> r.Suu_stoch.Stc_i.offline) runs)
      in
      let runs_r = Suu_stoch.Stc_r.runs inst ~seed:(606 + n) ~reps in
      let mk_r =
        Summary.mean (Array.map (fun r -> r.Suu_stoch.Stc_r.makespan) runs_r)
      in
      let off_r =
        Summary.mean (Array.map (fun r -> r.Suu_stoch.Stc_r.offline) runs_r)
      in
      Table.add_float_row table (string_of_int n)
        [ float_of_int (Suu_stoch.Stc_i.rounds inst); mk; off; mk /. off;
          mk_r /. off_r ])
    sizes;
  Table.print table;
  note
    "\nexpected shape: both ratios small, near-flat constants as n \
     grows (Theorem 13: O(log log n)); STC-R pays a little more since \
     restarts are weaker than preemption and each round uses the \
     2-approximate LST schedule."

(* ------------------------------------------------------------------ *)
(* E6 — the competitive claim: deterministic adversarial thresholds. *)

(* Offline fractional bound: the minimum load assignment covering each
   job j's clipped threshold w_j (the LP a clairvoyant scheduler must
   still satisfy). *)
let offline_bound inst w =
  let m = Instance.m inst and n = Instance.n inst in
  let p = Suu_lp.Problem.create ~name:"offline" () in
  let t = Suu_lp.Problem.add_var ~obj:1.0 p in
  let x = Array.init m (fun _ -> Array.init n (fun _ -> Suu_lp.Problem.add_var p)) in
  for j = 0 to n - 1 do
    let terms =
      List.init m (fun i ->
          (x.(i).(j), Instance.clipped_log_failure inst ~target:w.(j) i j))
    in
    Suu_lp.Problem.add_constraint p terms Suu_lp.Problem.Ge w.(j)
  done;
  for i = 0 to m - 1 do
    Suu_lp.Problem.add_constraint p
      ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
      Suu_lp.Problem.Le 0.0
  done;
  fst (Suu_lp.Simplex.solve_exn p)

let e6 () =
  section
    "E6: competitive analysis - adversarial thresholds in [1, pmax] \
     (n = 32, m = 8, deterministic traces)";
  let n = 32 and m = 8 in
  let inst =
    W.independent (W.Uniform { lo = 0.3; hi = 0.9 }) ~n ~m ~seed:707
  in
  let spreads = [| 2.0; 8.0; 32.0; 128.0 |] in
  let table =
    Table.create
      ~header:[ "pmax/pmin"; "offline LB"; "SUU-I-SEM"; "SUU-I-OBL" ]
  in
  Array.iter
    (fun spread ->
      (* log-spaced thresholds across jobs: the adversary mixes cheap and
         expensive jobs. *)
      let w =
        Array.init n (fun j ->
            Float.pow spread (float_of_int j /. float_of_int (n - 1)))
      in
      let trace = Suu_sim.Trace.of_thresholds w in
      let off = offline_bound inst w in
      let run p =
        float_of_int
          (Suu_sim.Engine.makespan inst p ~trace
             ~rng:(Suu_prng.Rng.create ~seed:1))
        /. off
      in
      Table.add_float_row table (Table.fmt_g spread)
        [ off;
          run (Suu_core.Suu_i_sem.policy inst);
          run (Suu_core.Suu_i_obl.policy inst) ])
    spreads;
  Table.print table;
  note
    "\nexpected shape: SEM's ratio stays within O(log(pmax/pmin)) (the \
     doubling rounds pay one near-optimal pass per doubling), and at \
     n=32, m=8 it falls as the spread grows; OBL repeats its fixed \
     1/2-target passes and stays high, so the OBL/SEM gap widens to \
     about 3x at pmax/pmin = 128.";
  note
    "(Section 'Our results': the doubling schedule is \
     O(log(pmax/pmin))-competitive for deterministic adversarial \
     processing times.)"

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 7 ablation: random delays vs none. *)

let e7 () =
  section
    "E7: Theorem 7 ablation - pseudoschedule congestion with and \
     without random delays (lockstep chains, n = 192, m = 8)";
  (* Adversarial lockstep structure: 48 identical chains of 4 stages;
     stage k runs well only on machine k.  Without delays every chain
     requests the same machine in the same superstep.  (The chain count
     keeps t_LP2 large enough that the 6x-rounded job lengths stay below
     gamma - otherwise every job is "long" and the superstep machinery
     never engages.) *)
  let z = 48 and len = 4 and m = 8 in
  let n = z * len in
  let q =
    Array.init m (fun i ->
        Array.init n (fun j ->
            let stage = j mod len in
            if i = stage then 0.5 else 0.995))
  in
  let edges = ref [] in
  for c = 0 to z - 1 do
    for k = 1 to len - 1 do
      edges := (((c * len) + k) - 1, (c * len) + k) :: !edges
    done
  done;
  let inst =
    Instance.make ~name:"lockstep-chains"
      ~dag:(Suu_dag.Dag.of_edges ~n !edges)
      q
  in
  let chains =
    match Suu_dag.Chains.of_dag (Instance.dag inst) with
    | Some c -> c
    | None -> assert false
  in
  let prep = Suu_core.Suu_c.prepare ~top_machines:2 inst ~chains in
  Printf.printf "gamma = %d, H = %d, long jobs = %d\n\n"
    prep.Suu_core.Suu_c.gamma prep.Suu_core.Suu_c.load
    (List.length prep.Suu_core.Suu_c.long_jobs);
  let bound = LB.combined inst in
  let table =
    Table.create
      ~header:
        [ "delays"; "max congestion"; "mean superstep len"; "E[T]";
          "ratio" ]
  in
  List.iter
    (fun (label, delays, granularity) ->
      let stats = Suu_core.Suu_c.new_stats () in
      let p =
        Suu_core.Suu_c.policy_of_prepared ~stats ~random_delays:delays
          ~delay_granularity:granularity inst prep
      in
      let xs = Runner.makespans inst p ~seed:809 ~reps:5 in
      let s = Summary.of_array xs in
      Table.add_float_row table label
        [ float_of_int stats.Suu_core.Suu_c.max_congestion;
          float_of_int stats.Suu_core.Suu_c.total_congestion
          /. float_of_int (max 1 stats.Suu_core.Suu_c.supersteps);
          s.Summary.mean; s.Summary.mean /. bound ])
    [ ("on", true, 1); ("on (coarse g=12)", true, 12); ("off", false, 1) ];
  Table.print table;
  note
    "\nexpected shape: without delays all chains start synchronized and \
     collide on the same best machines, inflating max congestion; \
     random delays in {0..H} flatten it toward the \
     O(log(n+m)/loglog(n+m)) bound.  (At these sizes the delays also \
     pay an additive H cost in makespan - the theorem trades a \
     worst-case multiplicative factor for it.)"

(* ------------------------------------------------------------------ *)
(* E8 — replication waste: the paper's Section 1 observes that ganging
   machines on one job fights unreliability but costs throughput; this
   measures where each policy's machine-steps actually go. *)

let e8 () =
  section
    "E8: machine-step breakdown - busy / wasted / idle \
     (volunteers hazard, n = 64, m = 8, 10 traces)";
  let inst =
    W.independent (W.Volunteers { reliable_fraction = 0.2 }) ~n:64 ~m:8
      ~seed:1212
  in
  let m = Instance.m inst in
  let reps = 10 in
  let table =
    Table.create
      ~header:[ "policy"; "E[T]"; "busy %"; "wasted %"; "idle %" ]
  in
  let measure label policy =
    let rngs = Suu_sim.Runner.rep_rngs ~seed:1213 ~reps in
    let totals = Array.make 4 0.0 in
    Array.iter
      (fun (trace_rng, policy_rng) ->
        let trace =
          Suu_sim.Trace.draw ~n:(Instance.n inst) trace_rng
        in
        let r = Suu_sim.Engine.run inst policy ~trace ~rng:policy_rng in
        let steps = float_of_int (m * r.Suu_sim.Engine.makespan) in
        totals.(0) <- totals.(0) +. float_of_int r.Suu_sim.Engine.makespan;
        totals.(1) <-
          totals.(1) +. (float_of_int r.Suu_sim.Engine.busy_steps /. steps);
        totals.(2) <-
          totals.(2)
          +. (float_of_int r.Suu_sim.Engine.wasted_steps /. steps);
        totals.(3) <-
          totals.(3) +. (float_of_int r.Suu_sim.Engine.idle_steps /. steps))
      rngs;
    let f = float_of_int reps in
    Table.add_float_row table label
      [ totals.(0) /. f;
        100.0 *. totals.(1) /. f;
        100.0 *. totals.(2) /. f;
        100.0 *. totals.(3) /. f ]
  in
  measure "SUU-I-SEM" (Suu_core.Suu_i_sem.policy inst);
  measure "SUU-I-OBL" (Suu_core.Suu_i_obl.policy inst);
  measure "greedy" (Suu_core.Baselines.greedy_completion inst);
  measure "round-robin" (Suu_core.Baselines.round_robin inst);
  measure "serial" (Suu_core.Baselines.serial inst);
  Table.print table;
  note
    "\nreading: 'wasted' steps hit already-completed jobs (the price of \
     oblivious repetition); 'idle' is explicit under-use.  The LP \
     schedules trade wasted work for worst-case guarantees; greedy \
     keeps machines on live jobs but with no guarantee (cf. A3)."

(* ------------------------------------------------------------------ *)
(* A1 — the Lemma-2 rounding constants in practice. *)

let a1 () =
  section "A1: rounding ablation - Lemma 2 constants in practice";
  let m = 8 and target = 0.5 in
  let table =
    Table.create
      ~header:
        [ "hazard/n"; "t* (LP)"; "rounded load"; "load/t*";
          "min mass/target" ]
  in
  List.iter
    (fun hazard ->
      List.iter
        (fun n ->
          let inst = W.independent hazard ~n ~m ~seed:(909 + n) in
          let jobs = Array.init n Fun.id in
          let frac = Suu_core.Lp1.solve inst ~jobs ~target in
          let a =
            Suu_core.Rounding.round inst ~jobs ~target ~frac:frac.Suu_core.Lp1.x
              ~frac_value:frac.Suu_core.Lp1.value
          in
          let load = float_of_int (Suu_core.Assignment.load a) in
          let min_mass = ref infinity in
          Array.iter
            (fun j ->
              let mass =
                Suu_core.Assignment.clipped_log_mass inst ~target a j
              in
              if mass < !min_mass then min_mass := mass)
            jobs;
          Table.add_float_row table
            (Printf.sprintf "%s/%d" (W.hazard_name hazard) n)
            [ frac.Suu_core.Lp1.value; load;
              load /. Float.max 1e-9 frac.Suu_core.Lp1.value;
              !min_mass /. target ])
        [ 32; 128 ])
    [ W.Uniform { lo = 0.2; hi = 0.95 }; W.Near_one ];
  Table.print table;
  note
    "\nexpected shape: load/t* <= 6 + o(1) (the paper's ceil(6 t*) \
     cap) and min mass/target >= 1 (Lemma 2's coverage guarantee) - \
     both with slack in practice."

(* ------------------------------------------------------------------ *)
(* A2 — LP backends: exact simplex vs MWU. *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let a2 () =
  section "A2: solver ablation - simplex vs multiplicative weights";
  let table =
    Table.create
      ~header:[ "n x m"; "solver"; "LP value"; "vs simplex"; "time (s)" ]
  in
  List.iter
    (fun (n, m) ->
      let inst =
        W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n ~m
          ~seed:(1010 + n)
      in
      let jobs = Array.init n Fun.id in
      let solve solver () =
        (Suu_core.Lp1.solve ~solver inst ~jobs ~target:0.5).Suu_core.Lp1.value
      in
      let exact, t_exact = time_it (solve Suu_core.Solver_choice.Simplex) in
      Table.add_row table
        [ Printf.sprintf "%dx%d" n m; "simplex"; Table.fmt_g exact; "1";
          Table.fmt_g t_exact ];
      List.iter
        (fun eps ->
          let v, t = time_it (solve (Suu_core.Solver_choice.Mwu eps)) in
          Table.add_row table
            [ ""; Printf.sprintf "mwu eps=%.2f" eps; Table.fmt_g v;
              Table.fmt_g (v /. exact); Table.fmt_g t ])
        [ 0.3; 0.1; 0.05 ])
    [ (64, 8); (256, 16) ];
  Table.print table;
  note
    "\nexpected shape: MWU values within 1 + O(eps) of the simplex, \
     with time growing ~1/eps^2 but scaling to sizes where the dense \
     tableau becomes the bottleneck."

(* ------------------------------------------------------------------ *)
(* A3 — the conclusion's open question: can a greedy heuristic match the
   LP-based bounds? *)

let a3 () =
  section
    "A3: greedy-vs-LP probe (paper conclusion) - specialist trap family";
  (* Machine 0 is the only machine that can run the k "captive" jobs
     (q = 0.5 there, 1 elsewhere) and is also the best machine for the
     easy jobs (q = 0.05 vs 0.5 elsewhere): a myopic greedy keeps machine
     0 on easy jobs and starves the captives. *)
  let m = 8 and n = 64 and seed = 1111 and reps = 20 in
  let trap k =
    let q =
      Array.init m (fun i ->
          Array.init n (fun j ->
              if j < k then if i = 0 then 0.5 else 1.0
              else if i = 0 then 0.05
              else 0.5))
    in
    lb_row (string_of_int k)
      (Instance.make
         ~name:(Printf.sprintf "trap-k%d" k)
         ~dag:(Suu_dag.Dag.empty n) q)
  in
  ignore
    (ratio_sweep ~seed ~reps
       ~header:[ "captive k"; "lower bd"; "SUU-I-SEM"; "greedy"; "rrobin" ]
       [ Policy "suu-i-sem"; Policy "greedy"; Policy "round-robin" ]
       (List.map trap [ 2; 4; 8; 16 ]));
  note
    "\nreading: the LP sees the captive jobs' only machine and \
     schedules it there from step one; the myopic greedy serves easy \
     jobs first and pays the captive chain afterwards.  On random \
     hazards (E1) greedy matches or beats SUU-I-SEM - empirical support \
     for the paper's closing conjecture that a greedy heuristic might \
     achieve similar bounds, with this family showing where its \
     constant degrades."

(* ------------------------------------------------------------------ *)
(* perf — bechamel micro-benchmarks of the substrates. *)

(* Per-phase latency breakdown from the Obs registry, as a JSON object
   keyed by phase name.  Every span recorded anywhere in the process so
   far (LP solves, engine runs, server request phases) shows up, which
   is what lets the CI gate compare phase timings across PRs. *)
let phases_json () =
  let snap = Suu_obs.Registry.snapshot () in
  J.Obj
    (List.map
       (fun (name, h, hs) ->
         let q p = num (1000.0 *. Suu_obs.Histogram.quantile h hs p) in
         ( name,
           J.Obj
             [ ("count", int hs.Suu_obs.Histogram.count);
               ("mean_ms", num (1000.0 *. Suu_obs.Histogram.mean hs));
               ("p50_ms", q 0.5); ("p95_ms", q 0.95); ("p99_ms", q 0.99) ] ))
       snap.Suu_obs.Registry.histograms)

(* Instrumentation overhead: the same greedy replication workload timed
   with the observability layer recording vs fully disabled
   (Registry.set_enabled false turns every span into a plain call).
   The CI gate asserts the difference stays under 5%, so the measurement
   has to be calmer than that:

   - times are process-CPU (Sys.time), not wall-clock — the workload is
     single-domain here, and on a shared box scheduler preemption puts
     far more jitter into wall-clock than the overhead being measured;
   - on/off runs are timed in back-to-back pairs so GC/heap drift
     cancels within a pair instead of masquerading as overhead, and the
     pair order alternates (on-off, off-on, ...) so whichever arm runs
     second never systematically inherits a warmer cache;
   - the reported figure is the lower quartile of the per-pair relative
     deltas.  Any single pair can be off by several percent (GC majors,
     DVFS), and those excursions skew positive, so the median of a ~1%
     true overhead still grazes the 5% gate on a bad day.  The lower
     quartile gives up a point or two of accuracy for stability; a real
     regression (accidental per-step instrumentation lands at tens of
     percent) shifts every delta and still trips the gate by an order
     of magnitude. *)
let measure_obs_overhead inst policy ~seed ~reps =
  let work () = ignore (Runner.makespans ~jobs:1 inst policy ~seed ~reps) in
  work () (* warm the plan/metric paths once *);
  let cpu_time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let timed_pair on_first =
    let arm enabled =
      Suu_obs.Registry.set_enabled enabled;
      let t = cpu_time work in
      Suu_obs.Registry.set_enabled true;
      t
    in
    if on_first then
      let on = arm true in
      (on, arm false)
    else
      let off = arm false in
      (arm true, off)
  in
  let pairs = 15 in
  let deltas =
    Array.init pairs (fun k ->
        let on, off = timed_pair (k land 1 = 0) in
        (on -. off) /. Float.max 1e-9 off)
  in
  Array.sort compare deltas;
  100.0 *. deltas.(pairs / 4)

(* Macro side of perf: engine step rate and sequential-vs-parallel
   replication throughput on an E1-style ratio sweep, recorded to
   BENCH_perf.json so the perf trajectory is tracked across PRs.
   SUU_PERF_SCALE=tiny shrinks everything to a CI smoke size. *)
let perf_pipeline bechamel_rows =
  section "perf: simulation pipeline (engine step rate, multicore scaling)";
  let tiny = tiny_scale () in
  let n, m, reps = if tiny then (16, 4, 8) else (128, 8, 48) in
  let seed = 777 in
  let inst = W.independent W.Near_one ~n ~m ~seed:4242 in
  (* Engine step rate: the greedy baseline is pure simulation (no LP),
     so steps/s isolates the engine + policy hot path. *)
  let greedy = Suu_core.Baselines.greedy_completion inst in
  let g_ms, g_t =
    time_it (fun () -> Runner.makespans ~jobs:1 inst greedy ~seed ~reps)
  in
  let g_steps = Array.fold_left ( +. ) 0.0 g_ms in
  let step_rate = g_steps /. g_t in
  note "engine step rate (greedy, n=%d m=%d, %d reps): %.3g steps/s \
        (%.3g machine-steps/s)"
    n m reps step_rate (float_of_int m *. step_rate);
  (* Ratio-sweep throughput: SUU-I-SEM is the E1 workhorse; its LP plans
     hit the per-policy plan cache after replication 1.  Each row builds
     one policy, shared by all of its domains. *)
  let policy () = Suu_core.Suu_i_sem.policy inst in
  let seq, seq_t =
    time_it (fun () -> Runner.makespans ~jobs:1 inst (policy ()) ~seed ~reps)
  in
  let cores = Suu_sim.Parallel.default_jobs () in
  let domain_counts =
    List.sort_uniq compare
      (List.filter (fun d -> d <= max 1 reps) [ 1; 2; 4; cores ])
  in
  let table =
    Table.create ~header:[ "domains"; "time (s)"; "reps/s"; "speedup"; "identical" ]
  in
  let par_rows =
    List.map
      (fun d ->
        let xs, t =
          time_it (fun () ->
              Runner.makespans ~jobs:d inst (policy ()) ~seed ~reps)
        in
        let same = xs = seq in
        Table.add_row table
          [ string_of_int d; Table.fmt_g t;
            Table.fmt_g (float_of_int reps /. t);
            Table.fmt_g (seq_t /. t); (if same then "yes" else "NO") ];
        (d, t, seq_t /. t, same))
      domain_counts
  in
  note "sequential baseline (jobs=1): %.3g s (%.3g reps/s)" seq_t
    (float_of_int reps /. seq_t);
  Table.print table;
  note "\navailable domains (SUU_JOBS or recommended): %d" cores;
  (* Observability overhead on the pure-simulation hot path (greedy:
     no LP, so span cost is not hidden behind solver time).  Always
     measured at the full instance size, even under SUU_PERF_SCALE=tiny:
     tiny runs last ~100us, where GC alignment and per-run fixed costs
     swamp the few-percent signal the CI gate has to resolve. *)
  let overhead_pct =
    let oi = W.independent W.Near_one ~n:128 ~m:8 ~seed:4242 in
    let og = Suu_core.Baselines.greedy_completion oi in
    measure_obs_overhead oi og ~seed ~reps:192
  in
  note "observability overhead (greedy, lower-quartile of 15 on/off pairs): %+.2f%%"
    overhead_pct;
  (* Solver parity: switching the serve-path default to certified MWU
     must not change SEM/OBL makespan quality.  Same seeds, same
     replication count, only the LP backend differs; the ratio is
     mwu_mean / simplex_mean (1.0 = identical schedules). *)
  let parity =
    let mean xs =
      Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)
    in
    let pinst = W.independent W.Near_one ~n:(n / 2) ~m ~seed:4243 in
    List.map
      (fun (pname, build) ->
        let run solver =
          mean (Runner.makespans ~jobs:1 pinst (build solver) ~seed:778 ~reps)
        in
        let s = run Suu_core.Solver_choice.Simplex in
        let w = run (Suu_core.Solver_choice.Mwu 0.1) in
        let ratio = w /. s in
        note "solver parity %-10s simplex=%.4g mwu=%.4g ratio=%.4g" pname s w
          ratio;
        (pname, s, w, ratio))
      [
        ("suu-i-sem", fun s -> Suu_core.Suu_i_sem.policy ~solver:s pinst);
        ("suu-i-obl", fun s -> Suu_core.Suu_i_obl.policy ~solver:s pinst);
      ]
  in
  let workload = str (Printf.sprintf "near-one n=%d m=%d reps=%d" n m reps) in
  write_artifact "perf"
    [ ("available_domains", int cores);
      ("obs_overhead_pct", num overhead_pct);
      ( "engine",
        J.Obj
          [ ("workload", workload); ("policy", str "greedy");
            ("steps_per_sec", num step_rate);
            ("machine_steps_per_sec", num (float_of_int m *. step_rate)) ] );
      ( "ratio_sweep",
        J.Obj
          [ ("workload", workload); ("policy", str "suu-i-sem");
            ("sequential_sec", num seq_t);
            ( "parallel",
              J.List
                (List.map
                   (fun (d, t, speedup, same) ->
                     J.Obj
                       [ ("domains", int d); ("sec", num t);
                         ("speedup", num speedup);
                         ("bit_identical", J.Bool same) ])
                   par_rows) ) ] );
      ( "solver_parity",
        J.List
          (List.map
             (fun (pname, s, w, ratio) ->
               J.Obj
                 [ ("policy", str pname); ("simplex_mean", num s);
                   ("mwu_mean", num w); ("ratio", num ratio) ])
             parity) );
      ( "bechamel_ns_per_run",
        J.Obj
          (List.map (fun (name, est, _) -> (name, num est))
             (List.sort compare bechamel_rows)) );
      ("phases", phases_json ()) ]

let perf () =
  section "perf: bechamel micro-benchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
  let inst64 = W.independent uniform ~n:64 ~m:8 ~seed:7 in
  let jobs64 = Array.init 64 Fun.id in
  let frac64 = Suu_core.Lp1.solve inst64 ~jobs:jobs64 ~target:0.5 in
  let chain_inst = W.chains uniform ~z:8 ~length:6 ~m:4 ~seed:8 in
  let chain_chains =
    match Suu_dag.Chains.of_dag (Instance.dag chain_inst) with
    | Some c -> c
    | None -> assert false
  in
  let tiny = W.independent uniform ~n:4 ~m:2 ~seed:9 in
  let stoch_inst =
    let rng = Suu_prng.Rng.create ~seed:10 in
    let rates = Array.init 16 (fun _ -> Suu_prng.Rng.range rng ~lo:0.3 ~hi:3.0) in
    let speeds =
      Array.init 4 (fun _ ->
          Array.init 16 (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:2.0))
    in
    Suu_stoch.Stoch_instance.make ~rates speeds
  in
  let ll_sol =
    Suu_stoch.Ll_lp.solve stoch_inst
      ~lengths:(Array.make 16 1.0)
      ~jobs:(Array.init 16 Fun.id)
  in
  let k64 = Suu_core.Mathx.rounds_k ~n:64 ~m:8 in
  let run_sem () =
    Runner.expected_makespan inst64 (Suu_core.Suu_i_sem.policy inst64)
      ~seed:11 ~reps:1
  in
  let run_greedy () =
    Runner.expected_makespan inst64
      (Suu_core.Baselines.greedy_completion inst64)
      ~seed:12 ~reps:1
  in
  let tests =
    [
      Test.make ~name:"lp1-simplex-64x8"
        (Staged.stage (fun () ->
             Suu_core.Lp1.solve inst64 ~jobs:jobs64 ~target:0.5));
      Test.make ~name:"lp1-mwu-certified-64x8"
        (Staged.stage (fun () ->
             Suu_core.Lp1.solve ~solver:(Suu_core.Solver_choice.Mwu 0.1)
               inst64 ~jobs:jobs64 ~target:0.5));
      (* LP1 at every doubling target L_1..L_K for one survivor set,
         each round solved from scratch by the tableau: what an SUU-I
         policy's plan-cache misses cost over one replication. *)
      Test.make ~name:"lp1-simplex-seq-64x8"
        (Staged.stage (fun () ->
             for k = 1 to k64 do
               ignore
                 (Suu_core.Lp1.solve inst64 ~jobs:jobs64
                    ~target:(Suu_core.Mathx.target_for_round k))
             done));
      Test.make ~name:"lemma2-rounding-64x8"
        (Staged.stage (fun () ->
             Suu_core.Rounding.round inst64 ~jobs:jobs64 ~target:0.5
               ~frac:frac64.Suu_core.Lp1.x
               ~frac_value:frac64.Suu_core.Lp1.value));
      Test.make ~name:"lp2-simplex-48x4"
        (Staged.stage (fun () ->
             Suu_core.Lp2.solve chain_inst ~chains:chain_chains));
      Test.make ~name:"suu-i-sem-execution-64x8"
        (Staged.stage (fun () -> run_sem ()));
      Test.make ~name:"greedy-execution-64x8"
        (Staged.stage (fun () -> run_greedy ()));
      Test.make ~name:"exact-dp-4x2"
        (Staged.stage (fun () -> Suu_core.Exact_dp.expected_makespan tiny));
      Test.make ~name:"bvn-decompose-16x4"
        (Staged.stage (fun () ->
             Suu_stoch.Bvn.decompose ~m:4 ~n:16 ~x:ll_sol.Suu_stoch.Ll_lp.x
               ~horizon:ll_sol.Suu_stoch.Ll_lp.value));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500
      ~quota:(Time.second 0.5)
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"suu" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table = Table.create ~header:[ "benchmark"; "time/run"; "r^2" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> r
        | None -> Float.nan
      in
      rows := (name, est, r2) :: !rows)
    results;
  List.iter
    (fun (name, est, r2) ->
      let human =
        if Float.is_nan est then "-"
        else if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Table.add_row table [ name; human; Table.fmt_g r2 ])
    (List.sort compare !rows);
  Table.print table;
  perf_pipeline !rows

(* The instance pools of the wire experiments: serve, its open-loop
   replay and shard load the first, chaos and its router scenario the
   second. *)
let serve_pool () =
  let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
  [|
    W.independent uniform ~n:12 ~m:4 ~seed:21;
    W.independent W.Near_one ~n:16 ~m:4 ~seed:22;
    W.random_chains uniform ~n:12 ~z:3 ~m:4 ~seed:23;
    W.forest uniform ~n:12 ~trees:2 ~orientation:`Mixed ~m:4 ~seed:24;
  |]

let chaos_pool () =
  let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
  [|
    W.independent uniform ~n:12 ~m:4 ~seed:31;
    W.random_chains uniform ~n:12 ~z:3 ~m:4 ~seed:32;
    W.forest uniform ~n:12 ~trees:2 ~orientation:`Mixed ~m:4 ~seed:33;
  |]

(* A closed-loop request stream over [pool]: each request draws an
   instance, then a roll out of 100 that picks its kind through
   [weights] (in order, summing to 100) and seeds it.  [`Online]
   simulates under lzf or backfill by the roll's parity. *)
let request_mix ~pool ~sim_reps weights rng =
  let module P = Suu_server.Protocol in
  let inst = pool.(Suu_prng.Rng.int rng (Array.length pool)) in
  let roll = Suu_prng.Rng.int rng 100 in
  let rec kind r = function
    | [ (_, k) ] -> k
    | (w, k) :: rest -> if r < w then k else kind (r - w) rest
    | [] -> invalid_arg "request_mix: no weights"
  in
  let simulate policy = P.Simulate { inst; policy; reps = sim_reps; seed = roll } in
  match kind roll weights with
  | `Simulate -> simulate "auto"
  | `Online -> simulate (if roll land 1 = 0 then "lzf" else "backfill")
  | `Plan -> P.Plan { inst; policy = "auto"; seed = roll }
  | `Describe -> P.Describe inst
  | `Lower_bound -> P.Lower_bound inst
  | `Stats -> P.Stats

(* A router's view of an in-process server. *)
let shard_spec s =
  let port = Suu_server.Server.port s in
  { Suu_router.Router.id = Printf.sprintf "127.0.0.1:%d" port;
    host = "127.0.0.1"; port; child = None; respawn = None }

(* The closed-loop load generator of serve, chaos and shard: [clients]
   threads, each on its own connection ([connect i]) with its own
   request stream ([body] drawing from an Rng seeded [seed + i]), send
   [per_client] requests back to back.  A call that raises, or a
   connection that cannot be opened, counts as failed. *)
type load = {
  wall : float; (* seconds, until the last client finished *)
  lats : float array; (* seconds per request, all clients *)
  ok : int;
  overloaded : int; (* Overloaded error replies *)
  failed : int; (* other error replies and calls that raised *)
}

let closed_loop ~clients ~per_client ~seed ~connect body =
  let module Client = Suu_server.Client in
  let module P = Suu_server.Protocol in
  let slots = Array.make clients ([], 0, 0, 0) in
  let client i =
    let rng = Suu_prng.Rng.create ~seed:(seed + i) in
    let lats = ref [] and ok = ref 0 and over = ref 0 and failed = ref 0 in
    (match connect i with
    | exception (Client.Protocol_failure _ | Unix.Unix_error _) ->
        failed := per_client
    | c ->
        for _ = 1 to per_client do
          let req = body rng in
          let s = Unix.gettimeofday () in
          (match Client.call c req with
          | P.Ok _ -> incr ok
          | P.Err { code = P.Overloaded; _ } -> incr over
          | P.Err _ -> incr failed
          | exception (Client.Protocol_failure _ | Unix.Unix_error _) ->
              incr failed);
          lats := (Unix.gettimeofday () -. s) :: !lats
        done;
        Client.close c);
    slots.(i) <- (!lats, !ok, !over, !failed)
  in
  let t0 = Unix.gettimeofday () in
  List.iter Thread.join (List.init clients (Thread.create client));
  let wall = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 slots in
  {
    wall;
    lats =
      Array.of_list
        (List.concat_map (fun (l, _, _, _) -> l) (Array.to_list slots));
    ok = sum (fun (_, k, _, _) -> k);
    overloaded = sum (fun (_, _, o, _) -> o);
    failed = sum (fun (_, _, _, f) -> f);
  }

(* ------------------------------------------------------------------ *)
(* serve — load-test the suu-serve daemon: an in-process server on an
   ephemeral port, hammered by closed-loop client threads issuing a
   mixed request distribution over a small instance pool (so the
   server's instance and plan caches see both hits and misses).
   Records throughput, latency quantiles, and the reject rate to
   BENCH_serve.json, and checks determinism-over-the-wire: the same
   simulate request must produce byte-identical responses regardless
   of worker and domain counts. *)

(* Split a byte stream into whole frames; a line reading "done" ends a
   frame.  A trailing partial frame is dropped. *)
let split_frames s =
  let n = String.length s in
  let frames = ref [] and start = ref 0 and i = ref 0 in
  while !i < n do
    match String.index_from_opt s !i '\n' with
    | None -> i := n
    | Some nl ->
        if String.trim (String.sub s !i (nl - !i)) = "done" then begin
          frames := String.sub s !start (nl + 1 - !start) :: !frames;
          start := nl + 1
        end;
        i := nl + 1
  done;
  List.rev !frames

(* The multiplexed socket driver of the connection-scale pass and the
   workload replay.  Unlike the closed-loop clients (which submit as
   fast as the server answers, so the arrival rate is whatever the
   service can absorb), it submits request k at its scheduled timestamp
   no matter how the server is doing, on connection k mod [nconns]:
   one thread multiplexes every socket over the same
   {!Suu_server.Reactor} the server's loop uses (500 client threads
   would measure the bench, not the server). *)

type ol_req = {
  ol_id : string;
  ol_bytes : string;
  ol_scheduled : float; (* seconds from replay start *)
  mutable ol_sent : float; (* first byte written; -1 until then *)
  mutable ol_recv : float; (* response frame complete; -1 until then *)
}

type ol_conn = {
  ol_fd : Unix.file_descr;
  ol_pending : ol_req Queue.t; (* released, not yet fully written *)
  mutable ol_written : int; (* bytes of the head request written *)
  ol_inbuf : Buffer.t;
  mutable ol_consumed : int; (* prefix of ol_inbuf already framed *)
  mutable ol_dead : bool;
}

let ol_frame_id frame =
  List.find_map
    (fun l ->
      if String.length l > 3 && String.sub l 0 3 = "id " then
        Some (String.trim (String.sub l 3 (String.length l - 3)))
      else None)
    (String.split_on_char '\n' frame)

let ol_request ~at id body =
  let frame = { Suu_server.Protocol.id = Some id; deadline_ms = None; body } in
  {
    ol_id = id;
    ol_bytes = Suu_server.Protocol.request_to_string frame;
    ol_scheduled = at;
    ol_sent = -1.0;
    ol_recv = -1.0;
  }

(* One full run: submit [reqs] (sorted by [ol_scheduled]) open-loop
   over [nconns] multiplexed connections, return the (id, frame)
   responses and the wall time.  A reply counts only on the connection
   that carried its request.  Mutates [ol_sent]/[ol_recv] in place. *)
let open_loop_run ~port ~nconns ~reqs =
  let module Reactor = Suu_server.Reactor in
  let total = Array.length reqs in
  let by_id = Hashtbl.create (2 * total) in
  Array.iteri (fun k q -> Hashtbl.replace by_id q.ol_id k) reqs;
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let r = Reactor.create () in
  let by_fd = Hashtbl.create (2 * nconns) in
  let conns =
    Array.init nconns (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        (try Unix.connect fd addr
         with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
        let st =
          {
            ol_fd = fd;
            ol_pending = Queue.create ();
            ol_written = 0;
            ol_inbuf = Buffer.create 1024;
            ol_consumed = 0;
            ol_dead = false;
          }
        in
        Hashtbl.replace by_fd fd st;
        (* write interest absorbs connect completion; the first
           writable wakeup with an empty queue drops back to read. *)
        Reactor.add r fd ~read:true ~write:true;
        st)
  in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let completed = ref 0 in
  let responses = ref [] in
  let chunk = Bytes.create 65536 in
  let kill st =
    if not st.ol_dead then begin
      st.ol_dead <- true;
      Reactor.remove r st.ol_fd;
      (try Unix.close st.ol_fd with Unix.Unix_error _ -> ())
    end
  in
  let rec handle_writable st =
    if not st.ol_dead then
      match Queue.peek_opt st.ol_pending with
      | None -> Reactor.modify r st.ol_fd ~read:true ~write:false
      | Some req -> (
          let len = String.length req.ol_bytes in
          match
            Unix.write_substring st.ol_fd req.ol_bytes st.ol_written
              (len - st.ol_written)
          with
          | n ->
              if n > 0 && req.ol_sent < 0.0 then req.ol_sent <- now ();
              st.ol_written <- st.ol_written + n;
              if st.ol_written >= len then begin
                ignore (Queue.pop st.ol_pending);
                st.ol_written <- 0;
                handle_writable st
              end
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | exception Unix.Unix_error _ -> kill st)
  in
  let drain_frames st =
    let raw = Buffer.contents st.ol_inbuf in
    let rest =
      String.sub raw st.ol_consumed (String.length raw - st.ol_consumed)
    in
    List.iter
      (fun frame ->
        st.ol_consumed <- st.ol_consumed + String.length frame;
        match Option.bind (ol_frame_id frame) (Hashtbl.find_opt by_id) with
        | Some k when conns.(k mod nconns) == st && reqs.(k).ol_recv < 0.0 ->
            reqs.(k).ol_recv <- now ();
            incr completed;
            responses := (reqs.(k).ol_id, frame) :: !responses
        | _ -> ())
      (split_frames rest)
  in
  let rec handle_readable st =
    if not st.ol_dead then
      match Unix.read st.ol_fd chunk 0 (Bytes.length chunk) with
      | 0 -> kill st
      | n ->
          Buffer.add_subbytes st.ol_inbuf chunk 0 n;
          drain_frames st;
          handle_readable st
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> kill st
  in
  let next = ref 0 in
  let deadline = 120.0 in
  while !completed < total && now () < deadline do
    (* Release every arrival whose scheduled time has come, regardless
       of server progress — the open-loop property. *)
    while !next < total && reqs.(!next).ol_scheduled <= now () do
      let st = conns.(!next mod nconns) in
      if not st.ol_dead then begin
        Queue.push reqs.(!next) st.ol_pending;
        Reactor.modify r st.ol_fd ~read:true ~write:true
      end;
      incr next
    done;
    let timeout_ms =
      if !next >= total then 100
      else
        let dt = reqs.(!next).ol_scheduled -. now () in
        max 0 (min 100 (int_of_float (ceil (dt *. 1000.0))))
    in
    List.iter
      (fun (ev : Reactor.event) ->
        match Hashtbl.find_opt by_fd ev.Reactor.fd with
        | None -> ()
        | Some st ->
            if ev.Reactor.writable then handle_writable st;
            if ev.Reactor.readable then handle_readable st)
      (Reactor.wait r ~timeout_ms);
    if Array.for_all (fun st -> st.ol_dead) conns then completed := total
  done;
  Array.iter kill conns;
  (List.sort compare !responses, now ())

(* serve --connections N: the connection-scale pass.  N connections
   each pipeline [pipelined] describe requests, all released at once
   through {!open_loop_run}, and every reply is byte-compared against a
   reference frame re-serialized with the request's id.  A connection
   is mismatched if any reply differs and dropped if any reply is
   missing (a reply arriving on another connection is missing on its
   own).  Returns the JSON object embedded as BENCH_serve.json's
   "connection_scale" section, whose dropped/mismatched counts the
   checks require to be zero. *)

let connections_target = ref 500

let connection_scale () =
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let module P = Suu_server.Protocol in
  let conns = max 1 !connections_target in
  let pipelined = 4 in
  note "";
  section
    (Printf.sprintf
       "serve connection-scale: %d concurrent connections x %d pipelined \
        requests"
       conns pipelined);
  (* A queue deep enough that nothing is refused: this pass measures
     connection fan-in, not admission control (the load test above
     already measures overload). *)
  let config =
    { Server.default_config with workers = 4; queue_capacity = 4096 }
  in
  let server = Server.start ~config () in
  let port = Server.port server in
  let inst =
    W.independent (W.Uniform { lo = 0.2; hi = 0.95 }) ~n:10 ~m:4 ~seed:31
  in
  let reference =
    let c = Client.connect ~port () in
    let r = Client.call c (P.Describe inst) in
    Client.close c;
    r
  in
  let expected_frame id =
    match reference with
    | P.Ok { id = _; rtype; fields } ->
        P.response_to_string (P.Ok { id = Some id; rtype; fields })
    | P.Err { code; message; _ } ->
        failwith
          (Printf.sprintf "connection-scale reference describe failed: %s %s"
             (P.error_code_to_string code) message)
  in
  (* Request k = i + j * conns is connection i's j-th. *)
  let reqs =
    Array.init (conns * pipelined) (fun k ->
        let id = Printf.sprintf "c%d-%d" (k mod conns) (k / conns) in
        ol_request ~at:0.0 id (P.Describe inst))
  in
  let responses, wall = open_loop_run ~port ~nconns:conns ~reqs in
  Server.stop server;
  let got = Hashtbl.of_seq (List.to_seq responses) in
  (* Each connection's (reply, expected frame) pairs. *)
  let replies =
    List.init conns (fun i ->
        List.init pipelined (fun j ->
            let id = reqs.(i + (j * conns)).ol_id in
            (Hashtbl.find_opt got id, expected_frame id)))
  in
  let conns_where f = List.length (List.filter f replies) in
  let ok = conns_where (List.for_all (fun (g, e) -> g = Some e)) in
  let mismatched =
    conns_where (List.exists (fun (g, e) -> g <> None && g <> Some e))
  in
  let dropped = conns - ok - mismatched in
  note
    "connections=%d pipelined=%d ok=%d dropped=%d mismatched=%d wall=%.2fs \
     (%.0f req/s)"
    conns pipelined ok dropped mismatched wall
    (float_of_int (ok * pipelined) /. wall);
  J.Obj
    [ ("connections", int conns); ("pipelined", int pipelined); ("ok", int ok);
      ("dropped", int dropped); ("mismatched", int mismatched);
      ("wall_sec", num wall);
      ("rps", num (float_of_int (ok * pipelined) /. wall)) ]

(* serve --workload SPEC: the open-loop replay pass.  Timestamps come
   from an {!Suu_workload.Arrivals} process (Poisson / bursty /
   diurnal) or from the submit times of an SWF trace, whose jobs also
   map to the instances submitted ({!Suu_workload.Swf.instances}), so
   the generator, not the service, decides the arrival process.  Per
   arrival we record queueing (first byte handed to the kernel minus
   scheduled time — client-side backlog under bursts) and end-to-end
   latency (full response frame minus scheduled time).  The whole
   replay runs twice at the same seed and the (id, frame) multisets
   must be byte-identical; the result is the "workload" section of
   BENCH_serve.json. *)

let workload_spec : string option ref = ref None

(* Build the arrival schedule and request bodies for a workload spec.
   SWF traces supply both timestamps and instances; synthetic specs
   draw timestamps from {!Arrivals} and cycle a fixed instance pool.
   Long traces are compressed to [target_span] seconds of replay. *)
let open_loop_requests ~tiny spec =
  let module A = Suu_workload.Arrivals in
  let module Swf = Suu_workload.Swf in
  let module P = Suu_server.Protocol in
  let times, insts, label =
    match String.index_opt spec ':' with
    | Some i when String.lowercase_ascii (String.sub spec 0 i) = "swf" ->
        let path = String.sub spec (i + 1) (String.length spec - i - 1) in
        let trace = Swf.load_file path in
        let times = Swf.arrival_times trace in
        let insts = Array.map snd (Swf.instances trace) in
        (times, insts, Printf.sprintf "swf:%s" (Filename.basename path))
    | _ -> (
        match A.spec_of_string spec with
        | Error msg -> failwith ("bench serve --workload: " ^ msg)
        | Ok sp ->
            let count = if tiny then 60 else 240 in
            let times = A.take (A.create ~seed:11 sp) count in
            let pool = serve_pool () in
            let insts =
              Array.init (Array.length times) (fun k ->
                  pool.(k mod Array.length pool))
            in
            (times, insts, A.spec_to_string sp))
  in
  let n = Array.length times in
  if n = 0 then failwith "bench serve --workload: empty arrival schedule";
  let span = times.(n - 1) in
  let target_span = if tiny then 3.0 else 8.0 in
  let compression =
    if span > target_span then target_span /. span else 1.0
  in
  let sim_reps = if tiny then 8 else 24 in
  let reqs =
    Array.init n (fun k ->
        let inst = insts.(k) in
        let body =
          if k mod 7 = 3 then
            P.Simulate { inst; policy = "auto"; reps = sim_reps; seed = k }
          else if k mod 3 = 1 then P.Describe inst
          else P.Plan { inst; policy = "auto"; seed = k }
        in
        let at = times.(k) *. compression in
        ol_request ~at (Printf.sprintf "w%d" k) body)
  in
  (reqs, label, span, compression)

(* The full pass: fresh server, two identical replays, byte-compare.
   Returns the JSON object for the "workload" section. *)
let open_loop_replay ~tiny spec =
  let module Server = Suu_server.Server in
  note "";
  section (Printf.sprintf "serve open-loop workload replay: %s" spec);
  let reqs, label, span, compression = open_loop_requests ~tiny spec in
  let n = Array.length reqs in
  let nconns = max 1 (min 16 n) in
  let config =
    { Server.default_config with workers = 4; queue_capacity = 4096 }
  in
  let server = Server.start ~config () in
  let port = Server.port server in
  let responses1, wall = open_loop_run ~port ~nconns ~reqs in
  let completed = ref 0 in
  let queueing = ref [] and e2e = ref [] in
  Array.iter
    (fun q ->
      if q.ol_recv >= 0.0 then begin
        incr completed;
        queueing := (1000.0 *. (q.ol_sent -. q.ol_scheduled)) :: !queueing;
        e2e := (1000.0 *. (q.ol_recv -. q.ol_scheduled)) :: !e2e
      end)
    reqs;
  (* Second replay at the same seed/schedule: open-loop traffic must be
     a deterministic function of (spec, seed) end to end. *)
  let reqs2 =
    Array.map (fun q -> { q with ol_sent = -1.0; ol_recv = -1.0 }) reqs
  in
  let responses2, _ = open_loop_run ~port ~nconns ~reqs:reqs2 in
  Server.stop server;
  let deterministic = responses1 = responses2 in
  let incomplete = n - !completed in
  let qarr = Array.of_list !queueing and earr = Array.of_list !e2e in
  let quant arr p = if Array.length arr = 0 then 0.0 else Summary.quantile arr p in
  note
    "workload=%s arrivals=%d completed=%d incomplete=%d span=%.1fs \
     compression=%.3g wall=%.2fs"
    label n !completed incomplete span compression wall;
  note "queueing ms: p50=%.2f p95=%.2f max=%.2f" (quant qarr 0.5)
    (quant qarr 0.95) (quant qarr 1.0);
  note "e2e ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f" (quant earr 0.5)
    (quant earr 0.95) (quant earr 0.99) (quant earr 1.0);
  note "replay deterministic across two runs: %s"
    (if deterministic then "yes" else "NO");
  J.Obj
    [ ("spec", str label); ("open_loop", J.Bool true); ("arrivals", int n);
      ("completed", int !completed); ("incomplete", int incomplete);
      ("span_sec", num span); ("compression", num compression);
      ("wall_sec", num wall);
      ( "queueing_ms",
        quantiles (quant qarr) [ ("p50", 0.5); ("p95", 0.95); ("max", 1.0) ] );
      ("e2e_ms", quantiles (quant earr) p50_to_max);
      ("deterministic_replay", J.Bool deterministic) ]

let serve_bench () =
  section "serve: suu-serve load test (in-process daemon, closed-loop clients)";
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let module P = Suu_server.Protocol in
  let tiny = tiny_scale () in
  let clients = if tiny then 4 else 8 in
  let per_client = if tiny then 30 else 250 in
  let sim_reps = if tiny then 12 else 48 in
  let workers = 4 and queue_capacity = 16 in
  let config = { Server.default_config with workers; queue_capacity } in
  let server = Server.start ~config () in
  let port = Server.port server in
  let pool = serve_pool () in
  (* Mixed closed-loop distribution: simulate dominates (it is the
     expensive request), a slice of it rides the LP-free online tier
     (lzf/backfill, counted as plan-cache bypasses), and the rest
     exercise parsing, caching and stats. *)
  let load =
    closed_loop ~clients ~per_client ~seed:9000
      ~connect:(fun _ -> Client.connect ~port ())
      (request_mix ~pool ~sim_reps
         [ (30, `Simulate); (10, `Online); (25, `Plan); (15, `Describe);
           (15, `Lower_bound); (5, `Stats) ])
  in
  let wall = load.wall and lats = load.lats in
  let stats_fields =
    let c = Client.connect ~port () in
    let fields = Client.stats c () in
    Client.close c;
    fields
  in
  Server.stop server;
  let ok = load.ok and rejects = load.overloaded and errors = load.failed in
  let total = Array.length lats in
  let q p = 1000.0 *. Summary.quantile lats p in
  note "clients=%d requests=%d wall=%.2fs throughput=%.1f req/s" clients
    total wall
    (float_of_int total /. wall);
  note "latency ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f" (q 0.5) (q 0.95)
    (q 0.99) (q 1.0);
  note "ok=%d rejected=%d errors=%d (reject rate %.1f%%)" ok rejects errors
    (100.0 *. float_of_int rejects /. float_of_int (max 1 total));
  let cache_stat k =
    match List.assoc_opt k stats_fields with Some v -> v | None -> "0"
  in
  note "server counters: plan_cache_hits=%s plan_cache_misses=%s \
        plan_cache_evictions=%s bypass=%s hit_rate=%s solver=%s"
    (cache_stat "plan_cache_hits")
    (cache_stat "plan_cache_misses")
    (cache_stat "plan_cache_evictions")
    (cache_stat "plan_cache_bypass")
    (cache_stat "plan_cache_hit_rate")
    (cache_stat "solver");
  (* Determinism over the wire: the same simulate request must yield
     byte-identical response frames at any worker/domain count. *)
  let sim_body =
    P.Simulate { inst = pool.(0); policy = "auto"; reps = sim_reps; seed = 5 }
  in
  let response_bytes ~workers ~sim_jobs =
    let s =
      Server.start
        ~config:{ Server.default_config with workers; sim_jobs }
        ()
    in
    let c = Client.connect ~port:(Server.port s) () in
    let r = P.response_to_string (Client.call c sim_body) in
    Client.close c;
    Server.stop s;
    r
  in
  let r1 = response_bytes ~workers:1 ~sim_jobs:(Some 1) in
  let r4 = response_bytes ~workers:4 ~sim_jobs:(Some 4) in
  let deterministic = String.equal r1 r4 in
  note "simulate response bit-identical at (workers=1, jobs=1) vs \
        (workers=4, jobs=4): %s"
    (if deterministic then "yes" else "NO");
  (* Capture phase quantiles before the connection-scale pass so the
     gated p50s reflect the mixed load test above, not thousands of
     cheap describes. *)
  let phases = phases_json () in
  let cs = connection_scale () in
  let wl =
    match !workload_spec with
    | None -> J.Null
    | Some spec -> open_loop_replay ~tiny spec
  in
  (* LP-free requests never probe the plan cache: they are counted as
     bypasses and excluded from the hit-rate denominator by
     construction. *)
  let stat_num k =
    (k, Option.fold ~none:J.Null ~some:num (float_of_string_opt (cache_stat k)))
  in
  write_artifact "serve"
    [ ( "config",
        J.Obj
          [ ("clients", int clients); ("per_client", int per_client);
            ("workers", int workers); ("queue_capacity", int queue_capacity);
            ("sim_reps", int sim_reps) ] );
      ("wall_sec", num wall);
      ("throughput_rps", num (float_of_int total /. wall));
      ("latency_ms", quantiles q p50_to_max);
      ("ok", int ok); ("rejected", int rejects); ("errors", int errors);
      ("reject_rate", num (float_of_int rejects /. float_of_int (max 1 total)));
      stat_num "plan_cache_hits"; stat_num "plan_cache_misses";
      stat_num "plan_cache_evictions"; stat_num "plan_cache_bypass";
      stat_num "plan_cache_hit_rate";
      ("solver", str (cache_stat "solver"));
      ("deterministic_over_the_wire", J.Bool deterministic);
      ("connection_scale", cs);
      (* null when the bench ran without --workload: the checks audit
         the open-loop section only when a replay actually happened. *)
      ("workload", wl);
      (* The load-tested server runs in this process, so the registry
         holds its request-phase spans (parse / queue_wait / execute /
         write). *)
      ("phases", phases) ]

(* ------------------------------------------------------------------ *)
(* chaos — the fault-tolerance harness: an in-process server with the
   fault injector armed (dropped, delayed, corrupted and torn replies,
   plus injected worker crashes) hammered by retrying clients.  The
   claim under test is that bounded retries recover EVERY request —
   success_rate below 1.0 fails the bench (and the gate), because a
   lost request under these fault rates means the retry logic, not the
   network, is broken. *)

(* The router scenario of chaos: two in-process shards behind a
   router; the shard owning the first pool instance's keys is stopped
   mid-load.  The router must mark it down, re-route its keyspace, and
   every client request must still complete — the scale-out analogue
   of the single-server retry claim below.  Returns the JSON object
   embedded as BENCH_chaos.json's "router" section. *)
let chaos_router_run () =
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let module Router = Suu_router.Router in
  let module Ring = Suu_router.Ring in
  let module P = Suu_server.Protocol in
  note "";
  section "chaos router: shard kill mid-load behind the router";
  let tiny = tiny_scale () in
  let clients = if tiny then 4 else 8 in
  let per_client = if tiny then 25 else 100 in
  let sim_reps = if tiny then 8 else 32 in
  let pool = chaos_pool () in
  let config = { Server.default_config with workers = 4; queue_capacity = 32 } in
  let s1 = Server.start ~config () in
  let s2 = Server.start ~config () in
  let specs = [ shard_spec s1; shard_spec s2 ] in
  let router =
    Router.start
      ~config:
        { Router.default_config with health_interval_ms = 100;
          timeout_ms = 2_000; retries = 1 }
      ~shards:specs ()
  in
  (* Kill the shard that owns the first pool instance's digest, so the
     victim is guaranteed to own live keys and re-routing is actually
     exercised. *)
  let victim, victim_id =
    let ring = Ring.create (List.map (fun (sp : Router.shard_spec) -> sp.id) specs) in
    let digest =
      match P.instance_digest (P.Describe pool.(0)) with
      | Some d -> d
      | None -> assert false
    in
    match Ring.route ring ~live:(fun _ -> true) digest with
    | Some id when id = (List.nth specs 0).id -> (s1, id)
    | Some id -> (s2, id)
    | None -> assert false
  in
  let growth = growth_since () in
  let routed () = growth () "router.route" in
  let total = clients * per_client in
  let load_done = Atomic.make false in
  let killer =
    Thread.create
      (fun () ->
        (* a third of the way through the load, the shard dies; the
           router counts every request it answers *)
        while routed () < total / 3 && not (Atomic.get load_done) do
          Thread.delay 0.005
        done;
        note "killing shard %s at %d/%d requests" victim_id (routed ()) total;
        Server.stop victim)
      ()
  in
  let port = Router.port router in
  let load =
    closed_loop ~clients ~per_client ~seed:9200
      ~connect:(fun i ->
        Client.connect ~port ~retries:8 ~timeout_ms:2_000 ~backoff_ms:5
          ~retry_seed:(7200 + i) ())
      (request_mix ~pool ~sim_reps
         [ (35, `Simulate); (25, `Plan); (25, `Describe); (15, `Lower_bound) ])
  in
  Atomic.set load_done true;
  Thread.join killer;
  (* settle health state before reading it *)
  Router.check_health router;
  let live = List.length (Router.live_shards router) in
  let delta = growth () in
  Router.stop router;
  Server.stop s1;
  Server.stop s2;
  let completed = load.ok and failed = load.overloaded + load.failed in
  let success_rate = float_of_int completed /. float_of_int total in
  note "router chaos: %d/%d completed (%.1f%%) wall=%.2fs" completed total
    (100.0 *. success_rate) load.wall;
  note "router: routed=%d failovers=%d mark_down=%d mark_up=%d live=%d/2"
    (delta "router.route") (delta "router.failover")
    (delta "router.health.mark_down")
    (delta "router.health.mark_up") live;
  J.Obj
    [ ("shards", int 2); ("killed_shard", str victim_id);
      ("requests", int total); ("completed", int completed);
      ("failed", int failed); ("success_rate", num success_rate);
      ("routed", int (delta "router.route"));
      ("failovers", int (delta "router.failover"));
      ("mark_down", int (delta "router.health.mark_down"));
      ("live_shards_after", int live) ]

let chaos_bench () =
  section "chaos: fault-injected suu-serve vs retrying clients";
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let module Faults = Suu_server.Faults in
  let module P = Suu_server.Protocol in
  let tiny = tiny_scale () in
  let clients = if tiny then 4 else 8 in
  let per_client = if tiny then 25 else 150 in
  let sim_reps = if tiny then 8 else 32 in
  let retries = 8 and timeout_ms = 400 in
  let workers = 4 and queue_capacity = 32 in
  let fault_config =
    match
      Faults.of_spec
        "drop=0.08,delay=0.08:10,error=0.04,kill=0.04,crash=0.04,seed=1234"
    with
    | Result.Ok c -> c
    | Result.Error msg -> failwith ("chaos bench: bad fault spec: " ^ msg)
  in
  (* The injector, the server workers and the clients all share this
     process's registry. *)
  let growth = growth_since () in
  let config =
    { Server.default_config with
      workers; queue_capacity; faults = Some fault_config }
  in
  let server = Server.start ~config () in
  let port = Server.port server in
  let pool = chaos_pool () in
  let load =
    closed_loop ~clients ~per_client ~seed:9100
      ~connect:(fun i ->
        Client.connect ~port ~retries ~timeout_ms ~backoff_ms:5
          ~retry_seed:(7100 + i) ())
      (request_mix ~pool ~sim_reps
         [ (35, `Simulate); (25, `Plan); (20, `Describe); (15, `Lower_bound);
           (5, `Stats) ])
  in
  let wall = load.wall and lats = load.lats in
  Server.stop server;
  let completed = load.ok and failed = load.overloaded + load.failed in
  let requests = clients * per_client in
  let success_rate = float_of_int completed /. float_of_int requests in
  let q p = 1000.0 *. Summary.quantile lats p in
  let delta = growth () in
  let injected_total =
    List.fold_left
      (fun a n -> a + delta n)
      0
      [ "faults.injected.drop"; "faults.injected.delay";
        "faults.injected.error"; "faults.injected.kill";
        "faults.injected.crash" ]
  in
  note "faults: %s" (Faults.to_spec fault_config);
  note "clients=%d requests=%d wall=%.2fs throughput=%.1f req/s" clients
    requests wall
    (float_of_int requests /. wall);
  note "completed=%d failed=%d (success rate %.1f%%)" completed failed
    (100.0 *. success_rate);
  note
    "injected: drop=%d delay=%d error=%d kill=%d crash=%d (total %d), \
     worker_restarts=%d"
    (delta "faults.injected.drop")
    (delta "faults.injected.delay")
    (delta "faults.injected.error")
    (delta "faults.injected.kill")
    (delta "faults.injected.crash")
    injected_total
    (delta "server.worker.restarts");
  note "client: retries=%d timeouts=%d reconnects=%d giveups=%d"
    (delta "client.retries") (delta "client.timeouts")
    (delta "client.reconnects") (delta "client.giveups");
  note "latency ms (incl. retries): p50=%.2f p95=%.2f p99=%.2f max=%.2f"
    (q 0.5) (q 0.95) (q 0.99) (q 1.0);
  let router = chaos_router_run () in
  write_artifact "chaos"
    [ ( "config",
        J.Obj
          [ ("clients", int clients); ("per_client", int per_client);
            ("workers", int workers); ("queue_capacity", int queue_capacity);
            ("sim_reps", int sim_reps); ("retries", int retries);
            ("timeout_ms", int timeout_ms);
            ("faults", str (Faults.to_spec fault_config)) ] );
      ("wall_sec", num wall);
      ("throughput_rps", num (float_of_int requests /. wall));
      ("requests", int requests); ("completed", int completed);
      ("failed", int failed);
      ("success_rate", num success_rate);
      ( "injected",
        J.Obj
          (List.map
             (fun k -> (k, int (delta ("faults.injected." ^ k))))
             [ "drop"; "delay"; "error"; "kill"; "crash" ]
          @ [ ("total", int injected_total) ]) );
      ("worker_restarts", int (delta "server.worker.restarts"));
      ("client_retries", int (delta "client.retries"));
      ("client_timeouts", int (delta "client.timeouts"));
      ("client_reconnects", int (delta "client.reconnects"));
      ("client_giveups", int (delta "client.giveups"));
      ("latency_ms", quantiles q p50_to_max);
      ("router", router) ]

(* ------------------------------------------------------------------ *)
(* replay — the incremental-sweep experiment: a small Table-1-style
   ratio sweep is run four ways and the outputs compared byte-for-byte:

     direct   no store at all (plain Runner.makespans);
     cold     fresh store A — computes everything, commits batches;
     warm     store A again — serves everything from committed batches;
     resumed  fresh store B first runs a partial sweep (half the cells,
              then half the replications of the next cell), then gets a
              torn record appended to its log — the on-disk state a
              [kill -9] mid-append leaves — and the full sweep re-runs
              over it.

   The claim checked: all four outputs are identical (memoized and
   resumed sweeps are certified equal to the direct computation), the
   warm pass is served from the store, and recovery truncated the torn
   tail.  Writes BENCH_replay.json. *)

let replay_bench () =
  section "replay: store-memoized sweep - cold vs warm vs kill-resume";
  let module RS = Suu_store.Result_store in
  let tiny = tiny_scale () in
  let sizes = if tiny then [ 8; 12 ] else [ 16; 32; 64 ] in
  let reps = if tiny then 10 else 40 in
  let m = 4 and seed = 515 in
  let hazard = W.Uniform { lo = 0.2; hi = 0.95 } in
  let cells =
    List.concat_map
      (fun n ->
        let inst = W.independent hazard ~n ~m ~seed:(seed + n) in
        List.map
          (fun (label, policy) -> (n, label, inst, policy))
          [ ("suu-i-sem", Suu_core.Suu_i_sem.policy inst);
            ("greedy", Suu_core.Baselines.greedy_completion inst);
            ("round-robin", Suu_core.Baselines.round_robin inst) ])
      sizes
  in
  (* One line per cell with round-trip floats: byte equality of this
     string is bit equality of every replication summary. *)
  let run_cells store cs ~reps =
    let buf = Buffer.create 512 in
    List.iter
      (fun (n, label, inst, policy) ->
        let xs =
          match store with
          | None -> Runner.makespans inst policy ~seed ~reps
          | Some st ->
              Suu_store.Memo.makespans ~store:st ~policy_name:label inst
                policy ~seed ~reps
        in
        let s = Summary.of_array xs in
        Buffer.add_string buf
          (Printf.sprintf "%d %s %.17g %.17g %.17g %.17g\n" n label
             s.Summary.mean s.Summary.stddev s.Summary.min s.Summary.max))
      cs;
    Buffer.contents buf
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun e -> rm_rf (Filename.concat path e))
          (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let dir_a = "_bench_replay_store_a" and dir_b = "_bench_replay_store_b" in
  rm_rf dir_a;
  rm_rf dir_b;
  (* direct: the reference output, no store anywhere. *)
  let direct = run_cells None cells ~reps in
  (* cold: fresh store, everything computed and committed.  One cold
     pass takes about a millisecond at tiny scale, so one timing follows
     whatever else the host is doing: [cold_sec] is the median of
     [cold_runs] passes, each into a fresh store.  The last one's store
     serves the warm pass. *)
  let cold_runs = 5 in
  let cold_pass () =
    rm_rf dir_a;
    let store_a = RS.open_store dir_a in
    let t0 = Unix.gettimeofday () in
    let out = run_cells (Some store_a) cells ~reps in
    let sec = Unix.gettimeofday () -. t0 in
    RS.close store_a;
    (out, sec)
  in
  let colds = List.init cold_runs (fun _ -> cold_pass ()) in
  let cold = fst (List.hd colds) in
  let cold_sec =
    let times = Array.of_list (List.map snd colds) in
    Array.sort Float.compare times;
    times.(cold_runs / 2)
  in
  (* warm: same store, everything served. *)
  let store_a = RS.open_store dir_a in
  let growth = growth_since () in
  let t0 = Unix.gettimeofday () in
  let warm = run_cells (Some store_a) cells ~reps in
  let warm_sec = Unix.gettimeofday () -. t0 in
  let delta = growth () in
  let warm_served = delta "store.memo.served"
  and warm_computed = delta "store.memo.computed" in
  let stats_a = RS.stats store_a in
  RS.close store_a;
  (* resumed: emulate a sweep killed mid-run.  Pass 1 completes half
     the cells, then commits only half the replications of the next
     cell; then a torn frame is appended to the log — exactly what a
     kill -9 between [write] and [fsync] can leave — and pass 2 runs
     the full sweep over the recovered store. *)
  let store_b = RS.open_store dir_b in
  let half = List.length cells / 2 in
  let partial = List.filteri (fun i _ -> i < half) cells in
  ignore (run_cells (Some store_b) partial ~reps);
  (match List.nth_opt cells half with
  | Some cell -> ignore (run_cells (Some store_b) [ cell ] ~reps:(reps / 2))
  | None -> ());
  RS.close store_b;
  let log_b = Filename.concat dir_b "results.log" in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 log_b
  in
  output_string oc "\x40\x00\x00\x00\xde\xad\xbe\xef tor";
  close_out oc;
  let growth = growth_since () in
  let store_b = RS.open_store dir_b in
  let truncated = growth () "store.truncated" in
  let resumed = run_cells (Some store_b) cells ~reps in
  RS.close store_b;
  let identical =
    List.for_all (fun (out, _) -> String.equal direct out) colds
    && String.equal cold warm
  in
  let resumed_identical = String.equal direct resumed in
  let total_reps = List.length cells * reps in
  note "cells=%d reps/cell=%d (%d replications per full sweep)"
    (List.length cells) reps total_reps;
  note "cold %.4fs (median of %d), warm %.4fs (speedup %.1fx)" cold_sec
    cold_runs warm_sec
    (cold_sec /. Float.max warm_sec 1e-9);
  note "warm pass: served=%d computed=%d" warm_served warm_computed;
  note "outputs identical (direct=cold=warm): %b" identical;
  note "kill-resume output identical: %b (recovery truncated %d torn tail)"
    resumed_identical truncated;
  write_artifact "replay"
    [ ( "config",
        J.Obj
          [ ("cells", int (List.length cells)); ("reps", int reps);
            ("machines", int m); ("seed", int seed) ] );
      ("cold_sec", num cold_sec); ("warm_sec", num warm_sec);
      ("speedup", num (cold_sec /. Float.max warm_sec 1e-9));
      ("identical", J.Bool identical);
      ("resumed_identical", J.Bool resumed_identical);
      ("torn_tail_truncated", int truncated); ("warm_served", int warm_served);
      ("warm_computed", int warm_computed); ("sweep_reps", int total_reps);
      ( "store",
        J.Obj
          [ ("keys", int stats_a.RS.keys); ("records", int stats_a.RS.records);
            ("reps", int stats_a.RS.reps);
            ("file_bytes", int stats_a.RS.file_bytes) ] ) ];
  rm_rf dir_a;
  rm_rf dir_b

(* ------------------------------------------------------------------ *)
(* shard — the scale-out experiment: the same closed-loop load measured
   against (a) a direct in-process suu-serve, (b) the router fronting
   one shard (pure proxy overhead), and (c) the router fronting two
   shards; then a byte-identity sweep proving every routed response is
   identical to the unrouted server's.  All servers share this
   process's plan cache, so a common warmup pass makes the comparison
   about the wire path, not about who populated the cache first.
   Writes BENCH_shard.json, whose checks hold the proxy-overhead floor
   and byte identity. *)

let shard_bench () =
  section "shard: routed vs direct suu-serve (proxy overhead, byte identity)";
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let module Router = Suu_router.Router in
  let module P = Suu_server.Protocol in
  let tiny = tiny_scale () in
  let clients = if tiny then 4 else 8 in
  let per_client = if tiny then 30 else 250 in
  let sim_reps = if tiny then 32 else 160 in
  let workers = 4 and queue_capacity = 64 in
  let pool = serve_pool () in
  (* Simulate-heavy mix: the proxy-overhead ratio is only meaningful
     under a compute-bound load; a ping-pong mix would just measure
     the extra hop twice. *)
  let mix =
    request_mix ~pool ~sim_reps
      [ (70, `Simulate); (10, `Plan); (8, `Describe); (8, `Lower_bound);
        (4, `Stats) ]
  in
  (* One closed-loop measurement against whatever is listening on
     [port]; returns (rps, ok, errors). *)
  let run_load ~port =
    let connect _ = Client.connect ~port ~retries:2 ~timeout_ms:30_000 () in
    let l = closed_loop ~clients ~per_client ~seed:9300 ~connect mix in
    let rps = float_of_int (clients * per_client) /. l.wall in
    (rps, l.ok, l.overloaded + l.failed)
  in
  let config = { Server.default_config with workers; queue_capacity } in
  (* Warmup: populate the process-global plan cache for every pool
     instance so neither contestant pays the cold LP solves. *)
  let warm () =
    let s = Server.start ~config () in
    let c = Client.connect ~port:(Server.port s) () in
    Array.iter
      (fun inst ->
        ignore (Client.plan c ~policy:"auto" ~seed:0 inst);
        ignore (Client.simulate c ~policy:"auto" ~reps:sim_reps inst))
      pool;
    Client.close c;
    Server.stop s
  in
  warm ();
  (* (a) direct *)
  let direct = Server.start ~config () in
  let rps_direct, ok_d, err_d = run_load ~port:(Server.port direct) in
  Server.stop direct;
  note "direct:   %.1f req/s (ok=%d err=%d)" rps_direct ok_d err_d;
  (* (b) routed, one shard: the pure cost of the extra hop *)
  let growth = growth_since () in
  let s1 = Server.start ~config () in
  let r1 = Router.start ~shards:[ shard_spec s1 ] () in
  let rps_routed1, ok_r1, err_r1 = run_load ~port:(Router.port r1) in
  Router.stop r1;
  Server.stop s1;
  note "routed-1: %.1f req/s (ok=%d err=%d)" rps_routed1 ok_r1 err_r1;
  (* (c) routed, two shards *)
  let sa = Server.start ~config () in
  let sb = Server.start ~config () in
  let r2 = Router.start ~shards:[ shard_spec sa; shard_spec sb ] () in
  let rps_routed2, ok_r2, err_r2 = run_load ~port:(Router.port r2) in
  let routed_requests = growth () "router.route" in
  Router.stop r2;
  Server.stop sa;
  Server.stop sb;
  note "routed-2: %.1f req/s (ok=%d err=%d)" rps_routed2 ok_r2 err_r2;
  let ratio1 = rps_routed1 /. rps_direct in
  note "proxy overhead: routed-1 at %.1f%% of direct" (100.0 *. ratio1);
  (* Byte-identity sweep: every request type over every pool instance,
     raw frames compared between a direct server and the 2-shard
     router.  [stats] is excluded — a merged cluster view is not a
     single server's view by design. *)
  let raw_call ~port payload =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write_substring fd payload 0 (String.length payload));
        let buf = Buffer.create 512 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          let got = Unix.read fd chunk 0 (Bytes.length chunk) in
          if got > 0 then begin
            Buffer.add_subbytes buf chunk 0 got;
            let s = Buffer.contents buf in
            if
              String.length s >= 5
              && String.sub s (String.length s - 5) 5 = "done\n"
            then s
            else go ()
          end
          else Buffer.contents buf
        in
        go ())
  in
  let sweep_requests =
    List.concat_map
      (fun inst ->
        List.map
          (fun body -> P.request_to_string { P.id = None; deadline_ms = None; body })
          [ P.Describe inst; P.Lower_bound inst;
            P.Plan { inst; policy = "auto"; seed = 3 };
            P.Simulate { inst; policy = "auto"; reps = sim_reps; seed = 9 } ])
      (Array.to_list pool)
  in
  let direct = Server.start ~config () in
  let sa = Server.start ~config () in
  let sb = Server.start ~config () in
  let r = Router.start ~shards:[ shard_spec sa; shard_spec sb ] () in
  let mismatches =
    List.fold_left
      (fun acc req ->
        let d = raw_call ~port:(Server.port direct) req in
        let v = raw_call ~port:(Router.port r) req in
        if String.equal d v then acc else acc + 1)
      0 sweep_requests
  in
  Router.stop r;
  Server.stop sa;
  Server.stop sb;
  Server.stop direct;
  let byte_identical = mismatches = 0 in
  note "byte identity: %d/%d routed responses identical to direct%s"
    (List.length sweep_requests - mismatches)
    (List.length sweep_requests)
    (if byte_identical then "" else "  << MISMATCH");
  write_artifact "shard"
    [ ( "config",
        J.Obj
          [ ("clients", int clients); ("per_client", int per_client);
            ("workers", int workers); ("queue_capacity", int queue_capacity);
            ("sim_reps", int sim_reps) ] );
      ("direct_rps", num rps_direct); ("routed_1shard_rps", num rps_routed1);
      ("routed_2shard_rps", num rps_routed2); ("routed_vs_direct", num ratio1);
      ("routed_requests", int routed_requests);
      ("errors", int (err_d + err_r1 + err_r2));
      ("sweep_requests", int (List.length sweep_requests));
      ("sweep_mismatches", int mismatches);
      ("byte_identical", J.Bool byte_identical) ]

(* ------------------------------------------------------------------ *)
(* table1 — the Table-1 harness extended with the online family: for a
   matrix of synthetic and SWF trace-driven instances, measure every
   applicable registered policy's ratio-to-lower-bound AND its steps/sec
   (engine steps driven per wall second, policy construction included —
   the serve-path cost of choosing that policy).  The gate asserts the
   online tier's reason to exist: LZF must drive steps at least 5x
   faster than SUU-I-SEM on the same instances, and on single-machine
   near-one instances (where the work bound is tight) its measured
   ratio must stay within the Agnetis-Lidbetter 0.8531 guarantee,
   i.e. <= 1/0.8531. *)

let lzf_bound = 1.0 /. 0.8531

let table1 () =
  section
    "table1: online policies (lzf, backfill) vs LP policies and baselines \
     - ratio to lower bound + steps/sec";
  Suu_sched.Register.ensure ();
  let module R = Suu_core.Policy_registry in
  let tiny = tiny_scale () in
  let n = if tiny then 12 else 32 in
  let reps = if tiny then 6 else 20 in
  let swf_take = if tiny then 4 else 10 in
  let uniform = W.Uniform { lo = 0.2; hi = 0.95 } in
  let synthetic =
    [ W.independent W.Near_one ~n ~m:4 ~seed:61;
      W.independent uniform ~n ~m:4 ~seed:62;
      W.random_chains uniform ~n ~z:3 ~m:4 ~seed:63;
      W.forest uniform ~n ~trees:2 ~orientation:`Mixed ~m:4 ~seed:64 ]
  in
  let swf_file = "bench/workloads/sample20.swf" in
  let swf =
    if Sys.file_exists swf_file then
      let trace = Suu_workload.Swf.load_file swf_file in
      let pairs = Suu_workload.Swf.instances trace in
      Array.to_list
        (Array.sub pairs 0 (min swf_take (Array.length pairs)))
      |> List.map snd
    else begin
      note "warning: %s not found, skipping SWF rows" swf_file;
      []
    end
  in
  let rows =
    List.map (fun i -> ("synthetic", i)) synthetic
    @ List.map (fun i -> ("swf", i)) swf
  in
  (* Two timings per (instance, policy).  Cold: construction plus the
     first execution, before this digest's plans exist in the global
     plan cache — the latency a serve worker pays on a first-touch
     request, which is what the online tier shortcuts (the 5x
     LZF-vs-SEM floor gates this).  Warm: all [reps] executions
     end-to-end — steady-state policy cost per engine step.  The LP
     policies must be measured cold before anything else touches their
     digest; each policy appears exactly once per instance here, and
     SUU-I-SEM precedes SUU-I-OBL (which shares its plans) in registry
     order. *)
  let measure name inst ~bound ~seed =
    let t0 = Unix.gettimeofday () in
    match R.build name inst with
    | Error _ -> None
    | Ok policy ->
        (* Both timings are sequential: one request on one worker.  The
           domain pool's spin-up would otherwise dominate the numerator
           of these runs of a few dozen steps — for cheap policies it
           would hide exactly the LP cost the cold timing measures, and
           the warm steps/sec would time the pool, not the policy. *)
        let first = Runner.makespans ~jobs:1 inst policy ~seed ~reps:1 in
        let cold_wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
        let cold_sps = first.(0) /. cold_wall in
        let t1 = Unix.gettimeofday () in
        let xs = Runner.makespans ~jobs:1 inst policy ~seed ~reps in
        let wall = Float.max 1e-9 (Unix.gettimeofday () -. t1) in
        let steps = Array.fold_left ( +. ) 0.0 xs in
        let mean = steps /. float_of_int reps in
        Some (mean /. Float.max bound 1e-9, steps /. wall, cold_sps, mean)
  in
  let all_rows = ref [] in
  List.iteri
    (fun k (kind, inst) ->
      let bound = LB.combined inst in
      let shape =
        Suu_dag.Classify.describe
          (Suu_dag.Classify.classify (Instance.dag inst))
      in
      let table =
        Table.create
          ~header:[ "policy"; "ratio"; "steps/s"; "cold st/s"; "E[T]" ]
      in
      let cols = ref [] in
      List.iter
        (fun name ->
          if name <> "auto" then
            match measure name inst ~bound ~seed:(500 + k) with
            | None -> ()
            | Some (ratio, sps, cold, mean) ->
                cols := (name, ratio, sps, cold, mean) :: !cols;
                Table.add_float_row table name [ ratio; sps; cold; mean ])
        (R.applicable inst);
      Printf.printf "%s (%s, %s): n=%d m=%d, bound %.2f\n" (Instance.name inst)
        kind shape (Instance.n inst) (Instance.m inst) bound;
      Table.print table;
      print_newline ();
      all_rows :=
        (kind, Instance.name inst, shape, inst, bound, List.rev !cols)
        :: !all_rows)
    rows;
  let all_rows = List.rev !all_rows in
  (* Within-run speedup floor: LZF vs SUU-I-SEM first-touch (cold
     plan cache) steps/sec, wherever both ran on a non-trivial
     instance.  One-job SWF rows are excluded: a one-step execution
     times scheduler overhead, not scheduling. *)
  let speedup_min =
    List.fold_left
      (fun acc (_, _, _, inst, _, cols) ->
        if Instance.n inst < 8 then acc
        else
          match
            ( List.find_opt (fun (p, _, _, _, _) -> p = "lzf") cols,
              List.find_opt (fun (p, _, _, _, _) -> p = "suu-i-sem") cols )
          with
          | Some (_, _, _, cl, _), Some (_, _, _, cs, _) when cs > 0.0 ->
              Float.min acc (cl /. cs)
          | _ -> acc)
      infinity all_rows
  in
  note "lzf vs suu-i-sem cold steps/sec speedup (min over instances): %s"
    (if speedup_min = infinity then "n/a"
     else Printf.sprintf "%.1fx" speedup_min);
  (* Single-machine near-one instances: the work bound is within ceil
     slack of E[T_OPT], so the measured LZF ratio directly tests the
     0.8531 guarantee.  More reps than the matrix rows: this is a hard
     gate, and the mean over few traces of a sum of exponentials is
     noisy. *)
  let sm_reps = if tiny then 60 else 200 in
  let single_machine =
    List.map
      (fun seed ->
        let inst = W.independent W.Near_one ~n:16 ~m:1 ~seed in
        let bound = LB.combined inst in
        let xs =
          makespans inst (Suu_sched.Lzf.policy inst) ~seed:(seed + 1)
            ~reps:sm_reps
        in
        let mean =
          Array.fold_left ( +. ) 0.0 xs /. float_of_int sm_reps
        in
        let r = mean /. Float.max bound 1e-9 in
        note "single-machine lzf %s: ratio %.4f (bound %.4f)"
          (Instance.name inst) r lzf_bound;
        (Instance.name inst, r))
      [ 71; 72 ]
  in
  (* Aggregate per-policy means for the JSON (satellite: policy-cost
     comparison without SUU_TRACE). *)
  let policy_names =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, _, _, _, _, cols) ->
           List.map (fun (p, _, _, _, _) -> p) cols)
         all_rows)
  in
  let aggregate p =
    let rs, ss =
      List.fold_left
        (fun (rs, ss) (_, _, _, _, _, cols) ->
          match List.find_opt (fun (p', _, _, _, _) -> p' = p) cols with
          | Some (_, r, s, _, _) -> (r :: rs, s :: ss)
          | None -> (rs, ss))
        ([], []) all_rows
    in
    let mean l =
      List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))
    in
    (mean rs, mean ss, List.length rs)
  in
  write_artifact "table1"
    [ ( "config",
        J.Obj [ ("n", int n); ("reps", int reps); ("sm_reps", int sm_reps) ] );
      ("lzf_bound", num lzf_bound);
      ("synthetic_rows", int (List.length synthetic));
      ("swf_rows", int (List.length swf));
      (* null when no instance ran both policies *)
      ("lzf_vs_sem_speedup_min", num speedup_min);
      ( "single_machine_lzf",
        J.List
          (List.map
             (fun (name, r) ->
               J.Obj [ ("instance", str name); ("ratio", num r) ])
             single_machine) );
      ( "policies",
        J.List
          (List.map
             (fun p ->
               let r, s, c = aggregate p in
               J.Obj
                 [ ("policy", str p); ("mean_ratio", num r);
                   ("mean_steps_per_sec", num s); ("rows", int c) ])
             policy_names) );
      ( "rows",
        J.List
          (List.map
             (fun (kind, name, shape, inst, bound, cols) ->
               J.Obj
                 [ ("instance", str name); ("kind", str kind);
                   ("shape", str shape);
                   ("n", int (Instance.n inst)); ("m", int (Instance.m inst));
                   ("lower_bound", num bound);
                   ( "policies",
                     J.List
                       (List.map
                          (fun (p, r, s, cold, mk) ->
                            J.Obj
                              [ ("policy", str p); ("ratio", num r);
                                ("steps_per_sec", num s);
                                ("cold_steps_per_sec", num cold);
                                ("mean_makespan", num mk) ])
                          cols) ) ])
             all_rows) ) ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e1m", e1m); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("a1", a1); ("a2", a2); ("a3", a3);
    ("perf", perf); ("table1", table1); ("serve", serve_bench);
    ("chaos", chaos_bench); ("replay", replay_bench);
    ("shard", shard_bench);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--connections" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            connections_target := n;
            parse acc rest
        | _ ->
            Printf.eprintf "--connections expects a positive integer, got %S\n"
              n;
            exit 2)
    | "--connections" :: [] ->
        prerr_endline "--connections expects a positive integer";
        exit 2
    | "--workload" :: spec :: rest ->
        workload_spec := Some spec;
        parse acc rest
    | "--workload" :: [] ->
        prerr_endline
          "--workload expects a spec: swf:FILE | poisson:RATE | bursty | \
           diurnal";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let names = parse [] args in
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if !failed_checks > 0 then begin
    Printf.eprintf "bench: %d check(s) failed\n" !failed_checks;
    exit 1
  end
