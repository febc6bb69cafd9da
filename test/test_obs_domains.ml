(* First use of the obs counters from several domains at once.  The
   engine, runner, plan cache and LP layer intern their registry
   counters on first use, and that first use normally happens inside
   Runner worker domains.  This executable's first action is that race:
   four domains meet at a barrier, then each runs LP policies through
   [Runner.makespans].  It must stay a process of its own, since any
   earlier simulation in the process would intern the counters first. *)

module Runner = Suu_sim.Runner
module Registry = Suu_obs.Registry
module W = Suu_workload.Workload

let domains = 4
let reps = 4
let uniform = W.Uniform { lo = 0.2; hi = 0.95 }
let solver = Suu_core.Solver_choice.serve_default

(* n * m above the LP's tiny-instance cutoff, so MWU actually runs. *)
let indep = W.independent uniform ~n:12 ~m:3 ~seed:5
let chains = W.random_chains uniform ~n:12 ~z:3 ~m:3 ~seed:6

let sweep () =
  ( Runner.makespans ~jobs:1 indep
      (Suu_core.Suu_i_sem.policy ~solver indep)
      ~seed:1 ~reps,
    Runner.makespans ~jobs:1 chains
      (Suu_core.Suu_c.policy ~solver chains)
      ~seed:2 ~reps )

let counter name =
  List.assoc_opt name (Registry.snapshot ()).Registry.counters

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  if counter "engine.runs" <> None then
    fail "engine.runs registered before any simulation ran";
  let arrived = Atomic.make 0 in
  let worker () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    sweep ()
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  let mine = worker () in
  let results = mine :: List.map Domain.join spawned in
  let runs = counter "engine.runs" in
  if Registry.enabled () && runs <> Some (domains * 2 * reps) then
    fail "engine.runs = %s after %d runs"
      (Option.fold ~none:"absent" ~some:string_of_int runs)
      (domains * 2 * reps);
  let reference = sweep () in
  if not (List.for_all (( = ) reference) results) then
    fail "concurrent makespans differ from a sequential run";
  print_endline "obs counters: concurrent first use ok"
