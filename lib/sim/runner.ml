(* Canonical per-replication generator derivation.

   Determinism contract: generators are split off the master in an
   explicit loop (trace rng before policy rng, replication order) —
   Array.init's effect order is unspecified, so it is not used here.
   Replication [k]'s pair depends only on [(seed, k)], never on [reps]:
   extending a sweep from 10 to 100 replications re-runs the first 10
   on the exact same traces. *)
let rep_rngs ~seed ~reps =
  if reps < 0 then invalid_arg "Runner.rep_rngs: negative reps";
  if reps = 0 then [||]
  else begin
    let master = Suu_prng.Rng.create ~seed in
    let draw_pair () =
      let trace_rng = Suu_prng.Rng.split master in
      let policy_rng = Suu_prng.Rng.split master in
      (trace_rng, policy_rng)
    in
    let pairs = Array.make reps (draw_pair ()) in
    for k = 1 to reps - 1 do
      pairs.(k) <- draw_pair ()
    done;
    pairs
  end

(* The one replication body.  Replications fan out over domains; each
   writes only its own slot and rngs.(k) is private to replication k,
   so results are bit-identical to a sequential loop in replication
   order. *)
let run_range ?cap ?jobs inst policy ~rngs results ~lo ~hi =
  if lo < 0 || hi < lo || hi > Array.length rngs
     || hi > Array.length results
  then invalid_arg "Runner.run_range: bad range";
  let n = Suu_core.Instance.n inst in
  Parallel.parallel_for ?jobs ~n:(hi - lo) (fun i ->
      let k = lo + i in
      let trace_rng, policy_rng = rngs.(k) in
      let trace = Trace.draw ~n trace_rng in
      results.(k) <-
        float_of_int (Engine.makespan ?cap inst policy ~trace ~rng:policy_rng))

let makespans ?cap ?jobs inst policy ~seed ~reps =
  if reps <= 0 then invalid_arg "Runner.makespans: reps must be positive";
  let rngs = rep_rngs ~seed ~reps in
  let results = Array.make reps 0.0 in
  run_range ?cap ?jobs inst policy ~rngs results ~lo:0 ~hi:reps;
  results

let expected_makespan ?cap ?jobs inst policy ~seed ~reps =
  let xs = makespans ?cap ?jobs inst policy ~seed ~reps in
  Array.fold_left ( +. ) 0.0 xs /. float_of_int reps
