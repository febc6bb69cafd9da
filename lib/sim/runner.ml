let rep_rngs = Seeds.rep_rngs

let makespans ?cap ?jobs inst policy ~seed ~reps =
  if reps <= 0 then invalid_arg "Runner.makespans: reps must be positive";
  let rngs = rep_rngs ~seed ~reps in
  let results = Array.make reps 0.0 in
  let n = Suu_core.Instance.n inst in
  (* Replications fan out over domains; each writes only its own slot
     and rngs.(k) is private to replication k, so results are
     bit-identical to a sequential loop in replication order. *)
  Parallel.parallel_for ?jobs ~n:reps (fun k ->
      let trace_rng, policy_rng = rngs.(k) in
      let trace = Trace.draw ~n trace_rng in
      results.(k) <-
        float_of_int (Engine.makespan ?cap inst policy ~trace ~rng:policy_rng));
  results

let expected_makespan ?cap ?jobs inst policy ~seed ~reps =
  let xs = makespans ?cap ?jobs inst policy ~seed ~reps in
  Array.fold_left ( +. ) 0.0 xs /. float_of_int reps
