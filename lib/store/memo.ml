let default_batch = 64

let c_served = Suu_obs.Registry.memo_counter "store.memo.served"
let c_computed = Suu_obs.Registry.memo_counter "store.memo.computed"

let instance_digest inst =
  Digest.to_hex (Suu_core.Instance_io.digest inst)

let makespans ~store ?cap ?jobs ?(batch = default_batch) ?policy_name inst
    policy ~seed ~reps =
  if reps <= 0 then invalid_arg "Memo.makespans: reps must be positive";
  if batch <= 0 then invalid_arg "Memo.makespans: batch must be positive";
  let policy_name =
    match policy_name with
    | Some n -> n
    | None -> Suu_core.Policy.name policy
  in
  let key =
    { Result_store.digest = instance_digest inst; policy = policy_name;
      seed; cap }
  in
  let have = Result_store.committed store key in
  let have_n = min (Array.length have) reps in
  let results = Array.make reps 0.0 in
  Array.blit have 0 results 0 have_n;
  Suu_obs.Counter.add (c_served ()) have_n;
  if have_n < reps then begin
    (* Same derivation as Runner.makespans: replication [k]'s pair
       depends only on (seed, k), so starting mid-sweep replays the
       exact generators an uninterrupted run would have used. *)
    let rngs = Suu_sim.Runner.rep_rngs ~seed ~reps in
    let lo = ref have_n in
    while !lo < reps do
      let base = !lo in
      let hi = min reps (base + batch) in
      Suu_sim.Runner.run_range ?cap ?jobs inst policy ~rngs results ~lo:base
        ~hi;
      Result_store.append store key ~start:base
        (Array.sub results base (hi - base));
      lo := hi
    done;
    Suu_obs.Counter.add (c_computed ()) (reps - have_n)
  end;
  results
