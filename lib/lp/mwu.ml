type solution = {
  x : float array array;
  value : float;
  lower_bound : float;
}

let min_load_cover ~a ~m ~n ~targets ~eps =
  if eps <= 0.0 || eps > 0.5 then invalid_arg "Mwu: eps must be in (0, 0.5]";
  if Array.length targets <> n then invalid_arg "Mwu: bad targets length";
  (* Normalized gains: a' i j covers one unit of job j's demand. *)
  let support = Array.make n [] in
  let gain = Array.init m (fun _ -> Array.make n 0.0) in
  for j = 0 to n - 1 do
    if targets.(j) <= 0.0 then invalid_arg "Mwu: targets must be positive";
    for i = 0 to m - 1 do
      let aij = a i j in
      if aij < 0.0 then invalid_arg "Mwu: negative gain";
      if aij > 0.0 then begin
        gain.(i).(j) <- aij /. targets.(j);
        support.(j) <- i :: support.(j)
      end
    done;
    if support.(j) = [] then invalid_arg "Mwu: job with empty support"
  done;
  let support = Array.map Array.of_list support in
  let fm = float_of_int m in
  let delta = (1.0 +. eps) /. (((1.0 +. eps) *. fm) ** (1.0 /. eps)) in
  let w = Array.make m delta in
  let total = ref (delta *. fm) in
  let x = Array.init m (fun _ -> Array.make n 0.0) in
  let cheapest j =
    let sup = support.(j) in
    let best = ref sup.(0) in
    for k = 1 to Array.length sup - 1 do
      let i = sup.(k) in
      (* Cost of one unit of coverage via machine i is w_i / gain_ij. *)
      if w.(i) /. gain.(i).(j) < w.(!best) /. gain.(!best).(j) then best := i
    done;
    !best
  in
  (* Weak-duality certificate.  For the dual of the min-load cover
       maximize  sum_j T_j z_j
       s.t.      a_ij z_j <= y_i,  sum_i y_i <= 1,  y, z >= 0
     any positive weight vector yields a feasible point: take
     y_i = w_i / sum w and z_j = min_i y_i / a_ij, so the dual value
       sum_j T_j z_j = (sum_j min_{i in supp j} w_i / gain_ij) / sum w
     is a lower bound on the optimal load — unconditionally, whatever
     the weights.  Evaluated at every phase boundary (the weights move
     within a phase, and the mid-run duals are often the tightest); the
     best one becomes the certificate. *)
  let dual_bound () =
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      let sup = support.(j) in
      let best = ref (w.(sup.(0)) /. gain.(sup.(0)).(j)) in
      for k = 1 to Array.length sup - 1 do
        let i = sup.(k) in
        let c = w.(i) /. gain.(i).(j) in
        if c < !best then best := c
      done;
      acc := !acc +. !best
    done;
    !acc /. !total
  in
  let lower_bound = ref (dual_bound ()) in
  (* Phases: route one unit of (normalized) coverage per job per phase.
     The first phase always runs to its end: the weight total can cross
     1 inside it (on one machine every unit routed raises the one
     weight), and a job it never reached would have no coverage to
     scale. *)
  let first = ref true in
  while !total < 1.0 || !first do
    let j = ref 0 in
    while !j < n && (!total < 1.0 || !first) do
      let rem = ref 1.0 in
      while !rem > 1e-12 && (!total < 1.0 || !first) do
        let i = cheapest !j in
        let g = gain.(i).(!j) in
        let u = Float.min 1.0 (!rem /. g) in
        x.(i).(!j) <- x.(i).(!j) +. u;
        rem := !rem -. (u *. g);
        let bump = eps *. u *. w.(i) in
        w.(i) <- w.(i) +. bump;
        total := !total +. bump
      done;
      incr j
    done;
    first := false;
    let lb = dual_bound () in
    if lb > !lower_bound then lower_bound := lb
  done;
  (* Scale to feasibility: first undo the GK overcounting, then normalize
     the least-covered job to its target. *)
  let scale = log (1.0 /. delta) /. log (1.0 +. eps) in
  let min_cov = ref infinity in
  for j = 0 to n - 1 do
    let cov = ref 0.0 in
    Array.iter (fun i -> cov := !cov +. (gain.(i).(j) *. x.(i).(j)))
      support.(j);
    let cov = !cov /. scale in
    if cov < !min_cov then min_cov := cov
  done;
  let factor = 1.0 /. (scale *. !min_cov) in
  let value = ref 0.0 in
  for i = 0 to m - 1 do
    let load = ref 0.0 in
    for j = 0 to n - 1 do
      x.(i).(j) <- x.(i).(j) *. factor;
      load := !load +. x.(i).(j)
    done;
    if !load > !value then value := !load
  done;
  { x; value = !value; lower_bound = !lower_bound }
