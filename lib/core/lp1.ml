type frac = { x : float array array; value : float }

let validate inst ~jobs ~target =
  if Array.length jobs = 0 then invalid_arg "Lp1.solve: no jobs";
  if target <= 0.0 then invalid_arg "Lp1.solve: target must be positive";
  let n = Instance.n inst in
  let seen = Array.make n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= n then invalid_arg "Lp1.solve: job out of range";
      if seen.(j) then invalid_arg "Lp1.solve: duplicate job";
      seen.(j) <- true)
    jobs

let build_problem inst ~jobs ~target =
  let m = Instance.m inst in
  let p = Suu_lp.Problem.create ~name:"lp1" () in
  let t_var = Suu_lp.Problem.add_var ~obj:1.0 p in
  (* Variables only for pairs with positive clipped log failure. *)
  let var = Hashtbl.create (m * Array.length jobs) in
  Array.iter
    (fun j ->
      for i = 0 to m - 1 do
        if Instance.clipped_log_failure inst ~target i j > 0.0 then
          Hashtbl.add var (i, j) (Suu_lp.Problem.add_var p)
      done)
    jobs;
  Array.iter
    (fun j ->
      let terms = ref [] in
      for i = 0 to m - 1 do
        match Hashtbl.find_opt var (i, j) with
        | Some v ->
            terms :=
              (v, Instance.clipped_log_failure inst ~target i j) :: !terms
        | None -> ()
      done;
      Suu_lp.Problem.add_constraint p !terms Suu_lp.Problem.Ge target)
    jobs;
  for i = 0 to m - 1 do
    let terms = ref [ (t_var, -1.0) ] in
    Array.iter
      (fun j ->
        match Hashtbl.find_opt var (i, j) with
        | Some v -> terms := (v, 1.0) :: !terms
        | None -> ())
      jobs;
    Suu_lp.Problem.add_constraint p !terms Suu_lp.Problem.Le 0.0
  done;
  (p, var)

let problem_for_testing inst ~jobs ~target =
  validate inst ~jobs ~target;
  fst (build_problem inst ~jobs ~target)

let extract inst var sol =
  let x = Array.make_matrix (Instance.m inst) (Instance.n inst) 0.0 in
  Hashtbl.iter (fun (i, j) v -> x.(i).(j) <- Float.max 0.0 sol.(v)) var;
  x

let solve_simplex inst ~jobs ~target =
  let p, var = build_problem inst ~jobs ~target in
  let value, sol = Suu_lp.Simplex.solve_exn p in
  { x = extract inst var sol; value }

(* Below this many (machine, job) cells the simplex is already
   microseconds-cheap and the MWU constant factors do not pay for
   themselves — and CI leans on the fallback being deterministic: a tiny
   instance served with [--solver mwu] answers byte-identically to a
   simplex server. *)
let mwu_tiny_cells = 16

let c_mwu_certified = Suu_obs.Registry.memo_counter "lp1.mwu.certified"

let c_mwu_fallback_cert =
  Suu_obs.Registry.memo_counter "lp1.mwu.fallback.cert"

let c_mwu_fallback_tiny =
  Suu_obs.Registry.memo_counter "lp1.mwu.fallback.tiny"

let solve_mwu inst ~jobs ~target ~eps ~gap_limit ~guarantee =
  let m = Instance.m inst in
  let n = Instance.n inst in
  let k = Array.length jobs in
  if m * k <= mwu_tiny_cells then begin
    Suu_obs.Counter.incr (c_mwu_fallback_tiny ());
    solve_simplex inst ~jobs ~target
  end
  else begin
    let a i jj = Instance.clipped_log_failure inst ~target i jobs.(jj) in
    let { Suu_lp.Mwu.x = xk; value; lower_bound } =
      Suu_lp.Mwu.min_load_cover ~a ~m ~n:k
        ~targets:(Array.make k target) ~eps
    in
    (* Certificate: accept the MWU solution only when weak duality
       verifies it.  [lower_bound <= optimum] holds unconditionally, so
       [value / lower_bound <= gap_limit] is a proof, not a heuristic —
       and a failed proof costs one exact solve, never a served plan
       outside the guarantee. *)
    let certified =
      lower_bound > 0.0 && value <= (gap_limit *. lower_bound) +. 1e-12
    in
    if not certified then begin
      Suu_obs.Counter.incr (c_mwu_fallback_cert ());
      solve_simplex inst ~jobs ~target
    end
    else begin
      (* Guard for {!Solver_choice.guarantee}: unless a test narrowed or
         widened the acceptance limit, a certified solve must sit within
         the advertised [1 + 5 eps] — so the constant and the
         certificate cannot drift apart unnoticed. *)
      assert (
        gap_limit <> guarantee
        || value <= (guarantee *. lower_bound) +. 1e-12);
      Suu_obs.Counter.incr (c_mwu_certified ());
      let x = Array.make_matrix m n 0.0 in
      for i = 0 to m - 1 do
        for jj = 0 to k - 1 do
          x.(i).(jobs.(jj)) <- xk.(i).(jj)
        done
      done;
      { x; value }
    end
  end

let solve ?(solver = Solver_choice.default) ?mwu_gap_limit inst ~jobs ~target =
  validate inst ~jobs ~target;
  Suu_obs.Span.with_span
    ~attrs:[ ("solver", Solver_choice.name solver) ]
    "lp1.solve"
    (fun () ->
      match solver with
      | Solver_choice.Simplex -> solve_simplex inst ~jobs ~target
      | Solver_choice.Mwu eps ->
          let guarantee = Solver_choice.guarantee solver in
          let gap_limit =
            match mwu_gap_limit with Some l -> l | None -> guarantee
          in
          solve_mwu inst ~jobs ~target ~eps ~gap_limit ~guarantee)
