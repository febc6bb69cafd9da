type frac = { x : float array array; d : float array; value : float }

(* Per job, the machines allowed by the optional top-machines restriction:
   the [k] machines with smallest failure probability. *)
let allowed_machines inst ~top_machines j =
  let m = Instance.m inst in
  let all =
    List.filter
      (fun i -> Instance.clipped_log_failure inst ~target:1.0 i j > 0.0)
      (List.init m (fun i -> i))
  in
  match top_machines with
  | None -> all
  | Some k ->
      let sorted =
        List.sort
          (fun a b -> compare (Instance.q inst a j) (Instance.q inst b j))
          all
      in
      List.filteri (fun idx _ -> idx < k) sorted

(* The (LP2) problem over the jobs in [chains], with the variables of
   its x_ij (keyed by (i, j)) and of its d_j (-1 for uncovered jobs). *)
let build ?top_machines inst ~chains =
  let m = Instance.m inst in
  let n = Instance.n inst in
  let covered = Array.make n false in
  List.iter
    (fun chain ->
      Array.iter
        (fun j ->
          if j < 0 || j >= n then invalid_arg "Lp2.solve: job out of range";
          if covered.(j) then invalid_arg "Lp2.solve: duplicate job";
          covered.(j) <- true)
        chain)
    chains;
  let jobs =
    Array.of_list (List.filter (fun j -> covered.(j)) (List.init n Fun.id))
  in
  if Array.length jobs = 0 then invalid_arg "Lp2.solve: no jobs";
  let p = Suu_lp.Problem.create ~name:"lp2" () in
  let t_var = Suu_lp.Problem.add_var ~obj:1.0 p in
  let xvar = Hashtbl.create (m * Array.length jobs) in
  let dvar = Array.make n (-1) in
  Array.iter
    (fun j ->
      dvar.(j) <- Suu_lp.Problem.add_var p;
      List.iter
        (fun i -> Hashtbl.add xvar (i, j) (Suu_lp.Problem.add_var p))
        (allowed_machines inst ~top_machines j))
    jobs;
  (* (4) coverage with clipped coefficients. *)
  Array.iter
    (fun j ->
      let terms =
        Hashtbl.fold
          (fun (i, j') v acc ->
            if j' = j then
              (v, Instance.clipped_log_failure inst ~target:1.0 i j) :: acc
            else acc)
          xvar []
      in
      Suu_lp.Problem.add_constraint p terms Suu_lp.Problem.Ge 1.0)
    jobs;
  (* (5) machine loads. *)
  for i = 0 to m - 1 do
    let terms =
      Hashtbl.fold
        (fun (i', _) v acc -> if i' = i then (v, 1.0) :: acc else acc)
        xvar []
    in
    Suu_lp.Problem.add_constraint p ((t_var, -1.0) :: terms)
      Suu_lp.Problem.Le 0.0
  done;
  (* (6) chain lengths. *)
  List.iter
    (fun chain ->
      let terms =
        Array.to_list (Array.map (fun j -> (dvar.(j), 1.0)) chain)
      in
      Suu_lp.Problem.add_constraint p ((t_var, -1.0) :: terms)
        Suu_lp.Problem.Le 0.0)
    chains;
  (* (7) x_ij <= d_j and (8) d_j >= 1. *)
  Hashtbl.iter
    (fun (_, j) v ->
      Suu_lp.Problem.add_constraint p
        [ (v, 1.0); (dvar.(j), -1.0) ]
        Suu_lp.Problem.Le 0.0)
    xvar;
  Array.iter
    (fun j ->
      Suu_lp.Problem.add_constraint p [ (dvar.(j), 1.0) ] Suu_lp.Problem.Ge
        1.0)
    jobs;
  (p, xvar, dvar)

let problem_for_testing ?top_machines inst ~chains =
  let p, _, _ = build ?top_machines inst ~chains in
  p

let solve_impl ?top_machines inst ~chains =
  let m = Instance.m inst and n = Instance.n inst in
  let p, xvar, dvar = build ?top_machines inst ~chains in
  (* (LP2) has chain-length and coupling rows (LP1 does not), so it is
     not a min-load cover: MWU does not apply, and every solver solves
     it with the exact tableau. *)
  let value, sol = Suu_lp.Simplex.solve_exn p in
  let x = Array.make_matrix m n 0.0 in
  Hashtbl.iter (fun (i, j) v -> x.(i).(j) <- Float.max 0.0 sol.(v)) xvar;
  let d =
    Array.init n (fun j -> if dvar.(j) >= 0 then Float.max 1.0 sol.(dvar.(j)) else 1.0)
  in
  { x; d; value }

let solve ?top_machines ?(solver = Solver_choice.default) inst ~chains =
  Suu_obs.Span.with_span
    ~attrs:[ ("solver", Solver_choice.name solver) ]
    "lp2.solve"
    (fun () -> solve_impl ?top_machines inst ~chains)

let round_impl inst frac =
  let n = Instance.n inst in
  let jobs = ref [] in
  for j = n - 1 downto 0 do
    let used = ref false in
    for i = 0 to Instance.m inst - 1 do
      if frac.x.(i).(j) > 1e-12 then used := true
    done;
    if !used then jobs := j :: !jobs
  done;
  let jobs = Array.of_list !jobs in
  Rounding.round
    ~job_cap:(fun j -> Mathx.ceil_pos (6.0 *. frac.d.(j)))
    inst ~jobs ~target:1.0 ~frac:frac.x ~frac_value:frac.value

let round inst frac =
  Suu_obs.Span.with_span "lp2.rounding" (fun () -> round_impl inst frac)
