(* Differential oracle: the dense two-phase simplex as it stood before
   its pivot learned to skip zeros, kept verbatim below this header.
   Every pivot sweeps every column of every row.  test_lp.ml checks that
   {!Suu_lp.Simplex} returns the same result constructor and, on an
   optimum, the same objective, [x] and duals under [=].  Not on any
   production path. *)

module Problem = Suu_lp.Problem

type result =
  | Optimal of { objective : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type detailed = { objective : float; x : float array; duals : float array }

let eps = 1e-9
let feas_tol = 1e-7

type tableau = {
  rows : int;
  cols : int; (* number of variable columns; rhs lives at index [cols] *)
  a : float array array; (* rows x (cols + 1) *)
  basis : int array; (* basic column of each row *)
  z1 : float array; (* phase-1 reduced costs, length cols + 1 *)
  z2 : float array; (* phase-2 reduced costs, length cols + 1 *)
  nstruct : int; (* structural variables occupy columns [0, nstruct) *)
  first_artificial : int; (* artificial columns occupy [first_artificial, cols) *)
  dual_of_row : (int * float) array;
  (* per user constraint: the standardized row's slack/surplus/artificial
     column and the sign such that the user-facing dual is
     sign * z2.(column) at optimality *)
}

(* Lay out columns as [structural | slack/surplus | artificial] and install
   the initial basis: slack for <= rows, artificial for >= and = rows. *)
let build problem =
  let nstruct = Problem.num_vars problem in
  let nrows = Problem.num_constraints problem in
  (* Count extra columns. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      let sense = if rhs < 0.0 then
          (match sense with Problem.Le -> Problem.Ge
                          | Problem.Ge -> Problem.Le
                          | Problem.Eq -> Problem.Eq)
        else sense
      in
      match sense with
      | Problem.Le -> incr n_slack
      | Problem.Ge -> incr n_slack; incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  let a = Array.init nrows (fun _ -> Array.make (cols + 1) 0.0) in
  let basis = Array.make nrows (-1) in
  let z1 = Array.make (cols + 1) 0.0 in
  let z2 = Array.make (cols + 1) 0.0 in
  let obj = Problem.objective problem in
  Array.blit obj 0 z2 0 nstruct;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let dual_of_row = Array.make nrows (0, 0.0) in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let row = a.(!r) in
      let flip = rhs < 0.0 in
      let put (v, c) = row.(v) <- row.(v) +. (if flip then -.c else c) in
      Array.iter put terms;
      row.(cols) <- (if flip then -.rhs else rhs);
      let sense =
        if flip then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      (* Record where this row's dual can be read off after phase 2:
         the reduced cost of a slack (+1) column is -y, of a surplus
         (-1) column +y, of a zero-cost artificial -y; a flipped row
         negates the user-facing dual again. *)
      let fsign = if flip then -1.0 else 1.0 in
      (match sense with
      | Problem.Le ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- 1.0;
          basis.(!r) <- s;
          dual_of_row.(!r) <- (s, -.fsign)
      | Problem.Ge ->
          let s = !slack_next in
          incr slack_next;
          row.(s) <- -1.0;
          let art = !art_next in
          incr art_next;
          row.(art) <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (s, fsign)
      | Problem.Eq ->
          let art = !art_next in
          incr art_next;
          row.(art) <- 1.0;
          basis.(!r) <- art;
          dual_of_row.(!r) <- (art, -.fsign));
      incr r);
  (* Phase-1 reduced costs: cost 1 on every artificial column, then
     price out the initial (artificial) basics by subtracting their
     rows. *)
  for j = first_artificial to cols - 1 do
    z1.(j) <- 1.0
  done;
  for r = 0 to nrows - 1 do
    if basis.(r) >= first_artificial then begin
      let row = a.(r) in
      for j = 0 to cols do
        z1.(j) <- z1.(j) -. row.(j)
      done
    end
  done;
  (* The z rows store reduced costs in [0, cols) and minus the current
     objective value at index [cols]. *)
  { rows = nrows; cols; a; basis; z1; z2; nstruct; first_artificial;
    dual_of_row }

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  let inv = 1.0 /. p in
  for j = 0 to t.cols do
    arow.(j) <- arow.(j) *. inv
  done;
  arow.(col) <- 1.0;
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > 0.0 then begin
      for j = 0 to t.cols do
        target.(j) <- target.(j) -. (f *. arow.(j))
      done;
      target.(col) <- 0.0
    end
  in
  for r = 0 to t.rows - 1 do
    if r <> row then eliminate t.a.(r)
  done;
  eliminate t.z1;
  eliminate t.z2;
  t.basis.(row) <- col

(* Choose the entering column: Dantzig (most negative reduced cost) unless
   [bland], then the lowest eligible index.  [limit] excludes artificial
   columns during phase 2. *)
let entering z ~bland ~limit =
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to limit - 1 do
         if z.(j) < -.eps then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref (-1) and best_val = ref (-.eps) in
    for j = 0 to limit - 1 do
      if z.(j) < !best_val then begin
        best_val := z.(j);
        best := j
      end
    done;
    !best
  end

(* Ratio test; ties broken toward the smallest basic column to limit
   cycling.  Returns -1 when the column is unbounded. *)
let leaving t col =
  let best = ref (-1) and best_ratio = ref infinity in
  for r = 0 to t.rows - 1 do
    let arc = t.a.(r).(col) in
    if arc > eps then begin
      let ratio = t.a.(r).(t.cols) /. arc in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && !best >= 0
            && t.basis.(r) < t.basis.(!best))
      then begin
        best_ratio := ratio;
        best := r
      end
    end
  done;
  !best

type phase_outcome = Done | Unbounded_col | Out_of_iters

let run_phase t z ~limit ~iters_left ~bland_after =
  let iters = ref 0 in
  let rec loop () =
    if !iters >= iters_left then Out_of_iters
    else begin
      let bland = !iters > bland_after in
      let col = entering z ~bland ~limit in
      if col < 0 then Done
      else
        let row = leaving t col in
        if row < 0 then Unbounded_col
        else begin
          pivot t ~row ~col;
          incr iters;
          loop ()
        end
    end
  in
  let outcome = loop () in
  (outcome, !iters)

(* After phase 1, pivot zero-level artificial basics out on any usable
   non-artificial column; rows that admit none are redundant and keep their
   artificial basic at level zero (artificials never re-enter because
   phase 2 prices only columns below [first_artificial]). *)
let expel_artificials t =
  for r = 0 to t.rows - 1 do
    if t.basis.(r) >= t.first_artificial then begin
      let row = t.a.(r) in
      let col = ref (-1) in
      (try
         for j = 0 to t.first_artificial - 1 do
           if Float.abs row.(j) > 1e-7 then begin
             col := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !col >= 0 then pivot t ~row:r ~col:!col
    end
  done

let solve_internal ?max_iters problem =
  let t = build problem in
  let default_budget = max 100_000 (50 * (t.rows + t.cols)) in
  let budget = match max_iters with Some b -> b | None -> default_budget in
  let bland_after = 10 * (t.rows + t.cols) in
  let phase1_needed = t.first_artificial < t.cols in
  let after_phase1 =
    if not phase1_needed then Some budget
    else begin
      match run_phase t t.z1 ~limit:t.cols ~iters_left:budget ~bland_after with
      | Done, used ->
          let phase1_obj = -.t.z1.(t.cols) in
          if phase1_obj > feas_tol then None
          else begin
            expel_artificials t;
            Some (budget - used)
          end
      | Unbounded_col, _ ->
          (* Phase 1 minimizes a sum of nonnegative variables: it cannot be
             unbounded on exact arithmetic; treat as numerical failure. *)
          None
      | Out_of_iters, _ -> Some 0
    end
  in
  match after_phase1 with
  | None -> (Infeasible, None)
  | Some 0 -> (Iteration_limit, None)
  | Some left -> (
      match
        run_phase t t.z2 ~limit:t.first_artificial ~iters_left:left
          ~bland_after
      with
      | Done, _ ->
          let x = Array.make t.nstruct 0.0 in
          for r = 0 to t.rows - 1 do
            let b = t.basis.(r) in
            if b < t.nstruct then x.(b) <- t.a.(r).(t.cols)
          done;
          (* Clamp tiny negatives produced by roundoff. *)
          for v = 0 to t.nstruct - 1 do
            if x.(v) < 0.0 && x.(v) > -.feas_tol then x.(v) <- 0.0
          done;
          let duals =
            Array.map
              (fun (col, sign) -> sign *. t.z2.(col))
              t.dual_of_row
          in
          (Optimal { objective = Problem.objective_value problem x; x },
           Some duals)
      | Unbounded_col, _ -> (Unbounded, None)
      | Out_of_iters, _ -> (Iteration_limit, None))

let solve ?max_iters problem = fst (solve_internal ?max_iters problem)

let solve_detailed ?max_iters problem =
  match solve_internal ?max_iters problem with
  | Optimal { objective; x }, Some duals -> Some { objective; x; duals }
  | _ -> None

let solve_exn ?max_iters problem =
  match solve ?max_iters problem with
  | Optimal { objective; x } -> (objective, x)
  | Infeasible -> failwith (Problem.name problem ^ ": infeasible")
  | Unbounded -> failwith (Problem.name problem ^ ": unbounded")
  | Iteration_limit -> failwith (Problem.name problem ^ ": iteration limit")
