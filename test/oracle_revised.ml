(* Differential oracle: a revised simplex with an explicit basis
   inverse, structurally independent of {!Suu_lp.Simplex}.  Where the
   tableau carries every row through every pivot, this solver keeps
   only [B⁻¹] (eta updates, a Gauss-Jordan refactorization every 64
   iterations) and prices columns against the original constraint
   matrix.  Always starts cold from the slack/artificial identity
   basis.  test_lp.ml checks that both solvers agree on feasibility,
   unboundedness and optimal values.  Not on any production path. *)

module Problem = Suu_lp.Problem
module Simplex = Suu_lp.Simplex

let eps = 1e-9
let feas_tol = 1e-7

(* Columns are stored sparse (row indices + values): SUU's LPs have
   2-3 nonzeros per structural column, so pricing and column updates
   over a dense rows x cols matrix would spend two orders of magnitude
   more memory traffic than the arithmetic needs.  The basis matrix
   and B⁻¹ stay dense — they are rows x rows, which is small. *)
type standard = {
  rows : int;
  cols : int;
  col_rows : int array array; (* per column: rows of its nonzeros *)
  col_vals : float array array; (* per column: the coefficients *)
  b : float array; (* rhs >= 0 *)
  c2 : float array; (* phase-2 costs *)
  nstruct : int;
  first_artificial : int;
  basis : int array;
}

(* Standard form: [structural | slack/surplus | artificial] columns with
   an identity initial basis (slack for <=, artificial for >= and =). *)
let standardize problem =
  let nstruct = Problem.num_vars problem in
  let rows = Problem.num_constraints problem in
  let n_slack = ref 0 and n_art = ref 0 in
  Problem.iter_constraints problem (fun _ sense rhs ->
      let sense =
        if rhs < 0.0 then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      match sense with
      | Problem.Le -> incr n_slack
      | Problem.Ge ->
          incr n_slack;
          incr n_art
      | Problem.Eq -> incr n_art);
  let first_artificial = nstruct + !n_slack in
  let cols = first_artificial + !n_art in
  (* Count structural nonzeros per column, then fill with cursors. *)
  let nnz = Array.make cols 0 in
  Problem.iter_constraints problem (fun terms _ _ ->
      Array.iter (fun (v, _) -> nnz.(v) <- nnz.(v) + 1) terms);
  for j = nstruct to cols - 1 do
    nnz.(j) <- 1
  done;
  let col_rows = Array.init cols (fun j -> Array.make nnz.(j) 0) in
  let col_vals = Array.init cols (fun j -> Array.make nnz.(j) 0.0) in
  let cursor = Array.make cols 0 in
  let b = Array.make rows 0.0 in
  let basis = Array.make rows (-1) in
  let c2 = Array.make cols 0.0 in
  Array.blit (Problem.objective problem) 0 c2 0 nstruct;
  let slack_next = ref nstruct and art_next = ref first_artificial in
  let r = ref 0 in
  Problem.iter_constraints problem (fun terms sense rhs ->
      let flip = rhs < 0.0 in
      Array.iter
        (fun (v, coeff) ->
          let i = cursor.(v) in
          cursor.(v) <- i + 1;
          col_rows.(v).(i) <- !r;
          col_vals.(v).(i) <- (if flip then -.coeff else coeff))
        terms;
      b.(!r) <- (if flip then -.rhs else rhs);
      let sense =
        if flip then
          match sense with
          | Problem.Le -> Problem.Ge
          | Problem.Ge -> Problem.Le
          | Problem.Eq -> Problem.Eq
        else sense
      in
      let unit_col j v =
        col_rows.(j).(0) <- !r;
        col_vals.(j).(0) <- v
      in
      (match sense with
      | Problem.Le ->
          unit_col !slack_next 1.0;
          basis.(!r) <- !slack_next;
          incr slack_next
      | Problem.Ge ->
          unit_col !slack_next (-1.0);
          incr slack_next;
          unit_col !art_next 1.0;
          basis.(!r) <- !art_next;
          incr art_next
      | Problem.Eq ->
          unit_col !art_next 1.0;
          basis.(!r) <- !art_next;
          incr art_next);
      incr r);
  (* A structural variable can appear in several constraints; the same
     variable twice in ONE constraint was merged by Problem.  Columns
     are filled in row order, so col_rows is sorted — nothing to fix. *)
  { rows; cols; col_rows; col_vals; b; c2; nstruct; first_artificial; basis }

(* Recompute B^-1 from the basis columns by Gauss-Jordan with partial
   pivoting; returns false if the basis matrix is (numerically)
   singular. *)
let refactorize st binv =
  let k = st.rows in
  let work = Array.init k (fun _ -> Array.make k 0.0) in
  for c = 0 to k - 1 do
    let j = st.basis.(c) in
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      work.(rows_j.(i)).(c) <- vals_j.(i)
    done
  done;
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      binv.(r).(c) <- (if r = c then 1.0 else 0.0)
    done
  done;
  let ok = ref true in
  for col = 0 to k - 1 do
    if !ok then begin
      let pivot = ref col in
      for r = col + 1 to k - 1 do
        if Float.abs work.(r).(col) > Float.abs work.(!pivot).(col) then
          pivot := r
      done;
      if Float.abs work.(!pivot).(col) < 1e-12 then ok := false
      else begin
        if !pivot <> col then begin
          let t = work.(col) in
          work.(col) <- work.(!pivot);
          work.(!pivot) <- t;
          let t = binv.(col) in
          binv.(col) <- binv.(!pivot);
          binv.(!pivot) <- t
        end;
        let inv = 1.0 /. work.(col).(col) in
        for c = 0 to k - 1 do
          work.(col).(c) <- work.(col).(c) *. inv;
          binv.(col).(c) <- binv.(col).(c) *. inv
        done;
        for r = 0 to k - 1 do
          if r <> col then begin
            let f = work.(r).(col) in
            if Float.abs f > 0.0 then begin
              for c = 0 to k - 1 do
                work.(r).(c) <- work.(r).(c) -. (f *. work.(col).(c));
                binv.(r).(c) <- binv.(r).(c) -. (f *. binv.(col).(c))
              done
            end
          end
        done
      end
    end
  done;
  !ok

type phase_result = Opt | Unbounded_dir | Iters_exhausted

let solve ?max_iters problem =
  let st = standardize problem in
  let k = st.rows in
  let binv = Array.init k (fun r -> Array.init k (fun c -> if r = c then 1.0 else 0.0)) in
  let is_basic = Array.make st.cols false in
  Array.iter (fun j -> is_basic.(j) <- true) st.basis;
  let budget =
    match max_iters with
    | Some b -> b
    | None -> max 100_000 (50 * (st.rows + st.cols))
  in
  let bland_after = 10 * (st.rows + st.cols) in
  let iters = ref 0 in
  let xb = Array.make k 0.0 in
  let compute_xb () =
    for r = 0 to k - 1 do
      let acc = ref 0.0 in
      for c = 0 to k - 1 do
        acc := !acc +. (binv.(r).(c) *. st.b.(c))
      done;
      xb.(r) <- !acc
    done
  in
  let y = Array.make k 0.0 in
  let compute_y cost =
    for c = 0 to k - 1 do
      let acc = ref 0.0 in
      for r = 0 to k - 1 do
        acc := !acc +. (cost st.basis.(r) *. binv.(r).(c))
      done;
      y.(c) <- !acc
    done
  in
  let reduced cost j =
    let acc = ref (cost j) in
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      acc := !acc -. (y.(rows_j.(i)) *. vals_j.(i))
    done;
    !acc
  in
  let u = Array.make k 0.0 in
  let compute_u j =
    Array.fill u 0 k 0.0;
    let rows_j = st.col_rows.(j) and vals_j = st.col_vals.(j) in
    for i = 0 to Array.length rows_j - 1 do
      let c = rows_j.(i) and v = vals_j.(i) in
      for r = 0 to k - 1 do
        u.(r) <- u.(r) +. (binv.(r).(c) *. v)
      done
    done
  in
  let pivot_update ~leave ~enter =
    let d = u.(leave) in
    let inv = 1.0 /. d in
    for c = 0 to k - 1 do
      binv.(leave).(c) <- binv.(leave).(c) *. inv
    done;
    for r = 0 to k - 1 do
      if r <> leave then begin
        let f = u.(r) in
        if Float.abs f > 0.0 then
          for c = 0 to k - 1 do
            binv.(r).(c) <- binv.(r).(c) -. (f *. binv.(leave).(c))
          done
      end
    done;
    is_basic.(st.basis.(leave)) <- false;
    is_basic.(enter) <- true;
    st.basis.(leave) <- enter
  in
  let run_phase cost ~limit =
    let rec loop () =
      if !iters >= budget then Iters_exhausted
      else begin
        if !iters mod 64 = 63 then ignore (refactorize st binv);
        compute_y cost;
        let bland = !iters > bland_after in
        (* entering column *)
        let enter = ref (-1) and best = ref (-.eps) in
        (try
           for j = 0 to limit - 1 do
             if not is_basic.(j) then begin
               let rc = reduced cost j in
               if bland then begin
                 if rc < -.eps then begin
                   enter := j;
                   raise Exit
                 end
               end
               else if rc < !best then begin
                 best := rc;
                 enter := j
               end
             end
           done
         with Exit -> ());
        if !enter < 0 then Opt
        else begin
          compute_u !enter;
          compute_xb ();
          let leave = ref (-1) and best_ratio = ref infinity in
          for r = 0 to k - 1 do
            if u.(r) > eps then begin
              let ratio = Float.max 0.0 xb.(r) /. u.(r) in
              if
                ratio < !best_ratio -. eps
                || (ratio < !best_ratio +. eps
                   && !leave >= 0
                   && st.basis.(r) < st.basis.(!leave))
              then begin
                best_ratio := ratio;
                leave := r
              end
            end
          done;
          if !leave < 0 then Unbounded_dir
          else begin
            pivot_update ~leave:!leave ~enter:!enter;
            incr iters;
            loop ()
          end
        end
      end
    in
    loop ()
  in
  let phase1_needed = st.first_artificial < st.cols in
  let c1 j = if j >= st.first_artificial then 1.0 else 0.0 in
  let feasible =
    if not phase1_needed then true
    else
      match run_phase c1 ~limit:st.cols with
      | Opt ->
          compute_xb ();
          let obj = ref 0.0 in
          for r = 0 to k - 1 do
            obj := !obj +. (c1 st.basis.(r) *. Float.max 0.0 xb.(r))
          done;
          if !obj > feas_tol then false
          else begin
            (* Expel zero-level artificial basics where possible. *)
            for r = 0 to k - 1 do
              if st.basis.(r) >= st.first_artificial then begin
                let found = ref (-1) in
                (try
                   for j = 0 to st.first_artificial - 1 do
                     if not is_basic.(j) then begin
                       compute_u j;
                       if Float.abs u.(r) > 1e-7 then begin
                         found := j;
                         raise Exit
                       end
                     end
                   done
                 with Exit -> ());
                if !found >= 0 then begin
                  compute_u !found;
                  pivot_update ~leave:r ~enter:!found
                end
              end
            done;
            true
          end
      | Unbounded_dir -> false
      | Iters_exhausted -> raise Exit
  in
  match
    if not feasible then Simplex.Infeasible
    else begin
      let c2 j = if j < st.cols then st.c2.(j) else 0.0 in
      match run_phase c2 ~limit:st.first_artificial with
      | Opt ->
          compute_xb ();
          let x = Array.make st.nstruct 0.0 in
          for r = 0 to k - 1 do
            let j = st.basis.(r) in
            if j < st.nstruct then x.(j) <- Float.max 0.0 xb.(r)
          done;
          Simplex.Optimal { objective = Problem.objective_value problem x; x }
      | Unbounded_dir -> Simplex.Unbounded
      | Iters_exhausted -> Simplex.Iteration_limit
    end
  with
  | result -> result
  | exception Exit -> Simplex.Iteration_limit

let solve_exn ?max_iters problem =
  match solve ?max_iters problem with
  | Simplex.Optimal { objective; x } -> (objective, x)
  | Simplex.Infeasible -> failwith (Problem.name problem ^ ": infeasible")
  | Simplex.Unbounded -> failwith (Problem.name problem ^ ": unbounded")
  | Simplex.Iteration_limit ->
      failwith (Problem.name problem ^ ": iteration limit")
