(* Tests for the LP substrate: problem builder, two-phase simplex, and the
   MWU covering solver.  The simplex's correctness is what the paper's
   Lemma 1/2/5/6 machinery stands on, so it gets adversarial cases
   (degeneracy, redundancy, infeasibility, unboundedness) plus randomized
   cross-checks against independently-known optima. *)

module P = Suu_lp.Problem
module S = Suu_lp.Simplex
module Mwu = Suu_lp.Mwu

let checkf = Alcotest.(check (float 1e-6))

let optimal = function
  | S.Optimal { objective; x } -> (objective, x)
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | S.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

let solve_opt p = optimal (S.solve p)

(* --- hand-built LPs with known optima --- *)

let test_trivial_min () =
  (* min x s.t. x >= 3 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 3.0;
  let obj, sol = solve_opt p in
  checkf "objective" 3.0 obj;
  checkf "x" 3.0 sol.(x)

let test_two_var_max () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  (opt 12 at x=4,y=0) *)
  let p = P.create () in
  let x = P.add_var ~obj:(-3.0) p in
  let y = P.add_var ~obj:(-2.0) p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Le 4.0;
  P.add_constraint p [ (x, 1.0); (y, 3.0) ] P.Le 6.0;
  let obj, sol = solve_opt p in
  checkf "objective" (-12.0) obj;
  checkf "x" 4.0 sol.(x);
  checkf "y" 0.0 sol.(y)

let test_equality_constraint () =
  (* min x + y s.t. x + y = 5, x - y <= 1  -> any x+y=5; obj 5 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 5.0;
  P.add_constraint p [ (x, 1.0); (y, -1.0) ] P.Le 1.0;
  let obj, sol = solve_opt p in
  checkf "objective" 5.0 obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_negative_rhs () =
  (* min x s.t. -x <= -2  (i.e. x >= 2) *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, -1.0) ] P.Le (-2.0);
  let obj, _ = solve_opt p in
  checkf "objective" 2.0 obj

let test_infeasible () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  match S.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  (* min -x s.t. x >= 1 *)
  let p = P.create () in
  let x = P.add_var ~obj:(-1.0) p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 1.0;
  match S.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate_beale () =
  (* Beale's classic cycling example; Bland's fallback must terminate.
     min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
     s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
          0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
          x6 <= 1                         (optimum -0.05) *)
  let p = P.create () in
  let x4 = P.add_var ~obj:(-0.75) p in
  let x5 = P.add_var ~obj:150.0 p in
  let x6 = P.add_var ~obj:(-0.02) p in
  let x7 = P.add_var ~obj:6.0 p in
  P.add_constraint p
    [ (x4, 0.25); (x5, -60.0); (x6, -0.04); (x7, 9.0) ]
    P.Le 0.0;
  P.add_constraint p
    [ (x4, 0.5); (x5, -90.0); (x6, -0.02); (x7, 3.0) ]
    P.Le 0.0;
  P.add_constraint p [ (x6, 1.0) ] P.Le 1.0;
  let obj, sol = solve_opt p in
  checkf "objective" (-0.05) obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_redundant_rows () =
  (* Duplicate equalities create zero rows in phase 1. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:2.0 p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 3.0;
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Eq 3.0;
  P.add_constraint p [ (x, 2.0); (y, 2.0) ] P.Eq 6.0;
  let obj, sol = solve_opt p in
  checkf "objective" 3.0 obj;
  checkf "x" 3.0 sol.(x);
  checkf "y" 0.0 sol.(y)

let test_duplicate_terms_merged () =
  (* x appearing twice in one row must sum coefficients. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (x, 1.0) ] P.Ge 4.0;
  let obj, _ = solve_opt p in
  checkf "objective (2x >= 4)" 2.0 obj

let test_zero_rhs_ge () =
  (* min x + y s.t. x - y >= 0, y >= 2 -> x = y = 2 *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  let y = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0); (y, -1.0) ] P.Ge 0.0;
  P.add_constraint p [ (y, 1.0) ] P.Ge 2.0;
  let obj, _ = solve_opt p in
  checkf "objective" 4.0 obj

let test_solve_exn_raises () =
  let p = P.create ~name:"broken" () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  Alcotest.check_raises "exn" (Failure "broken: infeasible") (fun () ->
      ignore (S.solve_exn p))

let test_problem_validation () =
  let p = P.create () in
  let _ = P.add_var p in
  Alcotest.check_raises "bad var"
    (Invalid_argument "Problem.add_constraint: variable out of range")
    (fun () -> P.add_constraint p [ (5, 1.0) ] P.Ge 0.0)

let test_objective_value () =
  let p = P.create () in
  let x = P.add_var ~obj:2.0 p in
  let y = P.add_var ~obj:(-1.0) p in
  ignore y;
  checkf "eval" 5.0 (P.objective_value p [| 3.0; 1.0 |]);
  ignore x

(* --- randomized cross-checks --- *)

(* Random transportation-style LP whose optimum we can compute greedily:
   min sum c_i x_i  s.t. sum x_i >= b, x_i <= u_i.  Optimal cost: fill
   cheapest first. *)
let transportation_case seed =
  let rng = Suu_prng.Rng.create ~seed in
  let k = 2 + Suu_prng.Rng.int rng 6 in
  let c = Array.init k (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:5.0) in
  let u = Array.init k (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:3.0) in
  let cap = Array.fold_left ( +. ) 0.0 u in
  let b = Suu_prng.Rng.range rng ~lo:0.1 ~hi:(0.9 *. cap) in
  let p = P.create () in
  let xs = Array.map (fun ci -> P.add_var ~obj:ci p) c in
  P.add_constraint p
    (Array.to_list (Array.map (fun x -> (x, 1.0)) xs))
    P.Ge b;
  Array.iteri (fun i x -> P.add_constraint p [ (x, 1.0) ] P.Le u.(i)) xs;
  (* greedy optimum *)
  let order = Array.init k Fun.id in
  Array.sort (fun a b' -> compare c.(a) c.(b')) order;
  let expected = ref 0.0 and need = ref b in
  Array.iter
    (fun i ->
      let take = Float.min !need u.(i) in
      expected := !expected +. (take *. c.(i));
      need := !need -. take)
    order;
  (p, !expected)

let prop_transportation =
  QCheck.Test.make ~count:200 ~name:"simplex matches greedy transportation"
    QCheck.small_int (fun seed ->
      let p, expected = transportation_case seed in
      let obj, sol = solve_opt p in
      Float.abs (obj -. expected) < 1e-6 *. Float.max 1.0 expected
      && P.constraint_violation p sol < 1e-6)

(* Random LP1-shaped min-load covers: simplex solution must be feasible,
   and no worse than the trivial single-machine solution. *)
let prop_min_load_cover_feasible =
  QCheck.Test.make ~count:100 ~name:"simplex on LP1 shape: feasible + sane"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let m = 2 + Suu_prng.Rng.int rng 4 in
      let n = 2 + Suu_prng.Rng.int rng 6 in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
      in
      let p = P.create () in
      let t = P.add_var ~obj:1.0 p in
      let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
      for j = 0 to n - 1 do
        P.add_constraint p
          (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
          P.Ge 1.0
      done;
      for i = 0 to m - 1 do
        P.add_constraint p
          ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
          P.Le 0.0
      done;
      let obj, sol = solve_opt p in
      (* trivial upper bound: machine 0 covers everything alone *)
      let trivial = ref 0.0 in
      for j = 0 to n - 1 do
        trivial := !trivial +. (1.0 /. a.(0).(j))
      done;
      P.constraint_violation p sol < 1e-6
      && obj <= !trivial +. 1e-6
      && obj >= -1e-9)

(* Random LP in the two solvers: identical classification and, when
   optimal, matching objective values plus mutual feasibility. *)
let random_general_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let nv = 2 + Suu_prng.Rng.int rng 6 in
  let nc = 1 + Suu_prng.Rng.int rng 6 in
  let p = P.create () in
  let vars =
    Array.init nv (fun _ ->
        P.add_var ~obj:(Suu_prng.Rng.range rng ~lo:(-2.0) ~hi:3.0) p)
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Suu_prng.Rng.bool rng then
               Some (v, Suu_prng.Rng.range rng ~lo:(-2.0) ~hi:2.0)
             else None)
    in
    let terms = if terms = [] then [ (vars.(0), 1.0) ] else terms in
    let sense =
      match Suu_prng.Rng.int rng 3 with
      | 0 -> P.Le
      | 1 -> P.Ge
      | _ -> P.Eq
    in
    P.add_constraint p terms sense (Suu_prng.Rng.range rng ~lo:(-3.0) ~hi:5.0)
  done;
  p

(* --- duals --- *)

let test_duals_known () =
  (* min x s.t. x >= 3: dual of the covering row is 1 (the objective's
     full weight rests on it); objective = 1 * 3. *)
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 3.0;
  match S.solve_detailed p with
  | Some d ->
      checkf "objective" 3.0 d.S.objective;
      checkf "dual" 1.0 d.S.duals.(0)
  | None -> Alcotest.fail "expected optimal"

let test_duals_none_when_infeasible () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  Alcotest.(check bool) "none" true (S.solve_detailed p = None)

(* Strong duality + dual feasibility on random LPs: whenever the solver
   reports optimal, obj = duals . rhs and every variable's reduced cost
   under the duals is >= 0 (for minimization with x >= 0). *)
let prop_strong_duality =
  QCheck.Test.make ~count:300 ~name:"strong duality and dual feasibility"
    QCheck.small_int (fun seed ->
      let p = random_general_lp seed in
      match S.solve_detailed p with
      | None -> true (* infeasible/unbounded: nothing to check *)
      | Some d ->
          let nv = P.num_vars p in
          (* gather rhs and per-variable dual weights *)
          let yb = ref 0.0 in
          let aty = Array.make nv 0.0 in
          let r = ref 0 in
          P.iter_constraints p (fun terms _ rhs ->
              yb := !yb +. (d.S.duals.(!r) *. rhs);
              Array.iter
                (fun (v, coeff) ->
                  aty.(v) <- aty.(v) +. (d.S.duals.(!r) *. coeff))
                terms;
              incr r);
          let scale = Float.max 1.0 (Float.abs d.S.objective) in
          let strong = Float.abs (d.S.objective -. !yb) < 1e-5 *. scale in
          let c = P.objective p in
          let dual_feasible = ref true in
          for v = 0 to nv - 1 do
            if c.(v) -. aty.(v) < -1e-5 then dual_feasible := false
          done;
          strong && !dual_feasible)

(* --- revised simplex (differential) --- *)

(* {!Oracle_revised} is a cold-only revised simplex kept in test/ as an
   independent second solver. *)
module Rs = Oracle_revised

let test_revised_known_cases () =
  (* Re-run the hand-built cases through the second solver. *)
  let p = P.create () in
  let x = P.add_var ~obj:(-3.0) p in
  let y = P.add_var ~obj:(-2.0) p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Le 4.0;
  P.add_constraint p [ (x, 1.0); (y, 3.0) ] P.Le 6.0;
  let obj, sol = optimal (Rs.solve p) in
  checkf "objective" (-12.0) obj;
  checkf "feasible" 0.0 (P.constraint_violation p sol)

let test_revised_infeasible_unbounded () =
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  (match Rs.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  let p = P.create () in
  let x = P.add_var ~obj:(-1.0) p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 1.0;
  match Rs.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_revised_beale () =
  let p = P.create () in
  let x4 = P.add_var ~obj:(-0.75) p in
  let x5 = P.add_var ~obj:150.0 p in
  let x6 = P.add_var ~obj:(-0.02) p in
  let x7 = P.add_var ~obj:6.0 p in
  P.add_constraint p
    [ (x4, 0.25); (x5, -60.0); (x6, -0.04); (x7, 9.0) ]
    P.Le 0.0;
  P.add_constraint p
    [ (x4, 0.5); (x5, -90.0); (x6, -0.02); (x7, 3.0) ]
    P.Le 0.0;
  P.add_constraint p [ (x6, 1.0) ] P.Le 1.0;
  let obj, _ = optimal (Rs.solve p) in
  checkf "objective" (-0.05) obj

let prop_revised_matches_tableau =
  QCheck.Test.make ~count:300 ~name:"revised = tableau on random LPs"
    QCheck.small_int (fun seed ->
      let p = random_general_lp seed in
      match (S.solve p, Rs.solve p) with
      | ( S.Optimal { objective = oa; x = xa },
          S.Optimal { objective = ob; x = xb } ) ->
          Float.abs (oa -. ob) < 1e-5 *. Float.max 1.0 (Float.abs oa)
          && P.constraint_violation p xa < 1e-6
          && P.constraint_violation p xb < 1e-6
      | S.Infeasible, S.Infeasible -> true
      | S.Unbounded, S.Unbounded -> true
      | _, _ -> false)

let prop_revised_matches_on_lp1_shape =
  QCheck.Test.make ~count:60 ~name:"revised = tableau on LP1 shapes"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let m = 2 + Suu_prng.Rng.int rng 4 in
      let n = 2 + Suu_prng.Rng.int rng 6 in
      let a =
        Array.init m (fun _ ->
            Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
      in
      let targets =
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0)
      in
      let build () =
        let p = P.create () in
        let t = P.add_var ~obj:1.0 p in
        let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
        for j = 0 to n - 1 do
          P.add_constraint p
            (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
            P.Ge targets.(j)
        done;
        for i = 0 to m - 1 do
          P.add_constraint p
            ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
            P.Le 0.0
        done;
        p
      in
      let va, _ = solve_opt (build ()) in
      let vb, _ = optimal (Rs.solve (build ())) in
      Float.abs (va -. vb) < 1e-5 *. Float.max 1.0 va)

(* --- MWU --- *)

let mwu_case seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 1 + Suu_prng.Rng.int rng 5 in
  let n = 2 + Suu_prng.Rng.int rng 6 in
  let a =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
  in
  let targets =
    Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0)
  in
  (m, n, a, targets)

let simplex_min_load_cover ~m ~n ~a ~targets =
  let p = P.create () in
  let t = P.add_var ~obj:1.0 p in
  let x = Array.init m (fun _ -> Array.init n (fun _ -> P.add_var p)) in
  for j = 0 to n - 1 do
    P.add_constraint p
      (List.init m (fun i -> (x.(i).(j), a.(i).(j))))
      P.Ge targets.(j)
  done;
  for i = 0 to m - 1 do
    P.add_constraint p
      ((t, -1.0) :: List.init n (fun j -> (x.(i).(j), 1.0)))
      P.Le 0.0
  done;
  fst (solve_opt p)

let prop_mwu_feasible_and_near_optimal =
  QCheck.Test.make ~count:60 ~name:"MWU covers targets within (1+5eps) of LP"
    QCheck.small_int (fun seed ->
      let m, n, a, targets = mwu_case seed in
      let eps = 0.1 in
      let { Mwu.x; value; lower_bound } =
        Mwu.min_load_cover ~a:(fun i j -> a.(i).(j)) ~m ~n ~targets ~eps
      in
      (* feasibility: every job covered *)
      let covered = ref true in
      for j = 0 to n - 1 do
        let cov = ref 0.0 in
        for i = 0 to m - 1 do
          cov := !cov +. (a.(i).(j) *. x.(i).(j))
        done;
        if !cov < targets.(j) -. 1e-6 then covered := false
      done;
      (* load accounting *)
      let load = ref 0.0 in
      for i = 0 to m - 1 do
        let l = Array.fold_left ( +. ) 0.0 x.(i) in
        if l > !load then load := l
      done;
      let opt = simplex_min_load_cover ~m ~n ~a ~targets in
      !covered
      && Float.abs (!load -. value) < 1e-6
      && value <= ((1.0 +. (5.0 *. eps)) *. opt) +. 1e-6
      && value >= opt -. 1e-6
      (* certificate soundness: the weak-duality bound brackets the true
         optimum from below... *)
      && lower_bound <= opt +. 1e-6
      && lower_bound > 0.0
      (* ...and is tight enough that the (1+5eps) acceptance check the
         serve path performs (Lp1) passes on these instances. *)
      && value <= ((1.0 +. (5.0 *. eps)) *. lower_bound) +. 1e-6)

let test_mwu_validation () =
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Mwu: eps must be in (0, 0.5]") (fun () ->
      ignore
        (Mwu.min_load_cover
           ~a:(fun _ _ -> 1.0)
           ~m:1 ~n:1 ~targets:[| 1.0 |] ~eps:0.9));
  Alcotest.check_raises "empty support"
    (Invalid_argument "Mwu: job with empty support") (fun () ->
      ignore
        (Mwu.min_load_cover
           ~a:(fun _ _ -> 0.0)
           ~m:2 ~n:1 ~targets:[| 1.0 |] ~eps:0.1))

let test_mwu_single () =
  (* One machine, one job: the answer is exactly target / a. *)
  let { Mwu.value; _ } =
    Mwu.min_load_cover
      ~a:(fun _ _ -> 0.5)
      ~m:1 ~n:1 ~targets:[| 2.0 |] ~eps:0.05
  in
  Alcotest.(check bool)
    (Printf.sprintf "value %.4f in [4, 4*1.3]" value)
    true
    (value >= 4.0 -. 1e-9 && value <= 4.0 *. 1.3)

(* --- the tableau against its pre-sparse-pivot oracle --- *)

(* {!Oracle_simplex} is the dense tableau whose pivot sweeps every
   column of every row.  The production pivot touches only nonzeros and
   promises the same floating-point operations on every nonzero entry,
   so the results must agree exactly: same constructor and, on an
   optimum, objective, [x] and duals equal under [=] (which identifies
   -0 and +0). *)

module O = Oracle_simplex

let same_result a b =
  match (a, b) with
  | S.Optimal { objective = oa; x = xa }, O.Optimal { objective = ob; x = xb }
    ->
      oa = ob && xa = xb
  | S.Infeasible, O.Infeasible
  | S.Unbounded, O.Unbounded
  | S.Iteration_limit, O.Iteration_limit ->
      true
  | _, _ -> false

let same_detailed a b =
  match (a, b) with
  | Some (a : S.detailed), Some (b : O.detailed) ->
      a.objective = b.objective && a.x = b.x && a.duals = b.duals
  | None, None -> true
  | _, _ -> false

let agrees_with_oracle ?max_iters p =
  same_result (S.solve ?max_iters p) (O.solve ?max_iters p)
  && same_detailed (S.solve_detailed ?max_iters p)
       (O.solve_detailed ?max_iters p)

(* Problems as plain data, so rows can be duplicated before the
   problem is built. *)
type lp = {
  obj : float array;
  rows : ((int * float) list * P.sense * float) list;
}

let to_problem lp =
  let p = P.create () in
  Array.iter (fun c -> ignore (P.add_var ~obj:c p)) lp.obj;
  List.iter (fun (terms, sense, rhs) -> P.add_constraint p terms sense rhs)
    lp.rows;
  p

(* Small integers make exact cancellations, ties and degenerate
   vertices common; the rest are arbitrary floats. *)
let coeff rng =
  if Suu_prng.Rng.bool rng then float_of_int (Suu_prng.Rng.int rng 7 - 3)
  else Suu_prng.Rng.range rng ~lo:(-3.0) ~hi:3.0

let sparse_lp ?(max_vars = 14) ?(max_rows = 14)
    ?(densities = [| 0.15; 0.3; 0.6 |]) seed =
  let rng = Suu_prng.Rng.create ~seed in
  let nv = 2 + Suu_prng.Rng.int rng max_vars in
  let nc = 1 + Suu_prng.Rng.int rng max_rows in
  let density =
    densities.(Suu_prng.Rng.int rng (Array.length densities))
  in
  let obj = Array.init nv (fun _ -> coeff rng) in
  (* Most problems get right-hand sides that keep a random integer
     point [x0] feasible, negative wherever the row is negative at
     [x0]; the rest get arbitrary ones and are mostly infeasible. *)
  let x0 =
    if Suu_prng.Rng.int rng 5 = 0 then None
    else Some (Array.init nv (fun _ -> float_of_int (Suu_prng.Rng.int rng 4)))
  in
  let row () =
    let terms =
      List.filter_map
        (fun v ->
          if Suu_prng.Rng.float rng 1.0 < density then Some (v, coeff rng)
          else None)
        (List.init nv Fun.id)
    in
    let terms =
      if terms = [] then [ (Suu_prng.Rng.int rng nv, 1.0) ] else terms
    in
    let sense =
      match Suu_prng.Rng.int rng 3 with 0 -> P.Le | 1 -> P.Ge | _ -> P.Eq
    in
    let rhs =
      match x0 with
      | None -> float_of_int (Suu_prng.Rng.int rng 9 - 3)
      | Some x0 ->
          let at =
            List.fold_left (fun acc (v, c) -> acc +. (c *. x0.(v))) 0.0 terms
          in
          let slack = float_of_int (Suu_prng.Rng.int rng 3) in
          match sense with
          | P.Le -> at +. slack
          | P.Ge -> at -. slack
          | P.Eq -> at
    in
    (terms, sense, rhs)
  in
  let rows = List.init nc (fun _ -> row ()) in
  (* Half the time, a budget row keeps most of them bounded. *)
  let rows =
    if Suu_prng.Rng.bool rng then
      (List.init nv (fun v -> (v, 1.0)), P.Le, 10.0) :: rows
    else rows
  in
  (rng, { obj; rows })

(* Copies and sums of existing rows leave artificial basics at level
   zero after phase 1, which is what [expel_artificials] pivots out. *)
let redundant_lp ?max_vars ?max_rows ?densities seed =
  let rng, lp = sparse_lp ?max_vars ?max_rows ?densities seed in
  let rows = Array.of_list lp.rows in
  let pick () = rows.(Suu_prng.Rng.int rng (Array.length rows)) in
  let extra =
    List.init
      (1 + Suu_prng.Rng.int rng 4)
      (fun _ ->
        let terms, sense, rhs = pick () in
        match Suu_prng.Rng.int rng 3 with
        | 0 -> (terms, sense, rhs)
        | 1 -> (List.map (fun (v, c) -> (v, 2.0 *. c)) terms, sense, 2.0 *. rhs)
        | _ ->
            let terms', _, rhs' = pick () in
            (terms @ terms', P.Eq, rhs +. rhs'))
  in
  let all = Array.of_list (lp.rows @ extra) in
  Suu_prng.Rng.shuffle rng all;
  { lp with rows = Array.to_list all }

(* LP1: min t s.t. sum_i a_ij x_ij >= target_j, sum_j x_ij <= t, with
   some machines unable to run some jobs. *)
let lp1_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 1 + Suu_prng.Rng.int rng 5 in
  let n = 1 + Suu_prng.Rng.int rng 8 in
  let a =
    Array.init m (fun _ ->
        Array.init n (fun _ ->
            match Suu_prng.Rng.int rng 4 with
            | 0 -> 0.0
            | 1 -> 1.0
            | _ -> Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0))
  in
  for j = 0 to n - 1 do
    if a.(0).(j) = 0.0 then a.(Suu_prng.Rng.int rng m).(j) <- 0.5
  done;
  let x i j = 1 + (i * n) + j in
  let obj = Array.init (1 + (m * n)) (fun v -> if v = 0 then 1.0 else 0.0) in
  let cover =
    List.init n (fun j ->
        ( List.filter_map
            (fun i -> if a.(i).(j) > 0.0 then Some (x i j, a.(i).(j)) else None)
            (List.init m Fun.id),
          P.Ge,
          if Suu_prng.Rng.bool rng then 1.0
          else Suu_prng.Rng.range rng ~lo:0.5 ~hi:2.0 ))
  in
  let load =
    List.init m (fun i ->
        ((0, -1.0) :: List.init n (fun j -> (x i j, 1.0)), P.Le, 0.0))
  in
  { obj; rows = cover @ load }

(* LP2 (Section 4): LP1's rows plus one length row per chain, x <= d
   coupling rows and d >= 1, laid out as {!Suu_core.Lp2} does. *)
let lp2_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 1 + Suu_prng.Rng.int rng 4 in
  let n = 1 + Suu_prng.Rng.int rng 7 in
  let allowed =
    Array.init n (fun _ ->
        let l =
          List.filter (fun _ -> Suu_prng.Rng.int rng 4 > 0) (List.init m Fun.id)
        in
        if l = [] then [ Suu_prng.Rng.int rng m ] else l)
  in
  let nvars = ref 1 in
  let fresh () =
    let v = !nvars in
    incr nvars;
    v
  in
  let d = Array.make n 0 in
  let x = Array.make_matrix m n (-1) in
  for j = 0 to n - 1 do
    d.(j) <- fresh ();
    List.iter (fun i -> x.(i).(j) <- fresh ()) allowed.(j)
  done;
  let pairs =
    List.concat_map (fun j -> List.map (fun i -> (i, j)) allowed.(j))
      (List.init n Fun.id)
  in
  let l () =
    if Suu_prng.Rng.bool rng then 1.0
    else Suu_prng.Rng.range rng ~lo:0.05 ~hi:1.0
  in
  let cover =
    List.init n (fun j ->
        (List.map (fun i -> (x.(i).(j), l ())) allowed.(j), P.Ge, 1.0))
  in
  let load =
    List.init m (fun i ->
        ( (0, -1.0)
          :: List.filter_map
               (fun (i', j) -> if i' = i then Some (x.(i).(j), 1.0) else None)
               pairs,
          P.Le,
          0.0 ))
  in
  (* Cut the jobs into consecutive chains. *)
  let chains = ref [] and cur = ref [] in
  for j = 0 to n - 1 do
    cur := j :: !cur;
    if j = n - 1 || Suu_prng.Rng.int rng 3 = 0 then begin
      chains := List.rev !cur :: !chains;
      cur := []
    end
  done;
  let length =
    List.rev_map
      (fun chain ->
        ((0, -1.0) :: List.map (fun j -> (d.(j), 1.0)) chain, P.Le, 0.0))
      !chains
  in
  let coupling =
    List.map
      (fun (i, j) -> ([ (x.(i).(j), 1.0); (d.(j), -1.0) ], P.Le, 0.0))
      pairs
  in
  let unit = List.init n (fun j -> ([ (d.(j), 1.0) ], P.Ge, 1.0)) in
  let obj = Array.init !nvars (fun v -> if v = 0 then 1.0 else 0.0) in
  { obj; rows = cover @ load @ length @ coupling @ unit }

let oracle_prop ~count ~name gen =
  QCheck.Test.make ~count ~name QCheck.small_int (fun seed ->
      agrees_with_oracle (to_problem (gen seed)))

let prop_oracle_sparse =
  oracle_prop ~count:500 ~name:"tableau = oracle on sparse LPs" (fun seed ->
      snd (sparse_lp seed))

let prop_oracle_redundant =
  oracle_prop ~count:500 ~name:"tableau = oracle with redundant rows"
    redundant_lp

let prop_oracle_lp1 =
  oracle_prop ~count:200 ~name:"tableau = oracle on LP1 shapes" lp1_lp

let prop_oracle_lp2 =
  oracle_prop ~count:200 ~name:"tableau = oracle on LP2 shapes" lp2_lp

(* Rows of a few entries over up to ~100 columns start sparse in the
   tableau, and in about half of these problems fill-in turns some of
   them dense part-way through the solve.  With redundant rows,
   [expel_artificials] scans sparse rows for their lowest usable
   column. *)
let wide = (40, 30, [| 0.03; 0.06 |])

let prop_oracle_fill_in =
  let max_vars, max_rows, densities = wide in
  oracle_prop ~count:150 ~name:"tableau = oracle as rows fill in"
    (fun seed -> snd (sparse_lp ~max_vars ~max_rows ~densities seed))

let prop_oracle_fill_in_redundant =
  let max_vars, max_rows, densities = wide in
  oracle_prop ~count:150
    ~name:"tableau = oracle as rows fill in, with redundant rows"
    (redundant_lp ~max_vars ~max_rows ~densities)

let prop_oracle_iteration_limit =
  QCheck.Test.make ~count:300 ~name:"tableau = oracle under a tiny max_iters"
    QCheck.(pair small_int (int_bound 6))
    (fun (seed, max_iters) ->
      let lp = if seed mod 2 = 0 then redundant_lp seed else lp2_lp seed in
      agrees_with_oracle ~max_iters (to_problem lp))

(* Seeds of the wide families at which [expel_artificials] meets a
   sparse row whose first stored usable column is not its lowest: these
   agree with the oracle only when the lowest is taken. *)
let test_oracle_expel_lowest_column () =
  let max_vars, max_rows, densities = wide in
  let check lp =
    Alcotest.(check bool) "= oracle" true (agrees_with_oracle (to_problem lp))
  in
  List.iter
    (fun seed -> check (snd (sparse_lp ~max_vars ~max_rows ~densities seed)))
    [ 99; 943 ];
  List.iter
    (fun seed -> check (redundant_lp ~max_vars ~max_rows ~densities seed))
    [ 385; 1077 ]

(* A pivot updates its dense target rows four to a pass, then the
   remaining one to three one at a time.  Below 16 columns a row of two
   entries is past [cols / 8] and so dense from the start.  Here every
   one of [k + 1] rows holds x0, the column of the lowest cost, which
   enters first: that pivot updates [k] dense rows, and later pivots
   fewer.  Over [k] = 1, 2, 3, 4, 5, 8, 9 every size of the last group
   runs, after zero, one and two full groups. *)
let batch_lp k seed =
  let rng = Suu_prng.Rng.create ~seed in
  let budget = ([ (0, 1.0); (1, 1.0); (2, 1.0) ], P.Le, 10.0) in
  let row _ =
    ( [ (0, 0.5 +. Suu_prng.Rng.float rng 2.0); (1, coeff rng); (2, coeff rng) ],
      (if Suu_prng.Rng.int rng 4 = 0 then P.Ge else P.Le),
      if Suu_prng.Rng.bool rng then float_of_int (Suu_prng.Rng.int rng 6)
      else Suu_prng.Rng.range rng ~lo:0.0 ~hi:5.0 )
  in
  { obj = [| -3.0; coeff rng; coeff rng |];
    rows = budget :: List.init k row }

let test_oracle_batch_sizes () =
  List.iter
    (fun k ->
      for seed = 0 to 19 do
        Alcotest.(check bool)
          (Printf.sprintf "%d dense target rows, seed %d" k seed)
          true
          (agrees_with_oracle (to_problem (batch_lp k seed)))
      done)
    [ 1; 2; 3; 4; 5; 8; 9 ]

(* A dense row stores only the nonbasic columns, by slot, and a pivot
   hands the entering column's slot to the leaving column, which the
   oracle stores in a column of its own.  Each way a row meets that
   hand-over is checked over a range of seeds. *)
let check_seeds name gen seeds =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "%s, seed %d" name seed)
        true
        (agrees_with_oracle (to_problem (gen seed))))
    seeds

let seeds n = List.init n Fun.id

(* Equality rows over three to five variables at a feasible point with
   zeros, then the sum of two of them: at most nine columns, so every
   row is dense from birth.  Phase 1 ends degenerate, with artificials
   basic at level zero in rows that still have usable columns, and
   [expel_artificials] pivots them out, often at a negative entry. *)
let eq_lp seed =
  let rng = Suu_prng.Rng.create ~seed in
  let nv = 3 + Suu_prng.Rng.int rng 3 in
  let x0 = Array.init nv (fun _ -> float_of_int (Suu_prng.Rng.int rng 3)) in
  let row () =
    let terms =
      List.init nv (fun v -> (v, float_of_int (Suu_prng.Rng.int rng 7 - 3)))
    in
    (terms, List.fold_left (fun acc (v, c) -> acc +. (c *. x0.(v))) 0.0 terms)
  in
  let rows = List.init (2 + Suu_prng.Rng.int rng 2) (fun _ -> row ()) in
  let (ta, ra), (tb, rb) = (List.nth rows 0, List.nth rows 1) in
  let rows = rows @ [ (ta @ tb, ra +. rb) ] in
  { obj = Array.init nv (fun _ -> coeff rng);
    rows = List.map (fun (terms, rhs) -> (terms, P.Eq, rhs)) rows }

let test_slot_expel_dense () =
  check_seeds "expel on dense rows" eq_lp (seeds 200)

(* A pivot that takes a sparse row past [cols / 8] turns it dense with
   the leaving column either already stored, as the zero its own entry
   was eliminated to, or gained as fill-in.  The first is rare: it needs
   a column that entered and now leaves while the row crosses the
   threshold.  These LP2-shaped and {!wide} seeds are ones where it
   happens; in the first 150 {!wide} seeds the second happens in about
   half the problems. *)
let test_slot_densify () =
  let max_vars, max_rows, densities = wide in
  let wide_lp seed = snd (sparse_lp ~max_vars ~max_rows ~densities seed) in
  check_seeds "leaving column stored" lp2_lp
    [ 25; 135; 174; 413; 1771; 2194; 2703; 2854 ];
  check_seeds "leaving column stored, wide" wide_lp [ 176; 842; 991; 2647 ];
  check_seeds "leaving column as fill-in" wide_lp (seeds 150)

(* Over up to fifteen variables and rows, most pivot rows are dense:
   they are scaled by slot, and the leaving column's 1.0 lands in the
   entering column's slot. *)
let test_slot_dense_pivot_row () =
  check_seeds "dense pivot rows" (fun seed -> snd (sparse_lp seed)) (seeds 200)

(* A sparse row stores only nonzeros.  An update that leaves an exact
   0.0 removes the entry, which moves the row's later entries down, and
   the column index, which lists rows, is checked against the rows when
   a column is gathered.  Each case below is a set of seeds at which the
   named path runs; a scratch mutation of that path fails each of them. *)

(* An entry cancels to exactly 0.0 and leaves its row, and a later pivot
   puts fill-in back in that column, so the column lists the row twice
   until it is next gathered. *)
let test_sparse_cancel_then_fill () =
  let max_vars, max_rows, densities = wide in
  check_seeds "cancelled, then filled in" lp2_lp
    [ 44; 90; 135; 158; 191; 203; 238; 244 ];
  check_seeds "cancelled, then filled in, wide"
    (fun seed -> snd (sparse_lp ~max_vars ~max_rows ~densities seed))
    [ 288; 1017; 1116; 1138; 1239; 1762 ]

(* The entering column's entry leaves every sparse target row, and its
   index is left listing only a sparse pivot row; these seeds gather such
   a column again while that row still stores it. *)
let test_sparse_entering_leaves () =
  let max_vars, max_rows, densities = wide in
  check_seeds "entering column relisted" lp2_lp
    [ 134; 195; 203; 266; 300; 408 ];
  check_seeds "entering column relisted, wide"
    (fun seed -> snd (sparse_lp ~max_vars ~max_rows ~densities seed))
    [ 1227; 1708 ]

(* A row loses entries, which leaves stale copies past its last one,
   then turns dense: only its stored entries may reach the dense row. *)
let test_sparse_shrink_then_dense () =
  let max_vars, max_rows, densities = wide in
  check_seeds "shrunk, then dense" lp2_lp [ 0; 1; 2; 4; 5; 9 ];
  check_seeds "shrunk, then dense, wide"
    (fun seed -> snd (sparse_lp ~max_vars ~max_rows ~densities seed))
    [ 104; 230; 414; 465 ]

(* Entries move, inside their row as earlier ones leave and with the row
   when it outgrows its room, and later gathers look them up by column
   among the row's stored entries only. *)
let test_sparse_lookup_after_moves () =
  let max_vars, max_rows, densities = wide in
  check_seeds "lookups after moves"
    (fun seed -> snd (sparse_lp ~max_vars ~max_rows ~densities seed))
    [ 78; 104; 198; 390; 466 ];
  check_seeds "lookups after moves, LP2" lp2_lp [ 2; 5; 9; 11; 20 ]

(* The ratio test's tie-break is order-sensitive: rows 0..2 tie with x
   within eps in a chain (1 + 1.2e-9, 1 + 0.6e-9, 1) whose ends do not
   tie, so visiting them in row order picks row 2, and any order that
   visits row 0 last, or row 1 after row 2, picks another row.  Row 0
   gains x as fill-in when y enters on row 3, so the column index lists
   it after rows 2 and 3.  Forty variables that never enter keep rows 0,
   2 and 3 below the tableau's dense threshold; five of them put row 1
   above it, so the gather merges a dense row between sparse ones. *)
let test_oracle_ratio_row_order () =
  let lp =
    {
      obj = Array.init 42 (function 0 -> -1.0 | 1 -> -10.0 | _ -> 0.0);
      rows =
        [
          ([ (1, 1.0) ], P.Le, 1.0 +. 1.2e-9);
          ( (0, 1.0) :: List.init 5 (fun k -> (2 + k, 1.0)),
            P.Le,
            1.0 +. 0.6e-9 );
          ([ (0, 1.0) ], P.Le, 1.0);
          ([ (1, 1.0); (0, -1.0) ], P.Le, 0.0);
        ];
    }
  in
  let p = to_problem lp in
  Alcotest.(check bool) "= oracle" true (agrees_with_oracle p);
  match S.solve p with
  | S.Optimal { x; _ } ->
      Alcotest.(check (array (float 0.0)))
        "x on row 2's bound" [| 1.0; 1.0 |] (Array.sub x 0 2)
  | _ -> Alcotest.fail "not optimal"

module W = Suu_workload.Workload

let hazard = W.Uniform { lo = 0.2; hi = 0.95 }

(* The (LP2) problem SUU-C builds for random chains at n = 96, m = 8. *)
let chains_lp2 () =
  let n = 96 and m = 8 in
  let chains = W.random_chains hazard ~n ~z:(n / 8) ~m ~seed:3 in
  match Suu_dag.Chains.of_dag (Suu_core.Instance.dag chains) with
  | Some c -> Suu_core.Lp2.problem_for_testing chains ~chains:c
  | None -> Alcotest.fail "chains instance is not chains"

(* Real (LP2) problems of several hundred rows, as SUU-C and SUU-T
   build them: fill-in is heavy at this scale, unlike in the small
   random families above. *)
let test_oracle_lp2_scale () =
  let check name p =
    Alcotest.(check bool)
      (Printf.sprintf "%s (%d rows)" name (P.num_constraints p))
      true (agrees_with_oracle p)
  in
  check "chains" (chains_lp2 ());
  let n = 96 and m = 8 in
  let forest =
    W.forest hazard ~n ~trees:(n / 16) ~orientation:`Mixed ~m ~seed:3
  in
  match Suu_dag.Forest.decompose (Suu_core.Instance.dag forest) with
  | Some blocks ->
      Array.iteri
        (fun b c ->
          check
            (Printf.sprintf "forest block %d" b)
            (Suu_core.Lp2.problem_for_testing forest ~chains:c))
        blocks
  | None -> Alcotest.fail "forest instance is not a forest"

(* LP2s too large for the oracle: mc-sweep's set-up solves these
   shapes at n = 256, m = 16, and their results are pinned by the MD5
   of the marshalled [(objective, x, duals)], which holds every float's
   bits, signs of zeros included.  The digests were recorded from the
   tableau whose pivot updates one dense row per pass; a pivot must
   reproduce its arithmetic on every entry to keep them. *)
let pinned_digest p =
  match S.solve_detailed p with
  | Some d ->
      Digest.to_hex
        (Digest.string (Marshal.to_string (d.S.objective, d.S.x, d.S.duals) []))
  | None -> Alcotest.fail "expected optimal"

let test_pinned_lp2_256 () =
  let n = 256 and m = 16 in
  let check name expected p =
    Alcotest.(check string)
      (Printf.sprintf "%s (%d rows)" name (P.num_constraints p))
      expected (pinned_digest p)
  in
  let chains = W.random_chains hazard ~n ~z:(n / 8) ~m ~seed:7 in
  (match Suu_dag.Chains.of_dag (Suu_core.Instance.dag chains) with
  | Some c ->
      check "chains" "9c6b37de17f670e147e6a24edb6b0244" (Suu_core.Lp2.problem_for_testing chains ~chains:c)
  | None -> Alcotest.fail "chains instance is not chains");
  let forest =
    W.forest hazard ~n ~trees:(n / 16) ~orientation:`Mixed ~m ~seed:7
  in
  match Suu_dag.Forest.decompose (Suu_core.Instance.dag forest) with
  | Some blocks ->
      let largest =
        Array.fold_left
          (fun best c ->
            let p = Suu_core.Lp2.problem_for_testing forest ~chains:c in
            match best with
            | Some b when P.num_constraints b >= P.num_constraints p -> best
            | _ -> Some p)
          None blocks
      in
      check "forest's largest block" "5fa4d92e015a4d1a05c4b13604586931" (Option.get largest)
  | None -> Alcotest.fail "forest instance is not a forest"

(* --- LP1's lower bound, certified by its duals --- *)

(* Every Table-1 ratio divides by a lower bound whose LP part is
   [Lower_bound.lp1_half]: half LP1's optimum as the tableau computes it
   in floats.  LP1 is min t subject to coverage rows sum_i l_ij x_ij >= L
   (dual y_j >= 0) and load rows sum_j x_ij - t <= 0 (dual -u_i, u_i >=
   0).  A dual point is feasible when l_ij y_j <= u_i at every x_ij (its
   reduced cost, a load coefficient being 1) and sum_i u_i <= 1 (t's),
   and then L sum_j y_j is at most LP1's optimum (weak duality).

   [certified_lp1] builds such a point from the tableau's duals and
   returns a float no larger than its objective.  The duals are clipped
   to their signs; each u_i is raised to the rounded-up products l_ij y_j
   of its columns, so every x_ij is feasible exactly; the point is then
   divided by D, the rounded sum of the u_i raised by 2 gamma(m + 1) and
   at least 1, so t is feasible too.  The objective's dot product of k
   coverage terms, the division and the final scaling are each off by
   at most gamma(k) = k u / (1 - k u) relative, u = 2^-53 (Higham,
   "Accuracy and Stability of Numerical Algorithms", 3.1), so the value
   is scaled down by 1 - gamma(k + 3). *)
let gamma k =
  let u = epsilon_float /. 2.0 in
  float_of_int k *. u /. (1.0 -. (float_of_int k *. u))

let certified_lp1 p =
  let d =
    match S.solve_detailed p with
    | Some d -> d
    | None -> Alcotest.fail "LP1 not optimal"
  in
  let rows = ref [] and r = ref 0 in
  P.iter_constraints p (fun terms sense rhs ->
      rows := (terms, sense, rhs, d.S.duals.(!r)) :: !rows;
      incr r);
  let need = Array.make (P.num_vars p) 0.0 in
  let num = ref 0.0 and k = ref 0 in
  List.iter
    (fun (terms, sense, rhs, y) ->
      if sense = P.Ge then begin
        let y = Float.max 0.0 y in
        num := !num +. (rhs *. y);
        incr k;
        Array.iter
          (fun (v, a) ->
            let ay = a *. y in
            if ay > 0.0 then need.(v) <- Float.max need.(v) (Float.succ ay))
          terms
      end)
    !rows;
  let sum_u = ref 0.0 and m = ref 0 in
  List.iter
    (fun (terms, sense, _, y) ->
      if sense = P.Le then begin
        let u =
          Array.fold_left
            (fun u (v, a) ->
              if a > 0.0 then begin
                if a <> 1.0 then Alcotest.failf "load coefficient %g" a;
                Float.max u need.(v)
              end
              else u)
            (Float.max 0.0 (-.y))
            terms
        in
        sum_u := !sum_u +. u;
        incr m
      end)
    !rows;
  let dd = Float.max 1.0 (!sum_u *. (1.0 +. (2.0 *. gamma (!m + 1)))) in
  (d.S.objective, !num /. dd *. (1.0 -. gamma (!k + 3)))

module Inst = Suu_core.Instance
module LB = Suu_core.Lower_bound

(* The instances of the golden sweeps E1, E1m, E2, E3, E4 and A3 (as
   [bench/main.ml] builds them), then random ones. *)
let golden_instances () =
  let u95 = W.Uniform { lo = 0.2; hi = 0.95 }
  and u90 = W.Uniform { lo = 0.2; hi = 0.9 } in
  let e1 =
    List.concat_map
      (fun h ->
        List.map
          (fun n -> W.independent h ~n ~m:8 ~seed:(101 + n))
          [ 8; 16; 32; 64; 128; 256 ])
      [ W.Near_one; u95; W.Specialists { capable = 3 } ]
  and e1m =
    List.map
      (fun m -> W.independent W.Near_one ~n:64 ~m ~seed:(131 + m))
      [ 2; 4; 8; 16; 32 ]
  and e2 =
    List.map
      (fun (z, len) -> W.chains u95 ~z ~length:len ~m:4 ~seed:(202 + (z * len)))
      [ (8, 6); (12, 8); (20, 8); (24, 10) ]
  and e3 =
    List.map
      (fun n ->
        W.forest u95 ~n ~trees:(max 1 (n / 8)) ~orientation:`Mixed ~m:4
          ~seed:(303 + n))
      [ 32; 64; 128; 192 ]
  and e4 =
    List.map
      (fun (n, m) -> W.independent u90 ~n ~m ~seed:(404 + (10 * n) + m))
      [ (3, 2); (4, 2); (4, 3); (5, 2) ]
    @ List.map
        (fun (z, len, m) ->
          W.chains u90 ~z ~length:len ~m ~seed:(404 + (100 * z) + len))
        [ (2, 4, 2); (3, 5, 2); (2, 8, 3) ]
  and a3 =
    List.map
      (fun k ->
        let m = 8 and n = 64 in
        Inst.make
          ~name:(Printf.sprintf "trap-k%d" k)
          ~dag:(Suu_dag.Dag.empty n)
          (Array.init m (fun i ->
               Array.init n (fun j ->
                   if j < k then if i = 0 then 0.5 else 1.0
                   else if i = 0 then 0.05
                   else 0.5))))
      [ 2; 4; 8; 16 ]
  in
  e1 @ e1m @ e2 @ e3 @ e4 @ a3

let random_instances () =
  let hazards = Array.of_list W.default_hazards in
  List.init 40 (fun seed ->
      let rng = Suu_prng.Rng.create ~seed:(7000 + seed) in
      let h = hazards.(Suu_prng.Rng.int rng (Array.length hazards)) in
      let n = 1 + Suu_prng.Rng.int rng 80 and m = 1 + Suu_prng.Rng.int rng 12 in
      W.independent h ~n ~m ~seed:(7000 + seed))

(* [lp1_half ?solver] is at most the certified bound, halved, times
   (1 + tol): tol = 1e-9 relative, the simplex's own tolerance, for the
   pricing that stops at reduced costs above -1e-9.  The largest
   relative excess of [lp1_half] over the certified half is printed. *)
let check_certified ?solver name insts =
  let tol = 1e-9 and worst = ref neg_infinity in
  List.iteri
    (fun i inst ->
      let jobs = Array.init (Inst.n inst) Fun.id in
      let p = Suu_core.Lp1.problem_for_testing inst ~jobs ~target:0.5 in
      let _, cert = certified_lp1 p in
      let half = LB.lp1_half ?solver inst and cert_half = cert /. 2.0 in
      worst := Float.max !worst ((half -. cert_half) /. cert_half);
      if not (half <= cert_half *. (1.0 +. tol)) then
        Alcotest.failf "%s instance %d (%s): lp1_half %.17g above certified %.17g"
          name i (Inst.name inst) half cert_half)
    insts;
  Printf.printf "%s: %d instances, largest (lp1_half - certified) / certified = %.3g\n"
    name (List.length insts) !worst

let test_lp1_certified_golden () =
  check_certified "golden sweeps" (golden_instances ())

let test_lp1_certified_random () =
  check_certified "random" (random_instances ())

let mwu = Suu_core.Solver_choice.Mwu 0.1

let test_lp1_certified_golden_mwu () =
  check_certified ~solver:mwu "golden sweeps, MWU" (golden_instances ())

let test_lp1_certified_random_mwu () =
  check_certified ~solver:mwu "random, MWU" (random_instances ())

(* E1's large-n rows, too large for the tableau's certificate: where
   LP1's MWU solution was accepted (lp1.mwu.certified moved), [lp1_half]
   is at most half MWU's own weak-duality bound, times (1 + 1e-9).  The
   largest relative excess is printed. *)
let test_lp1_mwu_large_n () =
  let accepted () =
    Suu_obs.Counter.get (Suu_obs.Registry.counter "lp1.mwu.certified")
  in
  let tol = 1e-9 and worst = ref neg_infinity and checked = ref 0 in
  List.iter
    (fun n ->
      let inst = W.independent W.Near_one ~n ~m:16 ~seed:(101 + n) in
      let accepted0 = accepted () in
      let half = LB.lp1_half ~solver:mwu inst in
      if accepted () > accepted0 then begin
        let { Suu_lp.Mwu.lower_bound; _ } =
          Suu_lp.Mwu.min_load_cover
            ~a:(fun i j -> Inst.clipped_log_failure inst ~target:0.5 i j)
            ~m:(Inst.m inst) ~n ~targets:(Array.make n 0.5) ~eps:0.1
        in
        let bound_half = lower_bound /. 2.0 in
        incr checked;
        worst := Float.max !worst ((half -. bound_half) /. bound_half);
        if not (half <= bound_half *. (1.0 +. tol)) then
          Alcotest.failf "n = %d: lp1_half %.17g above MWU's bound / 2 %.17g" n
            half bound_half
      end)
    [ 256; 512; 1024 ];
  Printf.printf
    "E1 large n, MWU: %d of 3 rows accepted, largest (lp1_half - bound) / \
     bound = %.3g\n"
    !checked !worst

(* --- the dense rows' lifetime --- *)

(* Dense rows live outside the OCaml heap, and every solve frees its
   own as it returns or raises: the rows made and freed so far. *)
let dense_rows () =
  let get name = Suu_obs.Counter.get (Suu_obs.Registry.counter name) in
  (get "lp.dense_rows.allocated", get "lp.dense_rows.released")

let check_none_live name =
  let made, freed = dense_rows () in
  Alcotest.(check int) (name ^ ": no dense row left live") made freed

(* [solve ()] must make dense rows and leave none live. *)
let releases name solve =
  let made0, _ = dense_rows () in
  let r = solve () in
  Alcotest.(check bool) (name ^ ": made dense rows") true
    (fst (dense_rows ()) > made0);
  check_none_live name;
  r

(* On tableaux of a few columns every row is dense from the start. *)
let test_release_on_every_result () =
  let p = P.create () in
  let x = P.add_var ~obj:(-3.0) p and y = P.add_var ~obj:(-2.0) p in
  P.add_constraint p [ (x, 1.0); (y, 1.0) ] P.Le 4.0;
  P.add_constraint p [ (x, 1.0); (y, 3.0) ] P.Le 6.0;
  (match releases "optimal" (fun () -> S.solve p) with
  | S.Optimal _ -> ()
  | _ -> Alcotest.fail "expected optimal");
  (* One pivot reaches the optimum, but the budget runs out before the
     next pricing sees it. *)
  (match releases "iteration limit" (fun () -> S.solve ~max_iters:1 p) with
  | S.Iteration_limit -> ()
  | _ -> Alcotest.fail "expected the iteration limit");
  let p = P.create () in
  let x = P.add_var ~obj:1.0 p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 5.0;
  P.add_constraint p [ (x, 1.0) ] P.Le 3.0;
  (match releases "infeasible" (fun () -> S.solve p) with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  let p = P.create () in
  let x = P.add_var ~obj:(-1.0) p in
  P.add_constraint p [ (x, 1.0) ] P.Ge 1.0;
  match releases "unbounded" (fun () -> S.solve p) with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

exception Alarm

(* A SIGALRM handler raises [Alarm] at whichever poll point of the solve
   the timer lands on, but only while that solve holds dense rows it
   made: a tick before they exist re-arms the timer, and a tick after
   the attempt's solve is over does nothing.  An attempt succeeds when
   the alarm raised; shorter delays are tried until one does.  After
   every attempt no row may be left live. *)
let test_release_on_exception () =
  let p = chains_lp2 () in
  let arm delay =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = delay })
  in
  let made0 = ref 0 and delay = ref 0.0 and armed = ref false in
  let on_alarm _ =
    if !armed then begin
      let made, freed = dense_rows () in
      if made > !made0 && made > freed then begin
        armed := false;
        raise Alarm
      end
      else arm !delay
    end
  in
  let attempt d =
    made0 := fst (dense_rows ());
    delay := d;
    armed := true;
    let raised =
      try
        arm d;
        ignore (S.solve p);
        false
      with Alarm | Fun.Finally_raised Alarm -> true
    in
    armed := false;
    arm 0.0;
    check_none_live (Printf.sprintf "alarm every %g s" d);
    raised
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle on_alarm) in
  Fun.protect
    ~finally:(fun () ->
      arm 0.0;
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      Alcotest.(check bool) "an alarm landed inside a solve" true
        (List.exists attempt [ 0.001; 0.0002; 0.00005 ]))

(* Two domains solving at once each get the sequential solve's result. *)
let test_two_domains () =
  let p = chains_lp2 () in
  let seq = S.solve_detailed p in
  let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> S.solve_detailed p)) in
  List.iter
    (fun d ->
      Alcotest.(check bool) "= sequential solve" true (Domain.join d = seq))
    ds;
  check_none_live "two domains"

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "trivial min" `Quick test_trivial_min;
          Alcotest.test_case "two-var max" `Quick test_two_var_max;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate_beale;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "duplicate terms" `Quick
            test_duplicate_terms_merged;
          Alcotest.test_case "zero-rhs >=" `Quick test_zero_rhs_ge;
          Alcotest.test_case "solve_exn" `Quick test_solve_exn_raises;
          Alcotest.test_case "= oracle on LP2 at n = 96, m = 8" `Quick
            test_oracle_lp2_scale;
          Alcotest.test_case "ratio test visits rows in order" `Quick
            test_oracle_ratio_row_order;
          Alcotest.test_case "expel takes a sparse row's lowest column" `Quick
            test_oracle_expel_lowest_column;
          Alcotest.test_case "dense rows updated in groups of four" `Quick
            test_oracle_batch_sizes;
          Alcotest.test_case "expel pivots dense rows by slot" `Quick
            test_slot_expel_dense;
          Alcotest.test_case "sparse rows densify around the leaving column"
            `Quick test_slot_densify;
          Alcotest.test_case "dense pivot rows hand over their slot" `Quick
            test_slot_dense_pivot_row;
          Alcotest.test_case "exact cancellation, then fill-in" `Quick
            test_sparse_cancel_then_fill;
          Alcotest.test_case "entering column leaves sparse rows" `Quick
            test_sparse_entering_leaves;
          Alcotest.test_case "sparse row shrinks, then turns dense" `Quick
            test_sparse_shrink_then_dense;
          Alcotest.test_case "column lookups after entries move" `Quick
            test_sparse_lookup_after_moves;
          Alcotest.test_case "pinned LP2s at n = 256, m = 16" `Slow
            test_pinned_lp2_256;
        ] );
      ( "dense-rows",
        [
          Alcotest.test_case "freed on every result" `Quick
            test_release_on_every_result;
          Alcotest.test_case "freed when a solve raises" `Quick
            test_release_on_exception;
          Alcotest.test_case "two domains at once" `Quick test_two_domains;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "lp1_half <= certified, golden sweeps" `Quick
            test_lp1_certified_golden;
          Alcotest.test_case "lp1_half <= certified, random" `Quick
            test_lp1_certified_random;
          Alcotest.test_case "MWU lp1_half <= certified, golden sweeps" `Quick
            test_lp1_certified_golden_mwu;
          Alcotest.test_case "MWU lp1_half <= certified, random" `Quick
            test_lp1_certified_random_mwu;
          Alcotest.test_case "MWU lp1_half <= MWU's bound, E1 large n" `Quick
            test_lp1_mwu_large_n;
        ] );
      ( "problem",
        [
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "objective eval" `Quick test_objective_value;
        ] );
      ( "duals",
        [
          Alcotest.test_case "known" `Quick test_duals_known;
          Alcotest.test_case "infeasible" `Quick
            test_duals_none_when_infeasible;
        ] );
      ( "revised-simplex",
        [
          Alcotest.test_case "known cases" `Quick test_revised_known_cases;
          Alcotest.test_case "infeasible/unbounded" `Quick
            test_revised_infeasible_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick test_revised_beale;
        ] );
      ( "mwu",
        [
          Alcotest.test_case "validation" `Quick test_mwu_validation;
          Alcotest.test_case "single pair" `Quick test_mwu_single;
        ] );
      ( "properties",
        [
          q prop_transportation;
          q prop_min_load_cover_feasible;
          q prop_strong_duality;
          q prop_revised_matches_tableau;
          q prop_revised_matches_on_lp1_shape;
          q prop_mwu_feasible_and_near_optimal;
          q prop_oracle_sparse;
          q prop_oracle_redundant;
          q prop_oracle_lp1;
          q prop_oracle_lp2;
          q prop_oracle_fill_in;
          q prop_oracle_fill_in_redundant;
          q prop_oracle_iteration_limit;
        ] );
    ]
