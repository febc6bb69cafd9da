(* Tests for dags, chain recognition and the heavy-path forest
   decomposition used by SUU-T. *)

module Dag = Suu_dag.Dag
module Chains = Suu_dag.Chains
module Forest = Suu_dag.Forest
module Classify = Suu_dag.Classify

(* --- basic dag mechanics --- *)

let test_empty () =
  let g = Dag.empty 5 in
  Alcotest.(check int) "size" 5 (Dag.size g);
  Alcotest.(check int) "edges" 0 (Dag.num_edges g);
  Alcotest.(check bool) "edgeless" true (Dag.is_edgeless g);
  Alcotest.(check (list int)) "all sources" [ 0; 1; 2; 3; 4 ] (Dag.sources g)

let test_of_edges () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check int) "edges" 4 (Dag.num_edges g);
  Alcotest.(check (list int)) "preds of 2" [ 0; 1 ] (Dag.preds g 2);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Dag.succs g 0);
  Alcotest.(check int) "indeg 3" 1 (Dag.in_degree g 3);
  Alcotest.(check int) "outdeg 0" 2 (Dag.out_degree g 0)

let test_duplicate_edges_collapse () =
  let g = Dag.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
  Alcotest.(check int) "edges" 1 (Dag.num_edges g)

let test_cycle_detection () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.of_edges: cycle detected")
    (fun () -> ignore (Dag.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]))

let test_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.of_edges: self-loop")
    (fun () -> ignore (Dag.of_edges ~n:2 [ (1, 1) ]))

let test_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Dag.of_edges: node out of range") (fun () ->
      ignore (Dag.of_edges ~n:2 [ (0, 2) ]))

let test_topological_order () =
  let g = Dag.of_edges ~n:5 [ (3, 1); (1, 0); (4, 0); (2, 4) ] in
  let order = Dag.topological_order g in
  let pos = Array.make 5 0 in
  Array.iteri (fun k j -> pos.(j) <- k) order;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "edge respected" true (pos.(a) < pos.(b)))
    (Dag.edges g)

let test_eligible () =
  let g = Dag.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let completed = [| false; false; false |] in
  Alcotest.(check bool) "0 eligible" true (Dag.eligible g ~completed 0);
  Alcotest.(check bool) "1 blocked" false (Dag.eligible g ~completed 1);
  completed.(0) <- true;
  Alcotest.(check bool) "1 now eligible" true (Dag.eligible g ~completed 1);
  Alcotest.(check bool) "2 still blocked" false (Dag.eligible g ~completed 2)

let test_components () =
  let g = Dag.of_edges ~n:5 [ (0, 1); (3, 4) ] in
  let c = Dag.components g in
  Alcotest.(check bool) "0 ~ 1" true (c.(0) = c.(1));
  Alcotest.(check bool) "3 ~ 4" true (c.(3) = c.(4));
  Alcotest.(check bool) "0 <> 2" true (c.(0) <> c.(2));
  Alcotest.(check bool) "0 <> 3" true (c.(0) <> c.(3))

(* --- chains --- *)

let test_chains_recognize () =
  let g = Dag.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  match Chains.of_dag g with
  | None -> Alcotest.fail "expected chains"
  | Some chains ->
      Alcotest.(check int) "count (incl. singleton)" 3 (List.length chains);
      Alcotest.(check int) "total" 6 (Chains.total_jobs chains);
      Alcotest.(check int) "longest" 3 (Chains.max_length chains)

let test_chains_reject_tree () =
  let g = Dag.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "branching is not chains" true
    (Chains.of_dag g = None)

let test_chains_reject_join () =
  let g = Dag.of_edges ~n:3 [ (0, 2); (1, 2) ] in
  Alcotest.(check bool) "join is not chains" true (Chains.of_dag g = None)

let test_chains_roundtrip () =
  let chains = [ [| 2; 0; 3 |]; [| 1 |]; [| 4; 5 |] ] in
  let g = Chains.to_dag ~n:6 chains in
  match Chains.of_dag g with
  | None -> Alcotest.fail "roundtrip failed"
  | Some back ->
      Alcotest.(check int) "same job count" 6 (Chains.total_jobs back);
      (* order within each chain is preserved by the dag *)
      Alcotest.(check (list int)) "preds of 3" [ 0 ] (Dag.preds g 3);
      Alcotest.(check (list int)) "preds of 0" [ 2 ] (Dag.preds g 0)

let test_chains_to_dag_validation () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Chains.to_dag: duplicate job") (fun () ->
      ignore (Chains.to_dag ~n:3 [ [| 0; 1 |]; [| 1 |] ]))

let test_chain_of_job () =
  let chains = [ [| 0; 1 |]; [| 2 |] ] in
  let idx, pos = Chains.chain_of_job ~n:4 chains in
  Alcotest.(check int) "job 1 chain" 0 idx.(1);
  Alcotest.(check int) "job 1 pos" 1 pos.(1);
  Alcotest.(check int) "job 2 chain" 1 idx.(2);
  Alcotest.(check int) "job 3 unmentioned" (-1) idx.(3)

(* --- forests --- *)

let test_out_tree_blocks () =
  (* Balanced binary out-tree on 7 nodes. *)
  let g = Dag.of_edges ~n:7 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ] in
  Alcotest.(check bool) "is forest" true (Forest.is_forest g);
  match Forest.decompose g with
  | None -> Alcotest.fail "expected decomposition"
  | Some blocks ->
      Alcotest.(check bool)
        "O(log n) blocks" true
        (Array.length blocks <= 3);
      let total =
        Array.fold_left
          (fun acc chains -> acc + Chains.total_jobs chains)
          0 blocks
      in
      Alcotest.(check int) "covers all jobs" 7 total

let test_in_tree_blocks () =
  (* In-tree: leaves feed the root. *)
  let g = Dag.of_edges ~n:7 [ (1, 0); (2, 0); (3, 1); (4, 1); (5, 2); (6, 2) ] in
  Alcotest.(check bool) "is forest" true (Forest.is_forest g);
  match Forest.decompose g with
  | None -> Alcotest.fail "expected decomposition"
  | Some blocks ->
      let total =
        Array.fold_left
          (fun acc chains -> acc + Chains.total_jobs chains)
          0 blocks
      in
      Alcotest.(check int) "covers all jobs" 7 total

let test_diamond_not_forest () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check bool) "diamond rejected" true (not (Forest.is_forest g));
  Alcotest.(check bool) "no decomposition" true (Forest.decompose g = None)

let test_path_is_forest () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  match Forest.decompose g with
  | None -> Alcotest.fail "path should decompose"
  | Some blocks ->
      (* a simple path is a single heavy path: one block, one chain *)
      Alcotest.(check int) "one block" 1 (Array.length blocks);
      Alcotest.(check int) "one chain" 1 (List.length blocks.(0))

(* Validity of a block decomposition: chains disjoint, order within chains
   respects the dag, and every dag predecessor of a job appears either
   earlier in its own chain or in a strictly earlier block. *)
let decomposition_valid g blocks =
  let n = Dag.size g in
  let block_of = Array.make n (-1) in
  let pos_in_chain = Array.make n (-1) in
  let chain_id = Array.make n (-1) in
  let next_chain = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun b chains ->
      List.iter
        (fun chain ->
          let c = !next_chain in
          incr next_chain;
          Array.iteri
            (fun k j ->
              if block_of.(j) <> -1 then ok := false;
              block_of.(j) <- b;
              pos_in_chain.(j) <- k;
              chain_id.(j) <- c)
            chain)
        chains)
    blocks;
  for j = 0 to n - 1 do
    if block_of.(j) = -1 then ok := false;
    List.iter
      (fun p ->
        let fine =
          block_of.(p) < block_of.(j)
          || (chain_id.(p) = chain_id.(j) && pos_in_chain.(p) < pos_in_chain.(j))
        in
        if not fine then ok := false)
      (Dag.preds g j)
  done;
  !ok

let random_forest seed =
  let rng = Suu_prng.Rng.create ~seed in
  let n = 2 + Suu_prng.Rng.int rng 40 in
  let trees = 1 + Suu_prng.Rng.int rng 3 in
  let trees = min trees n in
  (* Each non-root attaches below a random earlier node; orienting all
     edges child->parent gives an in-forest, parent->child an out-forest. *)
  let reverse = Suu_prng.Rng.bool rng in
  let edges = ref [] in
  for j = trees to n - 1 do
    let parent = Suu_prng.Rng.int rng j in
    if reverse then edges := (j, parent) :: !edges
    else edges := (parent, j) :: !edges
  done;
  (n, Dag.of_edges ~n !edges)

let prop_forest_decomposition_valid =
  QCheck.Test.make ~count:300 ~name:"forest blocks valid and logarithmic"
    QCheck.small_int (fun seed ->
      let n, g = random_forest seed in
      match Forest.decompose g with
      | None -> false
      | Some blocks ->
          let bound =
            1 + int_of_float (floor (log (float_of_int n) /. log 2.0))
          in
          Array.length blocks <= bound && decomposition_valid g blocks)

let prop_topo_positions =
  QCheck.Test.make ~count:300 ~name:"topological order respects random dags"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let n = 2 + Suu_prng.Rng.int rng 30 in
      (* random dag: edges only forward in a random permutation *)
      let perm = Array.init n Fun.id in
      Suu_prng.Rng.shuffle rng perm;
      let edges = ref [] in
      for _ = 1 to 2 * n do
        let a = Suu_prng.Rng.int rng n and b = Suu_prng.Rng.int rng n in
        if a <> b then begin
          let x, y = if perm.(a) < perm.(b) then (a, b) else (b, a) in
          edges := (x, y) :: !edges
        end
      done;
      let g = Dag.of_edges ~n !edges in
      let order = Dag.topological_order g in
      let pos = Array.make n 0 in
      Array.iteri (fun k j -> pos.(j) <- k) order;
      List.for_all (fun (a, b) -> pos.(a) < pos.(b)) (Dag.edges g))

(* --- packed (CSR) adjacency --- *)

let random_dag seed =
  let rng = Suu_prng.Rng.create ~seed in
  let n = 2 + Suu_prng.Rng.int rng 30 in
  let perm = Array.init n Fun.id in
  Suu_prng.Rng.shuffle rng perm;
  let edges = ref [] in
  for _ = 1 to 2 * n do
    let a = Suu_prng.Rng.int rng n and b = Suu_prng.Rng.int rng n in
    if a <> b then begin
      let x, y = if perm.(a) < perm.(b) then (a, b) else (b, a) in
      edges := (x, y) :: !edges
    end
  done;
  (n, Dag.of_edges ~n !edges)

let prop_csr_matches_lists =
  QCheck.Test.make ~count:300 ~name:"CSR adjacency mirrors the list API"
    QCheck.small_int (fun seed ->
      let n, g = random_dag seed in
      let slice (off, tgt) j =
        Array.to_list (Array.sub tgt off.(j) (off.(j + 1) - off.(j)))
      in
      let collect iter j =
        let acc = ref [] in
        iter g j (fun v -> acc := v :: !acc);
        List.rev !acc
      in
      let ok = ref true in
      for j = 0 to n - 1 do
        ok :=
          !ok
          && slice (Dag.pred_csr g) j = Dag.preds g j
          && slice (Dag.succ_csr g) j = Dag.succs g j
          && collect Dag.iter_preds j = Dag.preds g j
          && collect Dag.iter_succs j = Dag.succs g j
          && List.length (Dag.preds g j) = Dag.in_degree g j
      done;
      !ok)

(* The engine's incremental-eligibility scheme: seed counters from the
   in-degrees, decrement a successor's counter on each completion.
   Along any completion order, counter = 0 must coincide with the
   reference predicate [Dag.eligible] (all direct predecessors done). *)
let prop_incremental_eligibility =
  QCheck.Test.make ~count:300
    ~name:"incremental predecessor counters match Dag.eligible"
    QCheck.small_int (fun seed ->
      let n, g = random_dag seed in
      let rng = Suu_prng.Rng.create ~seed:(seed + 1) in
      let order = Array.init n Fun.id in
      Suu_prng.Rng.shuffle rng order;
      let completed = Array.make n false in
      let npred = Array.init n (Dag.in_degree g) in
      let consistent () =
        let ok = ref true in
        for j = 0 to n - 1 do
          if not completed.(j) then
            ok := !ok && npred.(j) = 0 = Dag.eligible g ~completed j
        done;
        !ok
      in
      let ok = ref (consistent ()) in
      Array.iter
        (fun j ->
          completed.(j) <- true;
          Dag.iter_succs g j (fun s -> npred.(s) <- npred.(s) - 1);
          ok := !ok && consistent ())
        order;
      !ok)

(* --- classification --- *)

let test_classify_independent () =
  match Classify.classify (Dag.empty 4) with
  | Classify.Independent -> ()
  | _ -> Alcotest.fail "expected independent"

let test_classify_chains () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  match Classify.classify g with
  | Classify.Disjoint_chains chains ->
      Alcotest.(check int) "chain count" 2 (List.length chains)
  | _ -> Alcotest.fail "expected chains"

let test_classify_forest () =
  let g = Dag.of_edges ~n:4 [ (0, 1); (0, 2); (2, 3) ] in
  match Classify.classify g with
  | Classify.Directed_forest _ -> ()
  | _ -> Alcotest.fail "expected forest"

let test_classify_general () =
  let g = Dag.of_edges ~n:4 [ (0, 2); (1, 2); (0, 3); (1, 3) ] in
  match Classify.classify g with
  | Classify.General -> ()
  | _ -> Alcotest.fail "expected general"

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dag"
    [
      ( "dag",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "duplicates" `Quick
            test_duplicate_edges_collapse;
          Alcotest.test_case "cycle" `Quick test_cycle_detection;
          Alcotest.test_case "self-loop" `Quick test_self_loop;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "topological order" `Quick
            test_topological_order;
          Alcotest.test_case "eligibility" `Quick test_eligible;
          Alcotest.test_case "components" `Quick test_components;
          q prop_csr_matches_lists;
          q prop_incremental_eligibility;
        ] );
      ( "chains",
        [
          Alcotest.test_case "recognize" `Quick test_chains_recognize;
          Alcotest.test_case "reject branching" `Quick
            test_chains_reject_tree;
          Alcotest.test_case "reject join" `Quick test_chains_reject_join;
          Alcotest.test_case "roundtrip" `Quick test_chains_roundtrip;
          Alcotest.test_case "to_dag validation" `Quick
            test_chains_to_dag_validation;
          Alcotest.test_case "chain_of_job" `Quick test_chain_of_job;
        ] );
      ( "forest",
        [
          Alcotest.test_case "out-tree" `Quick test_out_tree_blocks;
          Alcotest.test_case "in-tree" `Quick test_in_tree_blocks;
          Alcotest.test_case "diamond rejected" `Quick
            test_diamond_not_forest;
          Alcotest.test_case "path" `Quick test_path_is_forest;
        ] );
      ( "classify",
        [
          Alcotest.test_case "independent" `Quick test_classify_independent;
          Alcotest.test_case "chains" `Quick test_classify_chains;
          Alcotest.test_case "forest" `Quick test_classify_forest;
          Alcotest.test_case "general" `Quick test_classify_general;
        ] );
      ( "properties",
        [ q prop_forest_decomposition_valid; q prop_topo_positions ] );
    ]
