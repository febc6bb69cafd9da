(* Tests for the max-flow substrate.  Lemma 2's rounding correctness
   depends on integral max flows, so Dinic is cross-checked against
   Edmonds–Karp and against min-cut certificates on random graphs. *)

module Net = Suu_flow.Net
module Dinic = Suu_flow.Dinic
module Ek = Edmonds_karp
module Matching = Suu_flow.Matching

let test_single_edge () =
  let net = Net.create 2 in
  let e = Net.add_edge net ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "flow value" 5 (Dinic.max_flow net ~s:0 ~t:1);
  Alcotest.(check int) "edge flow" 5 (Net.flow_on net e)

let test_no_path () =
  let net = Net.create 3 in
  let _ = Net.add_edge net ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "no path" 0 (Dinic.max_flow net ~s:0 ~t:2)

(* Classic CLRS example, max flow 23. *)
let clrs_net () =
  let net = Net.create 6 in
  let s = 0 and v1 = 1 and v2 = 2 and v3 = 3 and v4 = 4 and t = 5 in
  let add a b c = ignore (Net.add_edge net ~src:a ~dst:b ~cap:c) in
  add s v1 16;
  add s v2 13;
  add v1 v3 12;
  add v2 v1 4;
  add v2 v4 14;
  add v3 v2 9;
  add v3 t 20;
  add v4 v3 7;
  add v4 t 4;
  net

let test_clrs_dinic () =
  Alcotest.(check int) "CLRS flow" 23 (Dinic.max_flow (clrs_net ()) ~s:0 ~t:5)

let test_clrs_edmonds_karp () =
  Alcotest.(check int) "CLRS flow" 23 (Ek.max_flow (clrs_net ()) ~s:0 ~t:5)

let test_parallel_edges () =
  let net = Net.create 2 in
  let _ = Net.add_edge net ~src:0 ~dst:1 ~cap:3 in
  let _ = Net.add_edge net ~src:0 ~dst:1 ~cap:4 in
  Alcotest.(check int) "parallel sum" 7 (Dinic.max_flow net ~s:0 ~t:1)

let test_reset () =
  let net = clrs_net () in
  let f1 = Dinic.max_flow net ~s:0 ~t:5 in
  Net.reset net;
  let f2 = Dinic.max_flow net ~s:0 ~t:5 in
  Alcotest.(check int) "same after reset" f1 f2

let test_copy_isolated () =
  let net = clrs_net () in
  let dup = Net.copy net in
  let _ = Dinic.max_flow net ~s:0 ~t:5 in
  Alcotest.(check int) "copy untouched" 23 (Ek.max_flow dup ~s:0 ~t:5)

let test_validation () =
  let net = Net.create 2 in
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Net.add_edge: negative capacity") (fun () ->
      ignore (Net.add_edge net ~src:0 ~dst:1 ~cap:(-1)));
  Alcotest.check_raises "bad node"
    (Invalid_argument "Net.add_edge: node out of range") (fun () ->
      ignore (Net.add_edge net ~src:0 ~dst:5 ~cap:1));
  Alcotest.check_raises "s = t" (Invalid_argument "Dinic: source equals sink")
    (fun () -> ignore (Dinic.max_flow net ~s:0 ~t:0))

let test_infinite_capacity () =
  let net = Net.create 3 in
  let _ = Net.add_edge net ~src:0 ~dst:1 ~cap:Net.infinite in
  let _ = Net.add_edge net ~src:1 ~dst:2 ~cap:9 in
  Alcotest.(check int) "bounded by finite edge" 9
    (Dinic.max_flow net ~s:0 ~t:2)

(* Random graph generator for cross-checks. *)
let random_net seed =
  let rng = Suu_prng.Rng.create ~seed in
  let n = 4 + Suu_prng.Rng.int rng 12 in
  let net = Net.create n in
  let edges = ref [] in
  let nedges = n + Suu_prng.Rng.int rng (2 * n) in
  for _ = 1 to nedges do
    let a = Suu_prng.Rng.int rng n in
    let b = Suu_prng.Rng.int rng n in
    if a <> b then begin
      let cap = 1 + Suu_prng.Rng.int rng 20 in
      let e = Net.add_edge net ~src:a ~dst:b ~cap in
      edges := (a, b, cap, e) :: !edges
    end
  done;
  (net, n, !edges)

let prop_dinic_equals_edmonds_karp =
  QCheck.Test.make ~count:300 ~name:"Dinic = Edmonds-Karp on random graphs"
    QCheck.small_int (fun seed ->
      let net, n, _ = random_net seed in
      let dup = Net.copy net in
      let s = 0 and t = n - 1 in
      Dinic.max_flow net ~s ~t = Ek.max_flow dup ~s ~t)

let prop_min_cut_certifies =
  QCheck.Test.make ~count:300 ~name:"min cut capacity equals flow value"
    QCheck.small_int (fun seed ->
      let net, n, edges = random_net seed in
      let s = 0 and t = n - 1 in
      let flow = Dinic.max_flow net ~s ~t in
      let side = Dinic.min_cut net ~s in
      (not side.(t))
      &&
      let cut = ref 0 in
      List.iter
        (fun (a, b, cap, _) -> if side.(a) && not side.(b) then cut := !cut + cap)
        edges;
      !cut = flow)

let prop_flow_conservation =
  QCheck.Test.make ~count:300 ~name:"per-edge flow within capacity, conserved"
    QCheck.small_int (fun seed ->
      let net, n, edges = random_net seed in
      let s = 0 and t = n - 1 in
      let value = Dinic.max_flow net ~s ~t in
      let net_out = Array.make n 0 in
      let ok = ref true in
      List.iter
        (fun (a, b, cap, e) ->
          let f = Net.flow_on net e in
          if f < 0 || f > cap then ok := false;
          net_out.(a) <- net_out.(a) + f;
          net_out.(b) <- net_out.(b) - f)
        edges;
      !ok
      && net_out.(s) = value
      && net_out.(t) = -value
      && Array.for_all (( = ) 0)
           (Array.mapi
              (fun v x -> if v = s || v = t then 0 else x)
              net_out))

(* --- bipartite matching --- *)

let test_matching_perfect () =
  (* complete bipartite K_{3,3} has a perfect matching *)
  let ml, mr =
    Matching.maximum ~left:3 ~right:3 ~adj:(fun _ -> [ 0; 1; 2 ])
  in
  Alcotest.(check bool) "perfect" true (Matching.is_perfect_on_left ml);
  (* matched pairs are consistent *)
  Array.iteri
    (fun l r -> Alcotest.(check int) "consistent" l mr.(r))
    ml

let test_matching_augmenting () =
  (* Needs an augmenting path: 0-{0}, 1-{0,1} *)
  let adj = function 0 -> [ 0 ] | 1 -> [ 0; 1 ] | _ -> [] in
  let ml, _ = Matching.maximum ~left:2 ~right:2 ~adj in
  Alcotest.(check bool) "perfect" true (Matching.is_perfect_on_left ml);
  Alcotest.(check int) "0 -> 0" 0 ml.(0);
  Alcotest.(check int) "1 -> 1" 1 ml.(1)

let test_matching_deficient () =
  (* Hall violation: both left nodes only like right node 0. *)
  let adj = function _ -> [ 0 ] in
  let ml, _ = Matching.maximum ~left:2 ~right:1 ~adj in
  let matched = Array.to_list ml |> List.filter (fun r -> r >= 0) in
  Alcotest.(check int) "only one matched" 1 (List.length matched)

let prop_matching_is_valid =
  QCheck.Test.make ~count:300 ~name:"matching is injective and uses edges"
    QCheck.small_int (fun seed ->
      let rng = Suu_prng.Rng.create ~seed in
      let left = 1 + Suu_prng.Rng.int rng 8 in
      let right = 1 + Suu_prng.Rng.int rng 8 in
      let adj_tbl =
        Array.init left (fun _ ->
            List.filter
              (fun _ -> Suu_prng.Rng.bool rng)
              (List.init right Fun.id))
      in
      let ml, mr = Matching.maximum ~left ~right ~adj:(fun l -> adj_tbl.(l)) in
      let ok = ref true in
      Array.iteri
        (fun l r ->
          if r >= 0 then begin
            if not (List.mem r adj_tbl.(l)) then ok := false;
            if mr.(r) <> l then ok := false
          end)
        ml;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "flow"
    [
      ( "max-flow",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "no path" `Quick test_no_path;
          Alcotest.test_case "CLRS (Dinic)" `Quick test_clrs_dinic;
          Alcotest.test_case "CLRS (Edmonds-Karp)" `Quick
            test_clrs_edmonds_karp;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "copy" `Quick test_copy_isolated;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "infinite capacity" `Quick
            test_infinite_capacity;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "augmenting path" `Quick
            test_matching_augmenting;
          Alcotest.test_case "deficient" `Quick test_matching_deficient;
        ] );
      ( "properties",
        [
          q prop_dinic_equals_edmonds_karp;
          q prop_min_cut_certifies;
          q prop_flow_conservation;
          q prop_matching_is_valid;
        ] );
    ]
