(* Self-test of the bench gate (bench/gate.exe, passed as the only
   argument): one minimal passing artifact per experiment against a
   fixture baseline, then, for every check the gate declares, a
   mutation that must fail it — a flipped bool, a zeroed count, a ratio
   pushed across its floor or band, a deleted key — plus the mutations
   the gate must let through (an absent open-loop section, a phase
   below the noise floor or missing on one side).  Only the exit status
   is asserted, so the test is indifferent to the wording of the
   gate's messages.  Last, the bench driver's use of the same table,
   which skips the baseline rules, is run in process. *)

module J = Suu_util.Json

let gate = ref ""

let baseline =
  {|{
  "perf": {"engine": {"steps_per_sec": 1000000}, "ratio_sweep": {"sequential_sec": 0.1},
           "bechamel_ns_per_run": {"suu lp1-mwu-certified-64x8": 5000},
           "phases": {"engine.exec": {"p50_ms": 1}, "lp1.solve": {"p50_ms": 1}, "lp.rounding": {"p50_ms": 1}}},
  "serve": {"throughput_rps": 1000, "latency_ms": {"p50": 1},
            "connection_scale": {"connections": 500},
            "phases": {"server.request": {"p50_ms": 1}, "server.execute": {"p50_ms": 1}, "server.queue_wait": {"p50_ms": 1}}},
  "chaos": {"throughput_rps": 100},
  "shard": {"direct_rps": 100, "routed_2shard_rps": 100},
  "replay": {"cold_sec": 0.01},
  "table1": {"policies": [{"policy": "backfill", "mean_steps_per_sec": 50000},
                          {"policy": "lzf", "mean_steps_per_sec": 100000}]}
}|}

let artifacts =
  [
    ( "perf",
      {|{"experiment": "perf", "scale": "tiny", "obs_overhead_pct": 1,
  "engine": {"steps_per_sec": 1000000},
  "ratio_sweep": {"sequential_sec": 0.1,
                  "parallel": [{"bit_identical": true}, {"bit_identical": true}]},
  "bechamel_ns_per_run": {"suu lp1-simplex-seq-64x8": 10000,
                          "suu lp1-mwu-certified-64x8": 5000},
  "solver_parity": [{"policy": "suu-i-sem", "ratio": 1.01}, {"policy": "suu-i-obl", "ratio": 0.99}],
  "phases": {"engine.exec": {"p50_ms": 1}, "lp1.solve": {"p50_ms": 1}, "lp.rounding": {"p50_ms": 1}}}|}
    );
    ( "serve",
      {|{"experiment": "serve", "scale": "tiny", "throughput_rps": 1000, "latency_ms": {"p50": 1},
  "errors": 0, "deterministic_over_the_wire": true,
  "plan_cache_hit_rate": 0.9, "plan_cache_bypass": 5,
  "connection_scale": {"connections": 500, "dropped": 0, "mismatched": 0},
  "workload": {"arrivals": 20, "completed": 20, "queueing_ms": {"p50": 0.1},
               "e2e_ms": {"p50": 1, "p95": 2}, "deterministic_replay": true},
  "phases": {"server.request": {"p50_ms": 1}, "server.execute": {"p50_ms": 1}, "server.queue_wait": {"p50_ms": 1}}}|}
    );
    ( "chaos",
      {|{"experiment": "chaos", "scale": "tiny", "success_rate": 1, "injected": {"total": 3},
  "client_retries": 2, "throughput_rps": 100,
  "router": {"success_rate": 1, "mark_down": 1, "live_shards_after": 1}}|}
    );
    ( "shard",
      {|{"experiment": "shard", "scale": "tiny", "byte_identical": true, "errors": 0,
  "routed_requests": 10, "routed_vs_direct": 0.9, "direct_rps": 100, "routed_2shard_rps": 100}|}
    );
    ( "replay",
      {|{"experiment": "replay", "scale": "tiny", "identical": true, "resumed_identical": true,
  "warm_served": 30, "sweep_reps": 30, "warm_computed": 0, "torn_tail_truncated": 1, "store": {"records": 3},
  "cold_sec": 0.01}|}
    );
    ( "table1",
      {|{"experiment": "table1", "scale": "tiny", "synthetic_rows": 4, "swf_rows": 4,
  "lzf_bound": 1.1722, "lzf_vs_sem_speedup_min": 3,
  "single_machine_lzf": [{"instance": "a", "ratio": 0.98}, {"instance": "b", "ratio": 0.97}],
  "policies": [{"policy": "backfill", "mean_ratio": 1.8, "mean_steps_per_sec": 50000},
               {"policy": "lzf", "mean_ratio": 1.3, "mean_steps_per_sec": 100000},
               {"policy": "suu-i-sem", "mean_ratio": 2.5, "mean_steps_per_sec": 20000}]}|}
    );
  ]

(* --- tree edits: a path is object keys, with list rows by index --- *)

type edit =
  | Set of string list * J.t  (* in the artifact *)
  | Del of string list
  | Set_base of string list * J.t  (* in the baseline *)

let rec update path f j =
  match (path, j) with
  | [], _ -> f (Some j)
  | [ k ], J.Obj kvs ->
      let rest = List.filter (fun (k', _) -> k' <> k) kvs in
      (match f (List.assoc_opt k kvs) with
      | Some v when List.mem_assoc k kvs ->
          J.Obj (List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) kvs)
      | Some v -> J.Obj (kvs @ [ (k, v) ])
      | None -> J.Obj rest)
      |> Option.some
  | k :: rest, J.Obj kvs ->
      Some
        (J.Obj
           (List.map
              (fun (k', v) ->
                if k' = k then (k', Option.get (update rest f v)) else (k', v))
              kvs))
  | i :: rest, J.List vs ->
      let i = int_of_string i in
      Some
        (J.List
           (List.concat
              (List.mapi
                 (fun i' v ->
                   if i' <> i then [ v ]
                   else match update rest f v with Some v -> [ v ] | None -> [])
                 vs)))
  | _ -> Alcotest.failf "bad edit path %s" (String.concat "." path)

let apply edit (cur, base) =
  let at path f j = Option.get (update path f j) in
  match edit with
  | Set (p, v) -> (at p (fun _ -> Some v) cur, base)
  | Del p -> (at p (fun _ -> None) cur, base)
  | Set_base (p, v) -> (cur, at p (fun _ -> Some v) base)

let num x = J.Float x

(* (what, edits, gate must pass) per experiment. *)
let mutations =
  [
    ( "perf",
      [
        ("engine steps/sec band", [ Set ([ "engine"; "steps_per_sec" ], num 3e5) ], false);
        ("engine steps/sec missing", [ Del [ "engine"; "steps_per_sec" ] ], false);
        ("engine steps/sec missing from baseline",
         [ Set_base ([ "perf"; "engine" ], J.Obj []) ], false);
        ("ratio-sweep time band", [ Set ([ "ratio_sweep"; "sequential_sec" ], num 0.3) ], false);
        ("a parallel run not bit-identical",
         [ Set ([ "ratio_sweep"; "parallel"; "1"; "bit_identical" ], J.Bool false) ], false);
        ("bit identity missing", [ Del [ "ratio_sweep"; "parallel"; "0"; "bit_identical" ] ], false);
        ("no parallel rows", [ Set ([ "ratio_sweep"; "parallel" ], J.List []) ], false);
        ("obs overhead at the budget", [ Set ([ "obs_overhead_pct" ], num 5.0) ], false);
        ("obs overhead just under", [ Set ([ "obs_overhead_pct" ], num 4.99) ], true);
        ("obs overhead missing", [ Del [ "obs_overhead_pct" ] ], false);
        ("engine.exec p50 band", [ Set ([ "phases"; "engine.exec"; "p50_ms" ], num 3.0) ], false);
        ("lp1.solve p50 band", [ Set ([ "phases"; "lp1.solve"; "p50_ms" ], num 3.0) ], false);
        ("lp.rounding p50 band", [ Set ([ "phases"; "lp.rounding"; "p50_ms" ], num 3.0) ], false);
        ("phase absent here", [ Del [ "phases"; "engine.exec" ] ], true);
        ("phase absent in baseline",
         [ Set_base ([ "perf"; "phases"; "lp1.solve" ], J.Obj []);
           Set ([ "phases"; "lp1.solve"; "p50_ms" ], num 30.0) ], true);
        ("phase baseline under the noise floor",
         [ Set_base ([ "perf"; "phases"; "lp.rounding"; "p50_ms" ], num 0.05);
           Set ([ "phases"; "lp.rounding"; "p50_ms" ], num 30.0) ], true);
        ("certified MWU band",
         [ Set ([ "bechamel_ns_per_run"; "suu lp1-mwu-certified-64x8" ], num 15000.0) ], false);
        ("parity ratio above the band", [ Set ([ "solver_parity"; "0"; "ratio" ], num 1.3) ], false);
        ("parity ratio below the band", [ Set ([ "solver_parity"; "1"; "ratio" ], num 0.79) ], false);
        ("parity ratio missing", [ Del [ "solver_parity"; "1"; "ratio" ] ], false);
        ("parity missing", [ Del [ "solver_parity" ] ], false);
      ] );
    ( "serve",
      [
        ("throughput band", [ Set ([ "throughput_rps" ], num 300.0) ], false);
        ("throughput missing", [ Del [ "throughput_rps" ] ], false);
        ("p50 latency band", [ Set ([ "latency_ms"; "p50" ], num 3.0) ], false);
        ("an error reply", [ Set ([ "errors" ], num 1.0) ], false);
        ("errors missing", [ Del [ "errors" ] ], false);
        ("simulate bytes differ across worker counts",
         [ Set ([ "deterministic_over_the_wire" ], J.Bool false) ], false);
        ("wire determinism missing", [ Del [ "deterministic_over_the_wire" ] ], false);
        ("hit rate under the floor", [ Set ([ "plan_cache_hit_rate" ], num 0.79) ], false);
        ("hit rate missing", [ Del [ "plan_cache_hit_rate" ] ], false);
        ("no bypasses", [ Set ([ "plan_cache_bypass" ], num 0.0) ], false);
        ("bypass missing", [ Del [ "plan_cache_bypass" ] ], false);
        ("request p50 band", [ Set ([ "phases"; "server.request"; "p50_ms" ], num 3.0) ], false);
        ("execute p50 band", [ Set ([ "phases"; "server.execute"; "p50_ms" ], num 3.0) ], false);
        ("queue-wait p50 band", [ Set ([ "phases"; "server.queue_wait"; "p50_ms" ], num 3.0) ], false);
        ("too few connections", [ Set ([ "connection_scale"; "connections" ], num 499.0) ], false);
        ("connection floor missing from the baseline",
         [ Set_base ([ "serve"; "connection_scale" ], J.Obj []) ], false);
        ("a dropped connection", [ Set ([ "connection_scale"; "dropped" ], num 1.0) ], false);
        ("a mismatched connection", [ Set ([ "connection_scale"; "mismatched" ], num 1.0) ], false);
        ("connection scale missing", [ Del [ "connection_scale" ] ], false);
        ("workload null", [ Set ([ "workload" ], J.Null) ], true);
        ("workload absent", [ Del [ "workload" ] ], true);
        ("workload incomplete", [ Set ([ "workload"; "completed" ], num 19.0) ], false);
        ("workload no arrivals",
         [ Set ([ "workload"; "arrivals" ], num 0.0); Set ([ "workload"; "completed" ], num 0.0) ], false);
        ("workload completed missing", [ Del [ "workload"; "completed" ] ], false);
        ("workload replay differs", [ Set ([ "workload"; "deterministic_replay" ], J.Bool false) ], false);
        ("workload determinism missing", [ Del [ "workload"; "deterministic_replay" ] ], false);
        ("queueing p50 missing", [ Del [ "workload"; "queueing_ms"; "p50" ] ], false);
        ("e2e p50 negative", [ Set ([ "workload"; "e2e_ms"; "p50" ], num (-1.0)) ], false);
        ("e2e p95 missing", [ Del [ "workload"; "e2e_ms"; "p95" ] ], false);
      ] );
    ( "chaos",
      [
        ("a lost request", [ Set ([ "success_rate" ], num 0.99) ], false);
        ("success rate missing", [ Del [ "success_rate" ] ], false);
        ("no faults injected", [ Set ([ "injected"; "total" ], num 0.0) ], false);
        ("no retries", [ Set ([ "client_retries" ], num 0.0) ], false);
        ("throughput band", [ Set ([ "throughput_rps" ], num 30.0) ], false);
        ("router section null", [ Set ([ "router" ], J.Null) ], false);
        ("router lost requests", [ Set ([ "router"; "success_rate" ], num 0.5) ], false);
        ("router never marked down", [ Set ([ "router"; "mark_down" ], num 0.0) ], false);
        ("router no live shards", [ Set ([ "router"; "live_shards_after" ], num 0.0) ], false);
        ("router live shards missing", [ Del [ "router"; "live_shards_after" ] ], false);
      ] );
    ( "shard",
      [
        ("routed bytes differ", [ Set ([ "byte_identical" ], J.Bool false) ], false);
        ("byte identity missing", [ Del [ "byte_identical" ] ], false);
        ("an error response", [ Set ([ "errors" ], num 1.0) ], false);
        ("nothing routed", [ Set ([ "routed_requests" ], num 0.0) ], false);
        ("routed/direct under the tiny floor", [ Set ([ "routed_vs_direct" ], num 0.59) ], false);
        ("routed/direct 0.8 at tiny scale", [ Set ([ "routed_vs_direct" ], num 0.8) ], true);
        ("routed/direct 0.8 at full scale",
         [ Set ([ "scale" ], J.String "full"); Set ([ "routed_vs_direct" ], num 0.8) ], false);
        ("direct throughput band", [ Set ([ "direct_rps" ], num 30.0) ], false);
        ("routed-2 throughput band", [ Set ([ "routed_2shard_rps" ], num 30.0) ], false);
      ] );
    ( "replay",
      [
        ("outputs differ", [ Set ([ "identical" ], J.Bool false) ], false);
        ("identity missing", [ Del [ "identical" ] ], false);
        ("resumed output differs", [ Set ([ "resumed_identical" ], J.Bool false) ], false);
        ("warm pass served nothing", [ Set ([ "warm_served" ], num 0.0) ], false);
        ("warm pass served one short", [ Set ([ "warm_served" ], num 29.0) ], false);
        ("warm pass served one too many", [ Set ([ "warm_served" ], num 31.0) ], false);
        ("sweep replication count missing", [ Del [ "sweep_reps" ] ], false);
        ("warm pass recomputed", [ Set ([ "warm_computed" ], num 1.0) ], false);
        ("warm recompute count missing", [ Del [ "warm_computed" ] ], false);
        ("torn tail kept", [ Set ([ "torn_tail_truncated" ], num 0.0) ], false);
        ("no records", [ Set ([ "store"; "records" ], num 0.0) ], false);
        ("cold sweep band", [ Set ([ "cold_sec" ], num 0.03) ], false);
      ] );
    ( "table1",
      [
        ("no synthetic rows", [ Set ([ "synthetic_rows" ], num 0.0) ], false);
        ("no SWF rows", [ Set ([ "swf_rows" ], num 0.0) ], false);
        ("SWF rows missing", [ Del [ "swf_rows" ] ], false);
        ("single-machine ratio over the bound",
         [ Set ([ "single_machine_lzf"; "1"; "ratio" ], num 1.2) ], false);
        ("single-machine ratio over a declared bound", [ Set ([ "lzf_bound" ], num 0.9) ], false);
        ("bound defaults to 1/0.8531",
         [ Del [ "lzf_bound" ]; Set ([ "single_machine_lzf"; "0"; "ratio" ], num 1.17) ], true);
        ("single-machine ratio missing", [ Del [ "single_machine_lzf"; "0"; "ratio" ] ], false);
        ("single-machine rows empty", [ Set ([ "single_machine_lzf" ], J.List []) ], false);
        ("cold speedup under the tiny floor", [ Set ([ "lzf_vs_sem_speedup_min" ], num 1.9) ], false);
        ("cold speedup null", [ Set ([ "lzf_vs_sem_speedup_min" ], J.Null) ], false);
        ("cold speedup 4x at full scale",
         [ Set ([ "scale" ], J.String "full"); Set ([ "lzf_vs_sem_speedup_min" ], num 4.0) ], false);
        ("lzf mean ratio zero", [ Set ([ "policies"; "1"; "mean_ratio" ], num 0.0) ], false);
        ("backfill mean steps/sec zero",
         [ Set ([ "policies"; "0"; "mean_steps_per_sec" ], num 0.0) ], false);
        ("backfill mean ratio null", [ Set ([ "policies"; "0"; "mean_ratio" ], J.Null) ], false);
        ("suu-i-sem row missing", [ Del [ "policies"; "2" ] ], false);
        ("suu-i-sem mean steps missing", [ Del [ "policies"; "2"; "mean_steps_per_sec" ] ], false);
        ("lzf steps/sec band", [ Set ([ "policies"; "1"; "mean_steps_per_sec" ], num 30000.0) ], false);
        ("lzf row missing from the baseline",
         [ Set_base ([ "table1"; "policies" ], J.List []) ], false);
      ] );
  ]

let tmp_dir = Filename.get_temp_dir_name ()

(* Runs the gate on (artifact, baseline); true when it passes. *)
let gate_passes (cur, base) =
  let file prefix j =
    let f = Filename.temp_file ~temp_dir:tmp_dir prefix ".json" in
    J.to_file f j;
    f
  in
  let cur_f = file "gate-cur" cur and base_f = file "gate-base" base in
  let log = Filename.temp_file ~temp_dir:tmp_dir "gate" ".log" in
  let status =
    Sys.command
      (Printf.sprintf "%s regression %s %s > %s 2>&1" (Filename.quote !gate)
         (Filename.quote cur_f) (Filename.quote base_f) (Filename.quote log))
  in
  let output = In_channel.with_open_bin log In_channel.input_all in
  List.iter Sys.remove [ cur_f; base_f; log ];
  (status = 0, output)

let test_experiment name () =
  let cur = J.of_string (List.assoc name artifacts) in
  let base = J.of_string baseline in
  let expect what docs pass =
    let passed, output = gate_passes docs in
    if passed <> pass then
      Alcotest.failf "%s / %s: gate %s, expected it to %s\n%s" name what
        (if passed then "passed" else "failed")
        (if pass then "pass" else "fail")
        output
  in
  expect "as written" (cur, base) true;
  List.iter
    (fun (what, edits, pass) ->
      expect what (List.fold_left (fun docs e -> apply e docs) (cur, base) edits) pass)
    (List.assoc name mutations)

let test_unknown_experiment () =
  let cur = J.of_string (List.assoc "replay" artifacts) in
  let base = J.of_string baseline in
  let passed, _ =
    gate_passes (Option.get (update [ "experiment" ] (fun _ -> Some (J.String "bogus")) cur), base)
  in
  Alcotest.(check bool) "unknown experiment fails" false passed;
  let passed, _ =
    gate_passes (cur, Option.get (update [ "replay" ] (fun _ -> None) base))
  in
  Alcotest.(check bool) "no baseline entry fails" false passed

(* Without a baseline, [Checks.verify] runs every check but the
   baseline rules: how many failed. *)
let test_driver_mode () =
  let failures name edits =
    let cur, _ =
      List.fold_left (fun docs e -> apply e docs)
        (J.of_string (List.assoc name artifacts), J.Null)
        edits
    in
    Checks.verify cur;
    Checks.report ()
  in
  let expect what n name edits =
    Alcotest.(check int) (name ^ " / " ^ what) n (failures name edits)
  in
  List.iter (fun (name, _) -> expect "as written" 0 name []) artifacts;
  expect "a band regression" 0 "serve" [ Set ([ "throughput_rps" ], num 1.0) ];
  expect "fewer connections than the baseline" 0 "serve"
    [ Set ([ "connection_scale"; "connections" ], num 40.0) ];
  expect "an error reply" 1 "serve" [ Set ([ "errors" ], num 1.0) ];
  expect "a lost chaos request" 1 "chaos" [ Set ([ "success_rate" ], num 0.99) ]

let () =
  (match Sys.argv with
  | [| _; g |] -> gate := g
  | _ ->
      prerr_endline "usage: test_gate.exe PATH/TO/gate.exe";
      exit 2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "gate"
    [
      ( "regression",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_experiment name))
          artifacts
        @ [ Alcotest.test_case "unknown or unbaselined" `Quick test_unknown_experiment ] );
      ("driver", [ Alcotest.test_case "baseline rules skipped" `Quick test_driver_mode ]);
    ]
