(* CI quality gate over the bench harness's artifacts.

   Modes:
     gate.exe regression CURRENT.json BASELINE.json
       Run the checks [checks] declares for the artifact's experiment
       (perf, serve, chaos, shard, replay, table1).  Baseline bands
       compare with that experiment's entry in bench/baseline.json and
       are deliberately generous (2.5x): shared CI runners jitter
       wildly, and the gate exists to catch order-of-magnitude
       regressions (an accidentally quadratic loop, a lock on the hot
       path), not 10% drifts.  Every other check is a within-run
       correctness flag or ratio floor, immune to runner speed.

     gate.exe trace-coverage TRACE.jsonl
       Validate a SUU_TRACE capture: every line parses as JSON, and at
       least one simulate request's direct child spans (parse /
       queue_wait / execute / write) cover >= 95% of the root span's
       wall time — i.e. the instrumentation accounts for where request
       time actually goes. *)

module J = Suu_util.Json

let failures = ref []

let failf fmt =
  Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let okf fmt = Printf.ksprintf (fun s -> Printf.printf "ok: %s\n" s) fmt

(* --- the checks --- *)

type step =
  | K of string  (** object member *)
  | Each  (** every row of a list; a list without rows fails *)
  | Where of string * string  (** the row whose member [key] is [value] *)

type limit =
  | V of float
  | Scaled of float * float  (** full scale, tiny scale *)
  | Field of string * float  (** the artifact's own number, or a default *)

type rule =
  | Band of [ `Higher | `Lower ] * float option
      (** Within [tolerance]x of the baseline.  Under a noise floor, a
          baseline below it or a value missing on either side is
          skipped. *)
  | At_least of limit
  | Above of limit
  | Below of limit
  | At_most of limit
  | Equals of J.t  (** a number or a bool *)
  | Within of float * float
  | Ratio_at_least of step list * limit
      (** this value over the one at that path, which must be > 0 *)
  | Optional of check list
      (** A null or absent section is skipped; otherwise its checks run
          with paths relative to it. *)

and check = { name : string; path : step list; rule : rule }

let tolerance = 2.5
let c name path rule = { name; path = List.map (fun k -> K k) path; rule }
let higher = Band (`Higher, None)
let lower = Band (`Lower, None)
let is_true = Equals (J.Bool true)
let zero = Equals (J.Float 0.0)
let positive = Above (V 0.0)
let non_negative = At_least (V 0.0)

(* Sub-0.1ms phases on a noisy runner are coin flips. *)
let phase p =
  c ("phase " ^ p ^ " p50") [ "phases"; p; "p50_ms" ] (Band (`Lower, Some 0.1))

let checks =
  [
    ( "perf",
      [
        c "engine steps/sec" [ "engine"; "steps_per_sec" ] higher;
        c "ratio-sweep sequential time"
          [ "ratio_sweep"; "sequential_sec" ]
          lower;
        (* The instrumentation-overhead budget. *)
        c "obs overhead %" [ "obs_overhead_pct" ] (Below (V 5.0));
        phase "engine.exec";
        phase "lp1.solve";
        phase "lp.rounding";
        (* Certified MWU must stay the cheap serve-path default. *)
        c "lp1 certified MWU ns/run"
          [ "bechamel_ns_per_run"; "suu lp1-mwu-certified-64x8" ]
          lower;
        (* The LP backend must not change SEM/OBL schedule quality. *)
        {
          name = "solver parity mwu/simplex makespan ratio";
          path = [ K "solver_parity"; Each; K "ratio" ];
          rule = Within (1.0 /. 1.25, 1.25);
        };
      ] );
    ( "serve",
      [
        c "serve throughput" [ "throughput_rps" ] higher;
        c "serve p50 latency" [ "latency_ms"; "p50" ] lower;
        (* The request mix recurs: a lower hit rate means the keying or
           eviction regressed (the pre-fix thrash measured ~11%). *)
        c "plan-cache hit rate" [ "plan_cache_hit_rate" ] (At_least (V 0.8));
        (* LP-free policies in the mix must count as cache bypasses. *)
        c "plan-cache bypasses" [ "plan_cache_bypass" ] positive;
        phase "server.request";
        phase "server.execute";
        phase "server.queue_wait";
        (* Hundreds of concurrent pipelined connections, no drops,
           byte-exact replies. *)
        c "connections" [ "connection_scale"; "connections" ]
          (At_least (V 500.0));
        c "connections dropped" [ "connection_scale"; "dropped" ] zero;
        c "connections mismatched" [ "connection_scale"; "mismatched" ] zero;
        (* Null when the bench ran closed-loop only (no --workload). *)
        c "open-loop workload" [ "workload" ]
          (Optional
             [
               c "workload completed/arrivals" [ "completed" ]
                 (Ratio_at_least ([ K "arrivals" ], V 1.0));
               c "workload replay byte-identical across runs"
                 [ "deterministic_replay" ] is_true;
               c "workload queueing p50" [ "queueing_ms"; "p50" ] non_negative;
               c "workload e2e p50" [ "e2e_ms"; "p50" ] non_negative;
               c "workload e2e p95" [ "e2e_ms"; "p95" ] non_negative;
             ]);
      ] );
    ( "chaos",
      [
        (* With retries, anything short of 100% completion is a lost
           request; no faults or no retries would make that vacuous. *)
        c "chaos success rate" [ "success_rate" ] (At_least (V 1.0));
        c "chaos injected faults" [ "injected"; "total" ] positive;
        c "chaos client retries" [ "client_retries" ] positive;
        c "chaos throughput" [ "throughput_rps" ] higher;
        (* `bench chaos --router` kills a shard mid-load. *)
        c "router success rate" [ "router"; "success_rate" ] (At_least (V 1.0));
        c "router mark-downs" [ "router"; "mark_down" ] (At_least (V 1.0));
        c "router live shards after the kill" [ "router"; "live_shards_after" ]
          (At_least (V 1.0));
      ] );
    ( "shard",
      [
        c "routed responses byte-identical to direct" [ "byte_identical" ]
          is_true;
        c "shard error responses" [ "errors" ] zero;
        c "shard routed requests" [ "routed_requests" ] positive;
        (* Full scale holds the 15% proxy-overhead bound; tiny requests
           are cheap enough that the hop looms larger. *)
        c "routed-1/direct throughput" [ "routed_vs_direct" ]
          (At_least (Scaled (0.85, 0.6)));
        c "shard direct throughput" [ "direct_rps" ] higher;
        c "shard routed-2 throughput" [ "routed_2shard_rps" ] higher;
      ] );
    ( "replay",
      [
        (* Memoized, warm and kill-resumed sweeps equal the direct one,
           the warm pass is served from the store, and recovery
           truncated the injected torn tail. *)
        c "replay outputs identical (direct=cold=warm)" [ "identical" ] is_true;
        c "replay kill-resume output identical" [ "resumed_identical" ] is_true;
        c "replay warm pass served" [ "warm_served" ] positive;
        c "replay warm pass recomputed" [ "warm_computed" ] zero;
        c "replay torn tails truncated" [ "torn_tail_truncated" ] positive;
        c "replay store records" [ "store"; "records" ] positive;
        c "replay cold sweep time" [ "cold_sec" ] lower;
      ] );
    ( "table1",
      let policy p field name rule =
        let path = [ K "policies"; Where ("policy", p); K field ] in
        { name = p ^ name; path; rule }
      in
      [
        c "table1 synthetic rows" [ "synthetic_rows" ] (At_least (V 1.0));
        c "table1 SWF rows" [ "swf_rows" ] (At_least (V 1.0));
        (* With m=1 the work bound is tight, so LZF's ratio must keep
           the paper's 0.8531 guarantee. *)
        {
          name = "single-machine lzf ratio";
          path = [ K "single_machine_lzf"; Each; K "ratio" ];
          rule = At_most (Field ("lzf_bound", 1.0 /. 0.8531));
        };
        (* Construction plus first execution.  Tiny instances solve
           their LPs in microseconds, down in the timer noise. *)
        c "lzf/suu-i-sem cold steps/sec" [ "lzf_vs_sem_speedup_min" ]
          (At_least (Scaled (5.0, 2.0)));
        (* An LZF hot-path regression the within-run ratio would forgive
           (both policies slowing down together). *)
        policy "lzf" "mean_steps_per_sec" " mean steps/sec" higher;
      ]
      @ List.concat_map
          (fun p ->
            [ policy p "mean_ratio" " mean ratio" positive;
              policy p "mean_steps_per_sec" " mean steps/sec" positive ])
          [ "lzf"; "backfill"; "suu-i-sem" ] );
  ]

(* --- the interpreter --- *)

(* The values [path] selects in [j], labelled by their list rows; a
   missing member selects [None], a list step without rows nothing. *)
let rec select path j =
  let label i = function
    | J.Obj kvs ->
        List.find_map (function _, J.String s -> Some s | _ -> None) kvs
        |> Option.value ~default:(string_of_int i)
    | _ -> string_of_int i
  in
  match (path, j) with
  | [], _ -> [ ("", Some j) ]
  | K k :: rest, _ -> (
      match J.member k j with Some v -> select rest v | None -> [ ("", None) ])
  | Each :: rest, J.List rows ->
      List.concat
        (List.mapi
           (fun i row ->
             List.map
               (fun (l, v) -> (" [" ^ label i row ^ "]" ^ l, v))
               (select rest row))
           rows)
  | Where (k, v) :: rest, J.List rows -> (
      match List.find_opt (fun r -> J.member k r = Some (J.String v)) rows with
      | Some row -> select rest row
      | None -> [])
  | (Each | Where _) :: _, _ -> []

let one path j = match select path j with (_, v) :: _ -> v | [] -> None
let num = J.to_float

(* [Some (value shown, requirement, holds)], or [None] when a number
   the rule needs is missing. *)
let judge ~limit ~cur rule v =
  let show = Printf.sprintf "%.6g" in
  let cmp sym op l =
    let t = limit l in
    Option.map (fun x -> (show x, Printf.sprintf "%s %g" sym t, op x t)) (num v)
  in
  match rule with
  | At_least l -> cmp ">=" ( >= ) l
  | Above l -> cmp ">" ( > ) l
  | Below l -> cmp "<" ( < ) l
  | At_most l -> cmp "<=" ( <= ) l
  | Equals (J.Bool b) ->
      Option.map
        (fun x -> (string_of_bool x, string_of_bool b, x = b))
        (J.to_bool v)
  | Equals (J.Float t) -> Option.map (fun x -> (show x, show t, x = t)) (num v)
  | Within (lo, hi) ->
      Option.map
        (fun x ->
          (show x, Printf.sprintf "in [%g, %g]" lo hi, lo <= x && x <= hi))
        (num v)
  | Ratio_at_least (over, l) -> (
      match (num v, num (one over cur)) with
      | Some x, Some d ->
          let t = limit l in
          Some
            ( Printf.sprintf "%.4g (%s/%s)" (x /. d) (show x) (show d),
              Printf.sprintf ">= %g" t,
              d > 0.0 && x /. d >= t )
      | _ -> None)
  | Equals _ | Band _ | Optional _ -> invalid_arg "Gate.judge"

let rec run ~limit ~cur ~base { name; path; rule } =
  match (rule, select path cur) with
  | Optional checks, [ (_, Some section) ] when section <> J.Null ->
      let base = Option.value (one path base) ~default:J.Null in
      List.iter (run ~limit ~cur:section ~base) checks
  | Optional _, _ -> okf "%s: absent, skipped" name
  | Band (better, floor), _ -> (
      match (num (one path cur), num (one path base), floor) with
      | Some _, Some b, Some f when b < f ->
          okf "%s: baseline %.4g under the %g noise floor, skipped" name b f
      | Some x, Some b, _ ->
          if
            b > 0.0
            && (if better = `Higher then x < b /. tolerance
                else x > b *. tolerance)
          then
            failf "%s regressed beyond %gx: current %.6g vs baseline %.6g"
              name tolerance x b
          else okf "%s: current %.6g vs baseline %.6g" name x b
      | _, _, Some _ -> okf "%s: absent on one side, skipped" name
      | None, _, None -> failf "%s missing from current results" name
      | _, None, None -> failf "%s missing from baseline" name)
  | _, [] -> failf "%s: no rows in current results" name
  | _, values ->
      List.iter
        (fun (label, v) ->
          let name = name ^ label in
          match judge ~limit ~cur rule v with
          | None -> failf "%s missing from current results" name
          | Some (shown, want, true) -> okf "%s: %s (%s)" name shown want
          | Some (shown, want, false) ->
              failf "%s: %s, must be %s" name shown want)
        values

let regression current_path baseline_path =
  let cur = J.of_file current_path in
  let experiment =
    match J.to_string (J.member "experiment" cur) with
    | Some e -> e
    | None -> failwith "current results carry no \"experiment\" field"
  in
  (* bench/baseline.json holds one entry per experiment. *)
  let base =
    match J.member experiment (J.of_file baseline_path) with
    | Some b -> b
    | None -> failwith ("baseline has no entry for " ^ experiment)
  in
  let checks =
    match List.assoc_opt experiment checks with
    | Some cs -> cs
    | None -> failwith ("unknown experiment kind " ^ experiment)
  in
  let tiny = J.to_string (J.member "scale" cur) = Some "tiny" in
  let limit = function
    | V x -> x
    | Scaled (full, small) -> if tiny then small else full
    | Field (key, default) -> Option.value (num (J.member key cur)) ~default
  in
  List.iter (run ~limit ~cur ~base) checks

(* --- trace-coverage mode --- *)

let coverage_threshold = 0.95

let trace_coverage path =
  let ic = open_in path in
  let spans = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match J.of_string line with
         | j -> spans := j :: !spans
         | exception J.Parse_error msg ->
             failf "trace line %d is not valid JSON: %s" !lineno msg
     done
   with End_of_file -> close_in ic);
  let spans = List.rev !spans in
  okf "trace has %d spans, all valid JSON" (List.length spans);
  let num k j = J.to_float (J.member k j) in
  let str k j = J.to_string (J.member k j) in
  let roots =
    List.filter
      (fun j ->
        str "name" j = Some "server.request"
        && J.to_string (J.path [ "attrs"; "type" ] j) = Some "simulate")
      spans
  in
  if roots = [] then failf "trace contains no simulate server.request span"
  else begin
    let coverage root =
      match (num "id" root, num "dur_ns" root) with
      | Some id, Some dur when dur > 0.0 ->
          let child_sum =
            List.fold_left
              (fun acc j ->
                if num "parent" j = Some id then
                  acc +. Option.value (num "dur_ns" j) ~default:0.0
                else acc)
              0.0 spans
          in
          child_sum /. dur
      | _ -> 0.0
    in
    let best =
      List.fold_left (fun acc r -> Float.max acc (coverage r)) 0.0 roots
    in
    if best >= coverage_threshold then
      okf "simulate request phase coverage %.1f%% (threshold %.0f%%)"
        (100.0 *. best)
        (100.0 *. coverage_threshold)
    else
      failf
        "no simulate request's child spans cover %.0f%% of its wall time \
         (best %.1f%%)"
        (100.0 *. coverage_threshold)
        (100.0 *. best)
  end

let () =
  (match Array.to_list Sys.argv with
  | [ _; "regression"; current; baseline ] -> regression current baseline
  | [ _; "trace-coverage"; trace ] -> trace_coverage trace
  | _ ->
      prerr_endline
        "usage: gate.exe regression CURRENT.json BASELINE.json\n\
        \       gate.exe trace-coverage TRACE.jsonl";
      exit 2);
  match !failures with
  | [] -> print_endline "gate: PASS"
  | fs ->
      List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) (List.rev fs);
      Printf.eprintf "gate: %d failure(s)\n" (List.length fs);
      exit 1
