(* The check table of the bench harness's artifacts and its
   interpreter: one list of checks per experiment (perf, serve, chaos,
   shard, replay, table1), run by the driver on each BENCH_<x>.json it
   writes and by gate.exe against bench/baseline.json.

   Baseline rules ([Band], [At_least_baseline]) need the baseline and
   run only in the gate.  Bands are deliberately generous (2.5x): shared
   CI runners jitter wildly, and the gate exists to catch
   order-of-magnitude regressions (an accidentally quadratic loop, a
   lock on the hot path), not 10% drifts.  Every other check is a
   within-run correctness flag or ratio floor, immune to runner speed,
   so the driver fails a run as soon as it writes a broken artifact. *)

module J = Suu_util.Json

let failures = ref []

let failf fmt =
  Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let okf fmt = Printf.ksprintf (fun s -> Printf.printf "ok: %s\n" s) fmt

(* Prints the failures so far, one FAIL line each on stderr, forgets
   them and returns how many there were. *)
let report () =
  let fs = List.rev !failures in
  failures := [];
  List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
  List.length fs

(* --- the checks --- *)

type step =
  | K of string  (** object member *)
  | Each  (** every row of a list; a list without rows fails *)
  | Where of string * string  (** the row whose member [key] is [value] *)

type limit =
  | V of float
  | Scaled of float * float  (** full scale, tiny scale *)
  | Field of string * float option
      (** the artifact's own number, or a default; with no default a
          missing number fails the check *)

type rule =
  | Band of [ `Higher | `Lower ] * float option
      (** Within [tolerance]x of the baseline.  Under a noise floor, a
          baseline below it or a value missing on either side is
          skipped. *)
  | At_least_baseline
      (** no less than the baseline's value: the scale CI runs at *)
  | At_least of limit
  | Above of limit
  | Below of limit
  | At_most of limit
  | Equals of limit
  | Is of bool
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
let is_true = Is true
let zero = Equals (V 0.0)
let positive = Above (V 0.0)
let non_negative = At_least (V 0.0)

(* Sub-0.1ms phases on a noisy runner are coin flips. *)
let phase p =
  c ("phase " ^ p ^ " p50") [ "phases"; p; "p50_ms" ] (Band (`Lower, Some 0.1))

let table =
  [
    ( "perf",
      [
        c "engine steps/sec" [ "engine"; "steps_per_sec" ] higher;
        c "ratio-sweep sequential time"
          [ "ratio_sweep"; "sequential_sec" ]
          lower;
        (* Every domain count replays the sequential makespans. *)
        {
          name = "ratio-sweep parallel run bit-identical";
          path = [ K "ratio_sweep"; K "parallel"; Each; K "bit_identical" ];
          rule = is_true;
        };
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
        (* Overloaded replies are counted apart; any other error reply
           or failed call is a bug. *)
        c "serve error responses" [ "errors" ] zero;
        c "simulate bytes identical across worker counts"
          [ "deterministic_over_the_wire" ] is_true;
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
        c "connections" [ "connection_scale"; "connections" ] At_least_baseline;
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
        (* The router scenario kills a shard mid-load. *)
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
        c "replay warm pass served every replication" [ "warm_served" ]
          (Equals (Field ("sweep_reps", None)));
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
          rule = At_most (Field ("lzf_bound", Some (1.0 /. 0.8531)));
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
    match (num v, limit l) with
    | Some x, Some t -> Some (show x, Printf.sprintf "%s %g" sym t, op x t)
    | _ -> None
  in
  match rule with
  | At_least l -> cmp ">=" ( >= ) l
  | Above l -> cmp ">" ( > ) l
  | Below l -> cmp "<" ( < ) l
  | At_most l -> cmp "<=" ( <= ) l
  | Is b ->
      Option.map
        (fun x -> (string_of_bool x, string_of_bool b, x = b))
        (J.to_bool v)
  | Equals l -> (
      match (num v, limit l) with
      | Some x, Some t -> Some (show x, show t, x = t)
      | _ -> None)
  | Within (lo, hi) ->
      Option.map
        (fun x ->
          (show x, Printf.sprintf "in [%g, %g]" lo hi, lo <= x && x <= hi))
        (num v)
  | Ratio_at_least (over, l) -> (
      match (num v, num (one over cur), limit l) with
      | Some x, Some d, Some t ->
          Some
            ( Printf.sprintf "%.4g (%s/%s)" (x /. d) (show x) (show d),
              Printf.sprintf ">= %g" t,
              d > 0.0 && x /. d >= t )
      | _ -> None)
  | Band _ | At_least_baseline | Optional _ -> invalid_arg "Checks.judge"

(* Runs one check; [base] is the baseline's matching section, or [None]
   to skip the baseline rules. *)
let rec run ~limit ~cur ~base ({ name; path; rule } as check) =
  match (rule, select path cur, base) with
  | Optional checks, [ (_, Some section) ], _ when section <> J.Null ->
      let base =
        Option.map (fun b -> Option.value (one path b) ~default:J.Null) base
      in
      List.iter (run ~limit ~cur:section ~base) checks
  | Optional _, _, _ -> okf "%s: absent, skipped" name
  | (Band _ | At_least_baseline), _, None -> ()
  | At_least_baseline, _, Some base -> (
      match num (one path base) with
      | Some b -> run ~limit ~cur ~base:None { check with rule = At_least (V b) }
      | None -> failf "%s missing from baseline" name)
  | Band (better, floor), _, Some base -> (
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
  | _, [], _ -> failf "%s: no rows in current results" name
  | _, values, _ ->
      List.iter
        (fun (label, v) ->
          let name = name ^ label in
          match judge ~limit ~cur rule v with
          | None -> failf "%s missing from current results" name
          | Some (shown, want, true) -> okf "%s: %s (%s)" name shown want
          | Some (shown, want, false) ->
              failf "%s: %s, must be %s" name shown want)
        values

(* The artifact's experiment id. *)
let experiment cur =
  match J.to_string (J.member "experiment" cur) with
  | Some e -> e
  | None -> failwith "current results carry no \"experiment\" field"

(* Runs the checks of [cur]'s experiment; the baseline rules only with
   [~base], the experiment's entry in bench/baseline.json. *)
let verify ?base cur =
  let checks =
    match List.assoc_opt (experiment cur) table with
    | Some cs -> cs
    | None -> failwith ("unknown experiment kind " ^ experiment cur)
  in
  let tiny = J.to_string (J.member "scale" cur) = Some "tiny" in
  let limit = function
    | V x -> Some x
    | Scaled (full, small) -> Some (if tiny then small else full)
    | Field (key, default) -> (
        match num (J.member key cur) with Some x -> Some x | None -> default)
  in
  List.iter (run ~limit ~cur ~base) checks
