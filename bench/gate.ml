(* CI quality gate over the bench harness's artifacts.

   Modes:
     gate.exe regression CURRENT.json BASELINE.json
       Run every check {!Checks.table} declares for the artifact's
       experiment (perf, serve, chaos, shard, replay, table1), the
       baseline rules included: those compare with that experiment's
       entry in bench/baseline.json.

     gate.exe trace-coverage TRACE.jsonl
       Validate a SUU_TRACE capture: every line parses as JSON, and at
       least one simulate request's direct child spans (parse /
       queue_wait / execute / write) cover >= 95% of the root span's
       wall time — i.e. the instrumentation accounts for where request
       time actually goes. *)

module J = Suu_util.Json

let failf = Checks.failf
let okf = Checks.okf

let regression current_path baseline_path =
  let cur = J.of_file current_path in
  let experiment = Checks.experiment cur in
  (* bench/baseline.json holds one entry per experiment. *)
  match J.member experiment (J.of_file baseline_path) with
  | Some base -> Checks.verify ~base cur
  | None -> failwith ("baseline has no entry for " ^ experiment)

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
  match Checks.report () with
  | 0 -> print_endline "gate: PASS"
  | n ->
      Printf.eprintf "gate: %d failure(s)\n" n;
      exit 1
