(* The `suu` command-line tool: generate SUU workloads, inspect them, and
   race the paper's algorithms against baselines on simulated traces. *)

open Cmdliner

module W = Suu_workload.Workload
module Table = Suu_util.Table

(* --- shared arguments --- *)

let hazard_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "uniform" -> Ok (W.Uniform { lo = 0.2; hi = 0.95 })
    | "product" -> Ok W.Product
    | "volunteers" -> Ok (W.Volunteers { reliable_fraction = 0.2 })
    | "specialists" -> Ok (W.Specialists { capable = 3 })
    | "near-one" -> Ok W.Near_one
    | _ ->
        Error
          (`Msg
            "hazard must be one of: uniform, product, volunteers, \
             specialists, near-one")
  in
  let print fmt h = Format.pp_print_string fmt (W.hazard_name h) in
  Arg.conv (parse, print)

(* A domain count (--sim-jobs): below 1 is a usage error, reported
   against the flag before anything starts. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let hazard =
  Arg.(
    value
    & opt hazard_conv (W.Uniform { lo = 0.2; hi = 0.95 })
    & info [ "hazard" ] ~docv:"MODEL"
        ~doc:
          "Failure-probability model: uniform, product, volunteers, \
           specialists or near-one.")

let shape =
  Arg.(
    value
    & opt (enum
             [
               ("independent", `Independent);
               ("chains", `Chains);
               ("forest", `Forest);
               ("mapreduce", `Mapreduce);
             ])
        `Independent
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:
          "Precedence structure: independent, chains, forest or mapreduce.")

let n_jobs =
  Arg.(value & opt int 24 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Job count.")

let n_machines =
  Arg.(
    value & opt int 6 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Machine count.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let reps =
  Arg.(
    value & opt int 20
    & info [ "reps" ] ~docv:"R" ~doc:"Number of simulated executions.")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Write the generated instance to FILE.")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Load the instance from FILE instead of generating one.")

let build_instance shape hazard n m seed =
  match shape with
  | `Independent -> W.independent hazard ~n ~m ~seed
  | `Chains ->
      let z = max 1 (n / 6) in
      W.random_chains hazard ~n ~z ~m ~seed
  | `Forest ->
      let trees = max 1 (n / 8) in
      W.forest hazard ~n ~trees ~orientation:`Mixed ~m ~seed
  | `Mapreduce ->
      let maps = max 1 (2 * n / 3) in
      W.mapreduce hazard ~maps ~reduces:(max 1 (n - maps)) ~m ~seed

let obtain_instance load shape hazard n m seed save =
  let inst =
    match load with
    | Some path -> Suu_core.Instance_io.load_file path
    | None -> build_instance shape hazard n m seed
  in
  (match save with
  | Some path ->
      Suu_core.Instance_io.save_file path inst;
      Printf.printf "saved instance to %s\n" path
  | None -> ());
  inst

(* A malformed or missing --load file (or an unwritable --save path)
   must exit with a one-line error, not a raw Failure backtrace. *)
let with_instance load shape hazard n m seed save f =
  match obtain_instance load shape hazard n m seed save with
  | inst -> f inst
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Error (`Msg msg)

(* --- describe --- *)

let describe shape hazard n m seed load save =
  with_instance load shape hazard n m seed save (fun inst ->
      print_endline (Suu_core.Auto.describe inst);
      Printf.printf "lower bounds on E[T_OPT]:\n";
      Printf.printf "  LP1(J,1/2)/2 : %.3f\n"
        (Suu_core.Lower_bound.lp1_half inst);
      Printf.printf "  critical path: %.3f\n"
        (Suu_core.Lower_bound.critical_path inst);
      Printf.printf "  work / m     : %.3f\n" (Suu_core.Lower_bound.work inst);
      Printf.printf "  combined     : %.3f\n"
        (Suu_core.Lower_bound.combined inst);
      Ok ())

let describe_cmd =
  let doc = "Generate a workload and print its classification and bounds." in
  Cmd.v
    (Cmd.info "describe" ~doc)
    Term.(
      term_result
        (const describe $ shape $ hazard $ n_jobs $ n_machines $ seed
        $ load_arg $ save_arg))

(* --- simulate --- *)

(* Every applicable concrete policy, from the shared registry ("auto"
   is skipped: it duplicates one of the dispatched rows). *)
let policies_for inst =
  Suu_sched.Register.ensure ();
  List.filter_map
    (fun name ->
      if name = "auto" then None
      else
        match Suu_core.Policy_registry.build name inst with
        | Ok p -> Some (name, p)
        | Error _ -> None)
    (Suu_core.Policy_registry.applicable inst)

let simulate shape hazard n m seed reps load =
  with_instance load shape hazard n m seed None (fun inst ->
      print_endline (Suu_core.Auto.describe inst);
      let bound = Suu_core.Lower_bound.combined inst in
      Printf.printf "combined lower bound: %.2f\n\n" bound;
      let table =
        Table.create ~header:[ "policy"; "E[T]"; "ci95"; "min"; "max"; "ratio" ]
      in
      List.iter
        (fun (label, policy) ->
          let xs =
            Suu_sim.Runner.makespans inst policy ~seed:(seed + 1) ~reps
          in
          let s = Suu_stats.Summary.of_array xs in
          Table.add_float_row table label
            Suu_stats.Summary.
              [ s.mean; s.ci95; s.min; s.max; s.mean /. bound ])
        (policies_for inst);
      Table.print table;
      Ok ())

let simulate_cmd =
  let doc = "Race the paper's algorithms against baselines on a workload." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      term_result
        (const simulate $ shape $ hazard $ n_jobs $ n_machines $ seed $ reps
        $ load_arg))

(* --- policies: the registry, human-readable --- *)

let policies () =
  Suu_sched.Register.ensure ();
  let module R = Suu_core.Policy_registry in
  List.iter
    (fun (e : R.entry) ->
      Printf.printf "%-16s %-18s %-6s %s\n   %s\n" e.R.name
        (R.describe_requirement e.R.shape)
        (if e.R.lp_free then "no-LP" else "LP")
        e.R.guarantee e.R.summary)
    (R.entries ())

let policies_cmd =
  let doc =
    "List every registered policy with its shape requirement, LP usage \
     and approximation guarantee."
  in
  Cmd.v (Cmd.info "policies" ~doc) Term.(const policies $ const ())

(* --- optimal (tiny instances) --- *)

let optimal hazard n m seed =
  let inst = W.independent hazard ~n ~m ~seed in
  (try
     let opt = Suu_core.Exact_dp.expected_makespan inst in
     Printf.printf "exact E[T_OPT] = %.4f\n" opt;
     Printf.printf "combined lower bound = %.4f\n"
       (Suu_core.Lower_bound.combined inst)
   with Invalid_argument msg ->
     Printf.eprintf "instance too large for exact DP: %s\n" msg;
     exit 1)

let optimal_cmd =
  let doc = "Compute the exact optimum of a tiny instance by DP." in
  Cmd.v
    (Cmd.info "optimal" ~doc)
    Term.(const optimal $ hazard $ n_jobs $ n_machines $ seed)

(* --- stoch (Appendix C) --- *)

let stoch n m seed reps =
  let rng = Suu_prng.Rng.create ~seed in
  let rates =
    Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.3 ~hi:3.0)
  in
  let speeds =
    Array.init m (fun _ ->
        Array.init n (fun _ -> Suu_prng.Rng.range rng ~lo:0.1 ~hi:2.0))
  in
  let inst = Suu_stoch.Stoch_instance.make ~rates speeds in
  let runs = Suu_stoch.Stc_i.runs inst ~seed:(seed + 1) ~reps in
  let mk = Array.map (fun r -> r.Suu_stoch.Stc_i.makespan) runs in
  let off = Array.map (fun r -> r.Suu_stoch.Stc_i.offline) runs in
  let smk = Suu_stats.Summary.of_array mk in
  let soff = Suu_stats.Summary.of_array off in
  Printf.printf
    "STC-I on n=%d exponential jobs, m=%d unrelated machines (K=%d \
     rounds)\n"
    n m
    (Suu_stoch.Stc_i.rounds inst);
  Printf.printf "E[makespan]        = %.3f ± %.3f\n" smk.Suu_stats.Summary.mean
    smk.Suu_stats.Summary.ci95;
  Printf.printf "E[offline LL bound] = %.3f ± %.3f\n"
    soff.Suu_stats.Summary.mean soff.Suu_stats.Summary.ci95;
  Printf.printf "ratio               = %.3f\n"
    (smk.Suu_stats.Summary.mean /. soff.Suu_stats.Summary.mean)

let stoch_cmd =
  let doc = "Run STC-I (stochastic job lengths, Appendix C)." in
  Cmd.v
    (Cmd.info "stoch" ~doc)
    Term.(const stoch $ n_jobs $ n_machines $ seed $ reps)

(* --- gantt --- *)

let gantt shape hazard n m seed load =
  with_instance load shape hazard n m seed None (fun inst ->
      print_endline (Suu_core.Auto.describe inst);
      let policy = Suu_core.Auto.policy inst in
      let rng = Suu_prng.Rng.create ~seed:(seed + 1) in
      let trace = Suu_sim.Trace.draw ~n:(Suu_core.Instance.n inst) rng in
      let result, steps = Suu_sim.Engine.run_recorded inst policy ~trace ~rng in
      Printf.printf "policy %s, makespan %d (busy %d, wasted %d, idle %d)\n\n"
        (Suu_core.Policy.name policy)
        result.Suu_sim.Engine.makespan result.Suu_sim.Engine.busy_steps
        result.Suu_sim.Engine.wasted_steps result.Suu_sim.Engine.idle_steps;
      print_string (Suu_sim.Gantt.render steps);
      print_newline ();
      Array.iteri
        (fun i u ->
          Printf.printf "machine %d utilization: %.0f%%\n" i (100. *. u))
        (Suu_sim.Gantt.utilization steps);
      Ok ())

let gantt_cmd =
  let doc = "Run one execution and draw its schedule as an ASCII Gantt." in
  Cmd.v
    (Cmd.info "gantt" ~doc)
    Term.(
      term_result
        (const gantt $ shape $ hazard $ n_jobs $ n_machines $ seed $ load_arg))

(* --- serve --- *)

(* Start-up misconfiguration (a malformed SUU_JOBS, SUU_SOLVER or
   SUU_FAULTS) exits with a one-line error before anything listens. *)
let serve host port workers queue deadline_ms sim_jobs solver faults journal =
  let config =
    {
      Suu_server.Server.default_config with
      host;
      port;
      workers;
      queue_capacity = queue;
      default_deadline_ms = deadline_ms;
      sim_jobs;
      solver;
      faults;
      journal;
    }
  in
  match Suu_server.Server.run ~config () with
  | () -> ()
  | exception Invalid_argument msg ->
      prerr_endline ("suu serve: " ^ msg);
      exit 1

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind or connect to.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 picks an ephemeral port when serving).")

let solver_conv =
  let parse s =
    match Suu_core.Solver_choice.of_string s with
    | Result.Ok c -> Ok c
    | Result.Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf c ->
      Format.pp_print_string ppf (Suu_core.Solver_choice.name c))

let serve_cmd =
  let doc = "Run the scheduling service daemon (SIGINT/SIGTERM drains)." in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"K" ~doc:"Worker thread count.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"Q"
          ~doc:"Bounded request-queue capacity; overflow is rejected.")
  in
  let deadline =
    Arg.(
      value & opt int 30_000
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline in milliseconds.")
  in
  let sim_jobs =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "sim-jobs" ] ~docv:"D"
          ~doc:"Domains per simulate request (default: SUU_JOBS or cores).")
  in
  let solver =
    Arg.(
      value
      & opt (some solver_conv) None
      & info [ "solver" ] ~docv:"NAME"
          ~doc:
            "LP backend for every policy this server builds: simplex, \
             mwu or mwu-EPS.  Default: the SUU_SOLVER \
             environment variable, else mwu-0.1 — certified \
             multiplicative weights with automatic simplex fallback \
             for tiny instances and failed optimality certificates.")
  in
  let faults_conv =
    let parse s =
      match Suu_server.Faults.of_spec s with
      | Result.Ok c -> Ok c
      | Result.Error msg -> Error (`Msg msg)
    in
    Arg.conv (parse, fun ppf c ->
        Format.pp_print_string ppf (Suu_server.Faults.to_spec c))
  in
  let faults =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault-injection spec, e.g. \
             drop=0.05,delay=0.1:25,error=0.01,kill=0.01,crash=0.02,seed=42. \
             Overrides the SUU_FAULTS environment variable.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead request journal: every admitted request is \
             durably journaled before execution, responses after; on \
             restart the journal warm-starts the caches and $(b,suu \
             replay) can re-execute it.  Overrides the SUU_JOURNAL \
             environment variable.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ host_arg $ port_arg ~default:7483 $ workers $ queue
      $ deadline $ sim_jobs $ solver $ faults $ journal)

(* --- router --- *)

let router host port shards_n attach workers queue solver journal_dir
    store_dir retries timeout_ms health_ms =
  let module R = Suu_router.Router in
  let module Spawn = Suu_router.Spawn in
  let specs =
    match attach with
    | Some addrs ->
        (* Join shards someone else runs; their address is their ring
           identity. *)
        List.map
          (fun (h, p) ->
            { R.id = Printf.sprintf "%s:%d" h p; host = h; port = p;
              child = None; respawn = None })
          addrs
    | None ->
        if shards_n < 1 then (
          prerr_endline "suu router: --shards must be >= 1";
          exit 1);
        let prog = Sys.executable_name in
        let shard_args i ~port =
          [ "serve"; "--host"; "127.0.0.1"; "--port"; string_of_int port;
            "--workers"; string_of_int workers; "--queue";
            string_of_int queue ]
          @ (match solver with
            | Some s ->
                [ "--solver"; Suu_core.Solver_choice.name s ]
            | None -> [])
          @
          match journal_dir with
          | Some dir ->
              [ "--journal";
                Filename.concat dir (Printf.sprintf "shard%d.journal" i) ]
          | None -> []
        in
        let shard_env i =
          match store_dir with
          | Some dir ->
              [ ("SUU_STORE",
                 Filename.concat dir (Printf.sprintf "shard%d.store" i)) ]
          | None -> []
        in
        (match journal_dir with
        | Some dir -> (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
        | None -> ());
        (match store_dir with
        | Some dir -> (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
        | None -> ());
        let spawned = ref [] in
        let fail msg =
          List.iter (fun (_, c, _) -> Spawn.terminate c) !spawned;
          prerr_endline ("suu router: " ^ msg);
          exit 1
        in
        List.init shards_n (fun i ->
            let id = Printf.sprintf "shard%d" i in
            let child =
              Spawn.spawn ~extra_env:(shard_env i) ~prog
                ~args:(shard_args i ~port:0) ()
            in
            match Spawn.wait_ready child with
            | Result.Error msg ->
                fail (Printf.sprintf "%s failed to start: %s" id msg)
            | Result.Ok (h, p) ->
                spawned := (id, child, p) :: !spawned;
                (* Parseable by scripts/wait_ready.sh: the pid is what
                   the chaos smoke kill -9s. *)
                Printf.printf "suu-router: %s ready at %s:%d (pid %d)\n%!"
                  id h p (Spawn.pid child);
                { R.id; host = h; port = p; child = Some child;
                  respawn =
                    (* Respawn on the SAME port with the same journal
                       and store: the replacement warm-starts as the
                       same ring member. *)
                    Some
                      (fun () ->
                        Spawn.spawn ~extra_env:(shard_env i) ~prog
                          ~args:(shard_args i ~port:p) ()) })
  in
  R.run
    ~config:
      {
        R.default_config with
        host;
        port;
        retries;
        timeout_ms;
        health_interval_ms = health_ms;
      }
    ~shards:specs ()

let router_cmd =
  let doc =
    "Run the sharding coordinator: consistent-hash requests by instance \
     digest across N suu-serve shards."
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Spawn $(docv) suu-serve shard processes on ephemeral ports \
             and manage their lifecycle (health checks, respawn on \
             crash).")
  in
  let attach_conv =
    let parse s =
      let parts = String.split_on_char ',' s in
      let parse_one part =
        match String.rindex_opt part ':' with
        | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" part))
        | Some i -> (
            let h = String.sub part 0 i in
            let ps = String.sub part (i + 1) (String.length part - i - 1) in
            match int_of_string_opt ps with
            | Some p when p > 0 && p < 65536 && h <> "" -> Ok (h, p)
            | _ -> Error (`Msg (Printf.sprintf "bad port in %S" part)))
      in
      List.fold_left
        (fun acc part ->
          match (acc, parse_one part) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok l, Ok hp -> Ok (l @ [ hp ]))
        (Ok []) parts
    in
    Arg.conv
      ( parse,
        fun ppf l ->
          Format.pp_print_string ppf
            (String.concat ","
               (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) l)) )
  in
  let attach =
    Arg.(
      value
      & opt (some attach_conv) None
      & info [ "attach" ] ~docv:"HOST:PORT,..."
          ~doc:
            "Route to already-running shards instead of spawning any; \
             their addresses are their ring identities.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"K" ~doc:"Worker threads per shard.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"Q" ~doc:"Request-queue capacity per shard.")
  in
  let solver =
    Arg.(
      value
      & opt (some solver_conv) None
      & info [ "solver" ] ~docv:"NAME"
          ~doc:"LP backend forwarded to every spawned shard.")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Per-shard write-ahead journals $(docv)/shardI.journal; a \
             respawned shard warm-starts from its own journal.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store-dir" ] ~docv:"DIR"
          ~doc:
            "Per-shard SUU_STORE result stores $(docv)/shardI.store, so \
             digest affinity keeps each store shard-local.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:"Retries per forwarded request within one shard.")
  in
  let timeout =
    Arg.(
      value & opt int 30_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-attempt shard response timeout.")
  in
  let health =
    Arg.(
      value & opt int 500
      & info [ "health-interval-ms" ] ~docv:"MS"
          ~doc:"Interval between shard health probes.")
  in
  Cmd.v
    (Cmd.info "router" ~doc)
    Term.(
      const router $ host_arg $ port_arg ~default:7490 $ shards $ attach
      $ workers $ queue $ solver $ journal_dir $ store_dir $ retries
      $ timeout $ health)

(* --- replay --- *)

let replay path sim_jobs verbose =
  let module R = Suu_server.Replay in
  match R.file ?sim_jobs path with
  | o ->
      Printf.printf
        "journal %s: %d entries — %d replayed, %d matched, %d mismatched, \
         %d skipped\n"
        path o.R.total o.R.replayed o.R.matched o.R.mismatched o.R.skipped;
      if verbose || o.R.mismatched > 0 then
        List.iter
          (fun (m : R.mismatch) ->
            Printf.printf
              "\nmismatch at seq %d\n--- journaled ---\n%s--- replayed ---\n%s"
              m.R.seq m.R.expected m.R.actual)
          o.R.mismatches;
      if o.R.mismatched = 0 then begin
        Printf.printf "replay OK: %d/%d responses byte-identical\n" o.R.matched
          o.R.replayed;
        Ok ()
      end
      else
        Error
          (`Msg
            (Printf.sprintf "replay FAILED: %d of %d responses diverged"
               o.R.mismatched o.R.replayed))
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Error (`Msg msg)

let replay_cmd =
  let doc =
    "Re-execute a suu-serve request journal and verify responses \
     byte-for-byte."
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal written by serve --journal.")
  in
  let sim_jobs =
    Arg.(
      value
      & opt (some jobs_conv) None
      & info [ "sim-jobs" ] ~docv:"D"
          ~doc:"Domains for simulate re-execution (results are identical \
                for every value).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ]
          ~doc:"Print every compared frame pair, not only mismatches.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(term_result (const replay $ path $ sim_jobs $ verbose))

(* --- store --- *)

let store_env_var = "SUU_STORE"

let store_stats dir =
  let dir =
    match dir with
    | Some d -> Ok d
    | None -> (
        match Sys.getenv_opt store_env_var with
        | Some d when d <> "" -> Ok d
        | _ ->
            Error
              (`Msg
                (Printf.sprintf "no store directory: pass --dir or set %s"
                   store_env_var)))
  in
  match dir with
  | Error _ as e -> e
  | Ok d -> (
      match Suu_store.Result_store.open_store d with
      | s ->
          let st = Suu_store.Result_store.stats s in
          Suu_store.Result_store.close s;
          Printf.printf "dir %s\n" d;
          Printf.printf "keys %d\n" st.Suu_store.Result_store.keys;
          Printf.printf "records %d\n" st.Suu_store.Result_store.records;
          Printf.printf "reps %d\n" st.Suu_store.Result_store.reps;
          Printf.printf "file_bytes %d\n" st.Suu_store.Result_store.file_bytes;
          Ok ()
      | exception (Failure msg | Sys_error msg) -> Error (`Msg msg))

let store_cmd =
  let doc = "Inspect the durable result store." in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Store directory (default: the SUU_STORE environment \
                variable).")
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print key/record/replication counts and the log size (runs \
            torn-tail recovery first).")
      Term.(term_result (const store_stats $ dir))
  in
  Cmd.group (Cmd.info "store" ~doc) [ stats_cmd ]

(* --- workload: SWF trace inspection and conversion --- *)

let workload_inspect file =
  match Suu_workload.Swf.load_file file with
  | exception (Failure msg | Sys_error msg) -> Error (`Msg msg)
  | trace ->
      let module Swf = Suu_workload.Swf in
      List.iter
        (fun (k, v) -> Printf.printf "; %s: %s\n" k v)
        trace.Swf.directives;
      let st = Swf.stats trace in
      Printf.printf "jobs %d\n" st.Swf.n_jobs;
      Printf.printf "users %d\n" st.Swf.n_users;
      Printf.printf "span_sec %g\n" st.Swf.span;
      Printf.printf "max_procs %d\n" st.Swf.max_procs;
      Printf.printf "mean_procs %.3g\n" st.Swf.mean_procs;
      Printf.printf "mean_runtime_sec %.6g\n" st.Swf.mean_runtime;
      Printf.printf "max_runtime_sec %.6g\n" st.Swf.max_runtime;
      Ok ()

let workload_convert file out m max_width seed =
  let module Swf = Suu_workload.Swf in
  match Swf.load_file file with
  | exception (Failure msg | Sys_error msg) -> Error (`Msg msg)
  | trace -> (
      try
        if not (Sys.file_exists out) then Unix.mkdir out 0o755
        else if not (Sys.is_directory out) then
          failwith (out ^ " exists and is not a directory");
        let mapping =
          { Swf.default_mapping with m; max_width; seed }
        in
        let pairs = Swf.instances ~mapping trace in
        Array.iter
          (fun ((job : Swf.job), inst) ->
            let path =
              Filename.concat out (Printf.sprintf "job%04d.suu" job.Swf.id)
            in
            Suu_core.Instance_io.save_file path inst)
          pairs;
        Printf.printf "converted %d jobs -> %s (m=%d max-width=%d seed=%d)\n"
          (Array.length pairs) out m max_width seed;
        Ok ()
      with
      | Failure msg | Sys_error msg -> Error (`Msg msg)
      | Unix.Unix_error (e, fn, arg) ->
          Error (`Msg (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))))

let workload_cmd =
  let doc = "Inspect and convert Standard Workload Format traces." in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"SWF trace file.")
  in
  let inspect_cmd =
    Cmd.v
      (Cmd.info "inspect"
         ~doc:
           "Print the trace's header directives and summary statistics \
            (jobs, users, span, processor and runtime distributions).")
      Term.(term_result (const workload_inspect $ file))
  in
  let out =
    Arg.(
      value
      & opt string "swf-out"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Output directory for the converted instances (created if \
                missing).")
  in
  let m =
    Arg.(
      value
      & opt int Suu_workload.Swf.default_mapping.Suu_workload.Swf.m
      & info [ "m"; "machines" ] ~docv:"M"
          ~doc:"Machines per generated instance.")
  in
  let max_width =
    Arg.(
      value
      & opt int Suu_workload.Swf.default_mapping.Suu_workload.Swf.max_width
      & info [ "max-width" ] ~docv:"N"
          ~doc:"Cap on sub-jobs per instance (allocated processors above \
                this are clamped).")
  in
  let seed =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed for the trace-to-instance mapping; the \
                conversion is a deterministic function of (trace, options).")
  in
  let convert_cmd =
    Cmd.v
      (Cmd.info "convert"
         ~doc:
           "Map every trace job to a SUU instance (runtime-calibrated \
            failure matrix, processor-count width, per-user DAG template) \
            and save them as .suu files, one per job.  Deterministic: the \
            same trace and options always produce byte-identical files.")
      Term.(
        term_result
          (const workload_convert $ file $ out $ m $ max_width $ seed))
  in
  Cmd.group (Cmd.info "workload" ~doc) [ inspect_cmd; convert_cmd ]

(* --- client --- *)

let action_conv =
  Arg.enum
    [
      ("describe", `Describe);
      ("lower-bound", `Lower_bound);
      ("plan", `Plan);
      ("simulate", `Simulate);
      ("stats", `Stats);
    ]

let client action host port policy reps seed deadline_ms full retries
    timeout_ms shape hazard n m load save =
  let module C = Suu_server.Client in
  let module P = Suu_server.Protocol in
  let instance () = obtain_instance load shape hazard n m seed save in
  (* The stats reply carries the whole observability registry under
     "obs." keys — per-phase latency quantiles, engine counters, plan
     cache.  That firehose drowns the classic summary, so it is hidden
     unless --full asks for it. *)
  let wanted (k, _) =
    full || not (String.length k >= 4 && String.sub k 0 4 = "obs.")
  in
  (* Retry/timeout/reconnect counters live in THIS process's registry —
     the server cannot count replies the network lost — so stats --full
     appends them to the server's snapshot, under a prefix that says
     whose counters they are. *)
  let local_client_obs () =
    if not full then []
    else
      List.filter_map
        (fun (k, v) ->
          let pfx = "obs.counter.client." in
          let lp = String.length pfx in
          if String.length k >= lp && String.sub k 0 lp = pfx then
            Some ("local." ^ k, v)
          else None)
        (Suu_obs.Registry.render ())
  in
  try
    let body =
      match action with
      | `Describe -> P.Describe (instance ())
      | `Lower_bound -> P.Lower_bound (instance ())
      | `Plan -> P.Plan { inst = instance (); policy; seed }
      | `Simulate -> P.Simulate { inst = instance (); policy; reps; seed }
      | `Stats -> P.Stats
    in
    let c = C.connect ~host ~port ~retries ?timeout_ms () in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        match C.call c ?deadline_ms body with
        | P.Ok { fields; _ } ->
            List.iter
              (fun (k, v) -> Printf.printf "%s %s\n" k v)
              (List.filter wanted fields @ local_client_obs ());
            Ok ()
        | P.Err { code; message; _ } ->
            Error
              (`Msg
                (Printf.sprintf "server error [%s]: %s"
                   (P.error_code_to_string code)
                   message)))
  with
  | Unix.Unix_error (e, _, _) ->
      Error
        (`Msg
          (Printf.sprintf "cannot reach %s:%d: %s" host port
             (Unix.error_message e)))
  | C.Protocol_failure msg -> Error (`Msg msg)
  | Failure msg | Invalid_argument msg | Sys_error msg -> Error (`Msg msg)

let client_cmd =
  let doc = "Send one request to a running suu-serve daemon." in
  let action =
    Arg.(
      required
      & pos 0 (some action_conv) None
      & info [] ~docv:"ACTION"
          ~doc:"One of: describe, lower-bound, plan, simulate, stats.")
  in
  let policy =
    Arg.(
      value & opt string "auto"
      & info [ "policy" ] ~docv:"NAME"
          ~doc:"Policy for plan/simulate (auto picks by instance shape).")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline override in milliseconds.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "For stats: include the full observability snapshot (obs.* \
             counters and per-phase latency quantiles, plus this \
             client's own local.obs.counter.client.* resilience \
             counters), hidden by default.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transient failures (transport errors, torn frames, \
             timeouts, internal/overloaded replies) up to N extra times \
             with capped exponential backoff.")
  in
  let timeout =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-attempt response timeout in milliseconds.")
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      term_result
        (const client $ action $ host_arg $ port_arg ~default:7483 $ policy
        $ reps $ seed $ deadline $ full $ retries $ timeout $ shape $ hazard
        $ n_jobs $ n_machines $ load_arg $ save_arg))

let () =
  let doc = "multiprocessor scheduling under uncertainty (SPAA 2008)" in
  let info = Cmd.info "suu" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd; simulate_cmd; policies_cmd; optimal_cmd; stoch_cmd;
            gantt_cmd; serve_cmd; router_cmd; client_cmd; replay_cmd;
            store_cmd; workload_cmd;
          ]))
