(* Multicore replication: measuring an expected makespan to tight
   confidence needs many independent executions, and OCaml 5 domains run
   them in parallel with bit-identical results (the per-replication
   generators are derived deterministically, independent of the domain
   layout).

   Run with: dune exec examples/parallel_sweep.exe *)

module W = Suu_workload.Workload
module Table = Suu_util.Table

let time_it f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, Unix.gettimeofday () -. t0)

let () =
  let inst =
    W.independent (W.Volunteers { reliable_fraction = 0.2 }) ~n:96 ~m:12
      ~seed:5
  in
  let reps = 200 in
  Printf.printf "workload: %s, %d replications of greedy\n"
    (Suu_core.Instance.name inst)
    reps;
  Printf.printf "recommended domains on this machine: %d\n\n"
    (Domain.recommended_domain_count ());
  let policy = Suu_core.Baselines.greedy_completion inst in
  let seq, t_seq =
    time_it (fun () ->
        Suu_sim.Runner.makespans ~jobs:1 inst policy ~seed:31 ~reps)
  in
  let table =
    Table.create ~header:[ "domains"; "time (s)"; "speedup"; "identical" ]
  in
  Table.add_row table
    [ "sequential"; Table.fmt_g t_seq; "1"; "-" ];
  List.iter
    (fun domains ->
      let par, t_par =
        time_it (fun () ->
            Suu_sim.Runner.makespans ~jobs:domains inst policy ~seed:31
              ~reps)
      in
      Table.add_row table
        [ string_of_int domains; Table.fmt_g t_par;
          Table.fmt_g (t_seq /. t_par);
          (if par = seq then "yes" else "NO") ])
    [ 1; 2; 4; 8 ];
  Table.print table;
  print_newline ();
  print_endline
    "Results are bit-identical at every domain count; speedup tracks the\n\
     physical core count (on a single-core container, extra domains only\n\
     add scheduling overhead).";
  let s = Suu_stats.Summary.of_array seq in
  Printf.printf "\nE[T] = %.2f ± %.2f over %d traces\n"
    s.Suu_stats.Summary.mean s.Suu_stats.Summary.ci95 reps
