let default_jobs () =
  match Sys.getenv_opt "SUU_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          invalid_arg
            (Printf.sprintf "SUU_JOBS must be a positive integer, got %S" s))

(* Aim for several chunks per worker so the tail balances, without
   grinding the atomic counter on tiny items. *)
let auto_chunk ~jobs ~n = max 1 (n / (4 * jobs))

(* Chunked dynamic scheduling over [0, n): workers claim chunk indices
   from a shared atomic counter, so uneven per-item costs (simulations
   whose makespans differ wildly) still balance.  The caller's domain is
   always a worker, so [jobs = 1] spawns nothing; the body writes only
   to disjoint result slots, so no further synchronization is needed. *)
let c_items = Suu_obs.Registry.memo_counter "parallel.items"

let run_chunks ~jobs ~n body =
  if n > 0 then begin
    let obs = Suu_obs.Registry.enabled () in
    let jobs = max 1 (min jobs n) in
    let chunk = auto_chunk ~jobs ~n in
    let nchunks = (n + chunk - 1) / chunk in
    let next = Atomic.make 0 in
    (* Spawned domains start with no ambient span; re-root their
       per-worker spans under the caller's so a trace shows the fan-out
       nested inside whatever phase requested it. *)
    let parent = Suu_obs.Span.current () in
    let worker () =
      let run () =
        let t0 = if obs then Suu_obs.Clock.now_ns () else 0L in
        let mine = ref 0 in
        let rec loop () =
          let c = Atomic.fetch_and_add next 1 in
          if c < nchunks then begin
            let lo = c * chunk in
            let hi = min n (lo + chunk) in
            for i = lo to hi - 1 do
              body i
            done;
            mine := !mine + (hi - lo);
            loop ()
          end
        in
        loop ();
        if obs then begin
          Suu_obs.Counter.add (c_items ()) !mine;
          Suu_obs.Span.record ~name:"parallel.worker" ?parent
            ~attrs:[ ("items", string_of_int !mine) ]
            ~start_ns:t0
            ~stop_ns:(Suu_obs.Clock.now_ns ())
            ()
        end
      in
      Suu_obs.Span.with_ambient parent run
    in
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* Every spawned domain must be joined on every exit path.  If the
       caller's inline [worker ()] raises and we unwind without
       joining, the spawned domains keep running against buffers the
       caller believes it owns again — and their slots leak unjoined.
       The [finally] block therefore joins unconditionally, swallowing
       nothing: the first exception a join surfaces is kept and
       rethrown once the inline worker's own outcome is known (the
       inline exception, being first, wins). *)
    let join_failure = ref None in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun d ->
            try Domain.join d
            with e -> if !join_failure = None then join_failure := Some e)
          spawned)
      worker;
    match !join_failure with Some e -> raise e | None -> ()
  end

let parallel_for ?jobs ~n f =
  let jobs = match jobs with Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Parallel.parallel_for: jobs must be positive"
    | None -> default_jobs ()
  in
  run_chunks ~jobs ~n f
