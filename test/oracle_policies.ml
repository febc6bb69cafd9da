(* Differential oracles: straightforward list-based versions of the
   greedy, round-robin and serial baselines, of the LZF and EASY
   backfill steppers, and of the SUU-I-SEM, SUU-C and SUU-T steppers.
   They allocate and scan O(n * m) per step (the paper steppers also build a
   plan-cache handle per SEM run and list queues per superstep), which
   keeps them easy to check against their definitions; test_oracle.ml
   checks the production steppers against them step by step.  Not on
   any production path. *)

module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Predictor = Suu_sched.Predictor

let active_jobs ~remaining ~eligible =
  let acc = ref [] in
  for j = Array.length remaining - 1 downto 0 do
    if remaining.(j) && eligible.(j) then acc := j :: !acc
  done;
  !acc

let greedy_completion inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  (* Scratch lives in the stepper, not the policy value: steppers from
     one policy may run concurrently on different domains. *)
  Policy.make ~name:"greedy" ~fresh:(fun _rng ->
      let survival = Array.make n 1.0 in
      let buf = Array.make m (-1) in
      fun ~time:_ ~remaining ~eligible ->
        let active = active_jobs ~remaining ~eligible in
        List.iter (fun j -> survival.(j) <- 1.0) active;
        for i = 0 to m - 1 do
          let best = ref (-1) and best_gain = ref 0.0 in
          List.iter
            (fun j ->
              let gain = survival.(j) *. (1.0 -. Instance.q inst i j) in
              if gain > !best_gain then begin
                best_gain := gain;
                best := j
              end)
            active;
          buf.(i) <- !best;
          if !best >= 0 then
            survival.(!best) <- survival.(!best) *. Instance.q inst i !best
        done;
        buf)

let round_robin inst =
  let m = Instance.m inst in
  Policy.make ~name:"round-robin" ~fresh:(fun _rng ->
      let buf = Array.make m (-1) in
      fun ~time ~remaining ~eligible ->
        let active = Array.of_list (active_jobs ~remaining ~eligible) in
        let e = Array.length active in
        for i = 0 to m - 1 do
          buf.(i) <- (if e = 0 then -1 else active.((time + i) mod e))
        done;
        buf)

let serial inst =
  let m = Instance.m inst in
  let idle = Array.make m (-1) in
  Policy.make ~name:"serial" ~fresh:(fun _rng ->
      fun ~time:_ ~remaining ~eligible ->
        match active_jobs ~remaining ~eligible with
        | [] -> idle
        | j :: _ -> Array.make m j)

(* The LZF stepper as it was before its ready set: every step collects
   the eligible remaining jobs by a pass over all [n] in Z order. *)
let z_ratio inst j =
  let q = Instance.q inst (Instance.best_machine inst j) j in
  if q <= 0.0 then infinity else (1.0 -. q) /. q

let lzf inst =
  let m = Instance.m inst and n = Instance.n inst in
  let z = Array.init n (fun j -> z_ratio inst j) in
  (* Rank once: Z descending, index ascending on ties — the whole
     ordering is data-independent, so replays can never diverge. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare z.(b) z.(a) with 0 -> compare a b | c -> c)
    order;
  (* Per-job machine ranking, precomputed: capable machines (l > 0)
     sorted by l descending, index ascending on ties.  The hot loop
     then walks plain int arrays — no per-step [log]. *)
  let mrank =
    Array.init n (fun j ->
        let ms =
          List.filter
            (fun i -> Instance.log_failure inst i j > 0.0)
            (List.init m Fun.id)
        in
        let ms =
          List.sort
            (fun a b ->
              match
                Float.compare
                  (Instance.log_failure inst b j)
                  (Instance.log_failure inst a j)
              with
              | 0 -> compare a b
              | c -> c)
            ms
        in
        Array.of_list ms)
  in
  Policy.make ~name:"lzf" ~fresh:(fun _rng ->
      (* Scratch per stepper: executions run concurrently on domains. *)
      let buf = Array.make m (-1) in
      let active = Array.make n 0 in
      let mfree = Array.make m true in
      fun ~time:_ ~remaining ~eligible ->
        let k = ref 0 in
        Array.iter
          (fun j ->
            if remaining.(j) && eligible.(j) then begin
              active.(!k) <- j;
              incr k
            end)
          order;
        Array.fill buf 0 m (-1);
        if !k > 0 then begin
          Array.fill mfree 0 m true;
          let nfree = ref m in
          (* Passes over the ranked jobs, one machine per job per pass:
             machines spread across high-Z jobs first, then stack.  A
             pass that assigns nothing means every free machine has
             q = 1 on every active job — idle the rest. *)
          let progress = ref true in
          while !nfree > 0 && !progress do
            progress := false;
            for idx = 0 to !k - 1 do
              if !nfree > 0 then begin
                let j = active.(idx) in
                (* First free machine in rank order = best free. *)
                let ms = mrank.(j) in
                let c = Array.length ms in
                let p = ref 0 in
                while !p < c && not mfree.(ms.(!p)) do
                  incr p
                done;
                if !p < c then begin
                  let i = ms.(!p) in
                  buf.(i) <- j;
                  mfree.(i) <- false;
                  decr nfree;
                  progress := true
                end
              end
            done
          done
        end;
        buf)

type event = Suu_sched.Backfill.event =
  | Started of { job : int; time : int; backfilled : bool }
  | Preempted of { job : int; time : int }

let capable inst i j = Instance.q inst i j < 1.0

let capable_count inst j =
  let m = Instance.m inst in
  let c = ref 0 in
  for i = 0 to m - 1 do
    if capable inst i j then incr c
  done;
  !c

let default_width inst j =
  min (capable_count inst j) (max 1 (Instance.m inst / 2))

let backfill ?width ?on_event inst =
  let m = Instance.m inst and n = Instance.n inst in
  let digest =
    Digest.string (Suu_core.Instance_io.to_string inst)
  in
  let widths =
    Array.init n (fun j ->
        let cap = capable_count inst j in
        match width with
        | None -> max 1 (default_width inst j)
        | Some w -> min cap (max 1 (w j)))
  in
  (* Per-job machine ranking (capable machines by l descending, index
     ascending) and capability mask, precomputed so the hot path never
     calls [log]. *)
  let mrank =
    Array.init n (fun j ->
        Array.of_list
          (List.sort
             (fun a b ->
               match
                 Float.compare
                   (Instance.log_failure inst b j)
                   (Instance.log_failure inst a j)
               with
               | 0 -> compare a b
               | c -> c)
             (List.filter
                (fun i -> capable inst i j)
                (List.init m Fun.id))))
  in
  let capable_mask =
    Array.init n (fun j ->
        Array.init m (fun i -> capable inst i j))
  in
  let emit e = match on_event with None -> () | Some f -> f e in
  Policy.make ~name:"backfill" ~fresh:(fun rng ->
      let pred =
        Predictor.create inst
          ~seed:(Predictor.execution_seed ~digest ~policy:"backfill" rng)
      in
      (* All state is per-execution: steppers run concurrently. *)
      let machine_of = Array.make m (-1) in
      let running = Array.make n false in
      let bfilled = Array.make n false in
      let started = Array.make n (-1) in
      let prev_remaining = Array.make n false in
      let first = ref true in
      let free_job j =
        for i = 0 to m - 1 do
          if machine_of.(i) = j then machine_of.(i) <- -1
        done;
        running.(j) <- false;
        bfilled.(j) <- false
      in
      (* Pick [w] capable machines for [j] from those where [ok i],
         best (highest l_ij) first, ties to the lowest index; returns
         the count found, filling [out.(0 .. count-1)]. *)
      let out = Array.make m (-1) in
      let pick j w ok =
        let ms = mrank.(j) in
        let c = Array.length ms in
        let count = ref 0 and p = ref 0 in
        while !count < w && !p < c do
          let i = ms.(!p) in
          if ok i then begin
            out.(!count) <- i;
            incr count
          end;
          incr p
        done;
        !count
      in
      let predicted_total j = int_of_float (Float.ceil (Predictor.predict pred j)) in
      let buf = Array.make m (-1) in
      fun ~time ~remaining ~eligible ->
        if !first then begin
          Array.blit remaining 0 prev_remaining 0 n;
          first := false
        end
        else begin
          (* Completion feedback: the engine reveals finished jobs by
             dropping them from [remaining]; diffing gives the actual
             runtime the predictor corrects itself with. *)
          for j = 0 to n - 1 do
            if prev_remaining.(j) && not remaining.(j) then begin
              if running.(j) && started.(j) >= 0 then
                Predictor.observe pred ~job:j ~runtime:(time - started.(j));
              free_job j
            end
          done;
          Array.blit remaining 0 prev_remaining 0 n
        end;
        (* Scheduling passes: each pass either starts the FCFS head
           (possibly preempting backfilled jobs) and rescans, or
           computes the head's reservation, backfills behind it and
           stops.  At most one FCFS start per pass, so <= n passes. *)
        let continue_passes = ref true in
        while !continue_passes do
          continue_passes := false;
          (* FCFS head: lowest-index eligible remaining job not
             currently running. *)
          let h = ref (-1) in
          (try
             for j = 0 to n - 1 do
               if remaining.(j) && eligible.(j) && not running.(j) then begin
                 h := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !h >= 0 then begin
            let h = !h in
            let w_h = widths.(h) in
            let start_on count =
              for k = 0 to count - 1 do
                machine_of.(out.(k)) <- h
              done;
              running.(h) <- true;
              bfilled.(h) <- false;
              started.(h) <- time;
              emit (Started { job = h; time; backfilled = false });
              continue_passes := true
            in
            let free i = machine_of.(i) = -1 in
            if pick h w_h free = w_h then start_on w_h
            else begin
              (* The head's view treats machines held by backfilled
                 jobs as free: backfill must never delay it. *)
              let virt i =
                machine_of.(i) = -1
                || (let j = machine_of.(i) in j >= 0 && bfilled.(j))
              in
              if pick h w_h virt = w_h then begin
                for k = 0 to w_h - 1 do
                  let j = machine_of.(out.(k)) in
                  if j >= 0 && bfilled.(j) then begin
                    emit (Preempted { job = j; time });
                    free_job j
                  end
                done;
                start_on w_h
              end
              else begin
                (* Reservation: walk FCFS-running jobs by predicted
                   completion until the head's width is covered; the
                   last one needed sets the shadow time. *)
                let have = pick h m virt in
                let reserved = Array.make m false in
                for k = 0 to have - 1 do
                  reserved.(out.(k)) <- true
                done;
                let fcfs =
                  List.filter
                    (fun j -> running.(j) && not bfilled.(j))
                    (List.init n Fun.id)
                in
                let pc j =
                  let elapsed = time - started.(j) in
                  time + max 1 (predicted_total j - elapsed)
                in
                let by_pc =
                  List.sort
                    (fun a b ->
                      match compare (pc a) (pc b) with
                      | 0 -> compare a b
                      | c -> c)
                    fcfs
                in
                let acc = ref have and shadow = ref max_int in
                List.iter
                  (fun j ->
                    if !acc < w_h then begin
                      let got = ref 0 in
                      for i = 0 to m - 1 do
                        if machine_of.(i) = j && capable_mask.(h).(i)
                        then begin
                          reserved.(i) <- true;
                          incr got
                        end
                      done;
                      if !got > 0 then begin
                        acc := !acc + !got;
                        shadow := pc j
                      end
                    end)
                  by_pc;
                let shadow = !shadow in
                (* Conservative backfill into the hole, FCFS order:
                   fit on non-reserved machines, or predict completion
                   by the shadow time. *)
                for c = 0 to n - 1 do
                  if
                    c <> h && remaining.(c) && eligible.(c)
                    && not running.(c)
                  then begin
                    let w_c = widths.(c) in
                    let free i = machine_of.(i) = -1 in
                    let free_unreserved i = free i && not reserved.(i) in
                    let chosen =
                      if pick c w_c free_unreserved = w_c then w_c
                      else if
                        time + predicted_total c <= shadow
                        && pick c w_c free = w_c
                      then w_c
                      else 0
                    in
                    if chosen = w_c then begin
                      for k = 0 to w_c - 1 do
                        machine_of.(out.(k)) <- c
                      done;
                      running.(c) <- true;
                      bfilled.(c) <- true;
                      started.(c) <- time;
                      emit (Started { job = c; time; backfilled = true })
                    end
                  end
                done
              end
            end
          end
        done;
        Array.blit machine_of 0 buf 0 m;
        buf)

(* --- SUU-I-SEM, SUU-C and SUU-T --- *)

module Plan_cache = Suu_core.Plan_cache
module Oblivious = Suu_core.Oblivious
module Mathx = Suu_core.Mathx
module Assignment = Suu_core.Assignment
module Suu_c = Suu_core.Suu_c

type sem_mode = Rounds | Repeat_last | Serial

type sem_state = {
  mutable mode : sem_mode;
  mutable round : int;
  mutable plan : Oblivious.t option;
  mutable pos : int;
}

let sem ?solver ?jobs inst =
  let m = Instance.m inst in
  let scope =
    match jobs with
    | Some js -> Array.copy js
    | None -> Array.init (Instance.n inst) (fun j -> j)
  in
  let nscope = Array.length scope in
  if nscope = 0 then invalid_arg "Oracle_policies.sem: empty job subset";
  let k_max = Mathx.rounds_k ~n:nscope ~m in
  let idle = Array.make m (-1) in
  let cache = Plan_cache.create ?solver inst in
  let fresh _rng =
    let st = { mode = Rounds; round = 1; plan = None; pos = 0 } in
    let survivors remaining =
      Array.of_list (List.filter (fun j -> remaining.(j)) (Array.to_list scope))
    in
    let start_round remaining =
      let js = survivors remaining in
      if Array.length js = 0 then None
      else Some (Plan_cache.plan cache ~round:st.round ~survivors:js)
    in
    let rec step ~time ~remaining ~eligible =
      match st.mode with
      | Serial -> (
          let job = Array.find_opt (fun j -> remaining.(j)) scope in
          match job with
          | None -> idle
          | Some j -> Array.make m j)
      | Repeat_last -> (
          match st.plan with
          | None -> idle
          | Some plan ->
              let h = Oblivious.horizon plan in
              let a = Oblivious.assignment_at plan (st.pos mod h) in
              st.pos <- st.pos + 1;
              a)
      | Rounds -> (
          (match st.plan with
          | Some _ -> ()
          | None ->
              st.plan <- start_round remaining;
              st.pos <- 0);
          match st.plan with
          | None -> idle
          | Some plan ->
              if st.pos < Oblivious.horizon plan then begin
                let a = Oblivious.assignment_at plan st.pos in
                st.pos <- st.pos + 1;
                a
              end
              else if st.round < k_max then begin
                st.round <- st.round + 1;
                st.plan <- None;
                step ~time ~remaining ~eligible
              end
              else begin
                if nscope <= m then st.mode <- Serial
                else begin
                  st.mode <- Repeat_last;
                  st.pos <- 0
                end;
                step ~time ~remaining ~eligible
              end)
    in
    step
  in
  Policy.make ~name:"suu-i-sem" ~fresh

type item = Short of int | Pause of int
type cursor = { mutable item : int; mutable offset : int }

type c_mode =
  | Flatten of { queues : int array array; duration : int; mutable tstep : int }
  | Need_superstep
  | Sem of { step : Policy.stepper; targets : int list }

type exec = {
  cursors : cursor array;
  delays : int array;
  mutable superstep : int;
  mutable mode : c_mode;
  pause_started : bool array;
}

let suu_c_of_prepared ?solver ?stats ?(random_delays = true)
    ?(delay_granularity = 1) inst (prep : Suu_c.prepared) =
  let m = Instance.m inst in
  let n = Instance.n inst in
  let chain_arr = Array.of_list prep.chains in
  let nchains = Array.length chain_arr in
  let is_long = Array.make n false in
  List.iter (fun j -> is_long.(j) <- true) prep.long_jobs;
  let d = Array.make n 1 in
  let machines_of = Array.make n [] in
  Array.iter
    (fun chain ->
      Array.iter
        (fun j ->
          d.(j) <- max 1 (Assignment.job_length prep.assignment j);
          machines_of.(j) <- Assignment.machines_of_job prep.assignment j)
        chain)
    chain_arr;
  let items =
    Array.map
      (fun chain ->
        Array.map (fun j -> if is_long.(j) then Pause j else Short j) chain)
      chain_arr
  in
  let stats_lock = Mutex.create () in
  let with_stats f =
    match stats with
    | None -> ()
    | Some s ->
        Mutex.lock stats_lock;
        f s;
        Mutex.unlock stats_lock
  in
  let record_superstep duration =
    with_stats (fun (s : Suu_c.stats) ->
        s.supersteps <- s.supersteps + 1;
        s.total_congestion <- s.total_congestion + duration;
        if duration > s.max_congestion then s.max_congestion <- duration)
  in
  let fresh rng =
    let delays =
      let g = delay_granularity in
      let slots = (prep.load / g) + 1 in
      Array.init nchains (fun _ ->
          if random_delays then g * Suu_prng.Rng.int rng slots else 0)
    in
    let ex =
      {
        cursors = Array.init nchains (fun _ -> { item = 0; offset = 0 });
        delays;
        superstep = 0;
        mode = Need_superstep;
        pause_started = Array.make n false;
      }
    in
    let chain_requests c ~remaining =
      let cur = ex.cursors.(c) in
      let prog = items.(c) in
      if ex.superstep < ex.delays.(c) || cur.item >= Array.length prog then
        None
      else
        match prog.(cur.item) with
        | Short j ->
            if remaining.(j) then begin
              let ms =
                List.filter_map
                  (fun (i, xij) -> if xij > cur.offset then Some i else None)
                  machines_of.(j)
              in
              Some (j, ms)
            end
            else None
        | Pause j ->
            if cur.offset = 0 && remaining.(j) then ex.pause_started.(j) <- true;
            None
    in
    let advance_chains ~remaining =
      for c = 0 to nchains - 1 do
        let cur = ex.cursors.(c) in
        let prog = items.(c) in
        if ex.superstep >= ex.delays.(c) && cur.item < Array.length prog then begin
          match prog.(cur.item) with
          | Short j ->
              if cur.offset + 1 >= d.(j) then begin
                if remaining.(j) then cur.offset <- 0
                else begin
                  cur.item <- cur.item + 1;
                  cur.offset <- 0
                end
              end
              else cur.offset <- cur.offset + 1
          | Pause j ->
              if not remaining.(j) then begin
                cur.item <- cur.item + 1;
                cur.offset <- 0
              end
              else if cur.offset < prep.gamma then cur.offset <- cur.offset + 1
        end
      done;
      ex.superstep <- ex.superstep + 1
    in
    let pending_long ~remaining =
      List.filter (fun j -> ex.pause_started.(j) && remaining.(j))
        prep.long_jobs
    in
    let rec step ~time ~remaining ~eligible =
      match ex.mode with
      | Sem { step = inner; targets } ->
          if List.exists (fun j -> remaining.(j)) targets then begin
            with_stats (fun s -> s.sem_steps <- s.sem_steps + 1);
            inner ~time ~remaining ~eligible
          end
          else begin
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
      | Need_superstep ->
          if ex.superstep > 0 && ex.superstep mod prep.gamma = 0 then begin
            match pending_long ~remaining with
            | [] -> build_superstep ~time ~remaining ~eligible
            | targets ->
                with_stats (fun s ->
                    s.sem_invocations <- s.sem_invocations + 1);
                let inner_policy = sem ?solver ~jobs:(Array.of_list targets) inst in
                ex.mode <-
                  Sem { step = Policy.fresh inner_policy rng; targets };
                step ~time ~remaining ~eligible
          end
          else build_superstep ~time ~remaining ~eligible
      | Flatten f ->
          if f.tstep < f.duration then begin
            let buf = Array.make m (-1) in
            for i = 0 to m - 1 do
              let q = f.queues.(i) in
              if f.tstep < Array.length q then buf.(i) <- q.(f.tstep)
            done;
            f.tstep <- f.tstep + 1;
            buf
          end
          else begin
            advance_chains ~remaining;
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
    and build_superstep ~time ~remaining ~eligible =
      let queues = Array.make m [] in
      let congestion = ref 0 in
      for c = 0 to nchains - 1 do
        match chain_requests c ~remaining with
        | None -> ()
        | Some (j, ms) ->
            List.iter
              (fun i ->
                queues.(i) <- j :: queues.(i);
                let len = List.length queues.(i) in
                if len > !congestion then congestion := len)
              ms
      done;
      let duration = max 1 !congestion in
      record_superstep duration;
      ex.mode <-
        Flatten
          {
            queues = Array.map (fun l -> Array.of_list (List.rev l)) queues;
            duration;
            tstep = 0;
          };
      step ~time ~remaining ~eligible
    in
    fun ~time ~remaining ~eligible -> step ~time ~remaining ~eligible
  in
  Policy.make ~name:"suu-c" ~fresh

let suu_t ?solver ?top_machines inst =
  let stages =
    Array.map
      (fun chains ->
        let prep = Suu_c.prepare ?top_machines ?solver inst ~chains in
        (chains, suu_c_of_prepared ?solver inst prep))
      (Suu_core.Suu_t.blocks inst)
  in
  let m = Instance.m inst in
  let idle = Array.make m (-1) in
  let fresh rng =
    let stage = ref 0 in
    let stepper = ref None in
    let block_done remaining chains =
      List.for_all
        (fun chain -> Array.for_all (fun j -> not remaining.(j)) chain)
        chains
    in
    let rec step ~time ~remaining ~eligible =
      if !stage >= Array.length stages then idle
      else begin
        let chains, pol = stages.(!stage) in
        if block_done remaining chains then begin
          stage := !stage + 1;
          stepper := None;
          step ~time ~remaining ~eligible
        end
        else begin
          let s =
            match !stepper with
            | Some s -> s
            | None ->
                let s = Policy.fresh pol rng in
                stepper := Some s;
                s
          in
          s ~time ~remaining ~eligible
        end
      end
    in
    step
  in
  Policy.make ~name:"suu-t" ~fresh
