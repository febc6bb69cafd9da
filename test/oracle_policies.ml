(* Differential oracles: straightforward list-based versions of the
   greedy, round-robin and serial baselines and of the EASY backfill
   stepper.  They allocate and scan O(n * m) per step, which keeps them
   easy to check against their definitions; test_oracle.ml checks the
   production steppers against them step by step.  Not on any
   production path. *)

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
