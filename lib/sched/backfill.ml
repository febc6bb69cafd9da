module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Ready = Suu_core.Ready

type event =
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

let policy ?width ?on_event inst =
  let m = Instance.m inst and n = Instance.n inst in
  let digest = Suu_core.Instance_io.digest inst in
  let widths =
    Array.init n (fun j ->
        let cap = capable_count inst j in
        match width with
        | None -> max 1 (min cap (max 1 (m / 2)))
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
  (* No candidate narrower than this can start: with fewer machines
     free the backfill scan is skipped. *)
  let min_width = Array.fold_left min max_int widths in
  let model = Predictor.model inst in
  let order = Ready.index_order (Instance.dag inst) in
  Policy.make ~name:"backfill" ~fresh:(fun rng ->
      let pred =
        Predictor.of_model model
          ~seed:(Predictor.execution_seed ~digest ~policy:"backfill" rng)
      in
      (* All state is per-execution: steppers run concurrently.  The
         FCFS queue is the ready set in index order. *)
      let ready = Ready.create order in
      let queue = Ready.jobs ready in
      let machine_of = Array.make m (-1) in
      let running = Array.make n false in
      let bfilled = Array.make n false in
      let started = Array.make n (-1) in
      (* Reservation scratch: the machines reserved for the head, and
         the FCFS-running jobs (at most one per machine) sorted by
         predicted completion, then index. *)
      let reserved = Array.make m false in
      let by_pc = Array.make m 0 and pcs = Array.make m 0 in
      let listed = Array.make n false in
      (* Running backfilled jobs: while there are none, the head's
         view [virt] is the same as [free]. *)
      let nbf = ref 0 in
      let stop j =
        running.(j) <- false;
        if bfilled.(j) then begin
          bfilled.(j) <- false;
          decr nbf
        end
      in
      let free_job j =
        for i = 0 to m - 1 do
          if machine_of.(i) = j then machine_of.(i) <- -1
        done;
        stop j
      in
      let free i = machine_of.(i) = -1 in
      let free_unreserved i = machine_of.(i) = -1 && not reserved.(i) in
      (* The head's view treats machines held by backfilled jobs as
         free: backfill must never delay it. *)
      let virt i =
        let j = machine_of.(i) in
        j = -1 || bfilled.(j)
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
      (* Run [j] on the [w] machines in [out]. *)
      let start ~time ~backfilled j w =
        for k = 0 to w - 1 do
          machine_of.(out.(k)) <- j
        done;
        running.(j) <- true;
        bfilled.(j) <- backfilled;
        if backfilled then incr nbf;
        started.(j) <- time;
        match on_event with
        | None -> ()
        | Some f -> f (Started { job = j; time; backfilled })
      in
      let predicted_total j = Predictor.predicted_steps pred j in
      (* The head's reservation: walk FCFS-running jobs by predicted
         completion until [h]'s width [w_h] is covered, marking the
         machines they hold in [reserved]; the last one needed sets
         the shadow time, which is returned.  Every running job holds
         a machine, so [machine_of] lists them all. *)
      let reserve ~time h w_h =
        let have = pick h m virt in
        Array.fill reserved 0 m false;
        for k = 0 to have - 1 do
          reserved.(out.(k)) <- true
        done;
        let nrun = ref 0 in
        for i = 0 to m - 1 do
          let j = machine_of.(i) in
          if j >= 0 && (not bfilled.(j)) && not listed.(j) then begin
            listed.(j) <- true;
            let elapsed = time - started.(j) in
            let p = time + Int.max 1 (predicted_total j - elapsed) in
            let k = ref !nrun in
            while
              !k > 0
              && (pcs.(!k - 1) > p
                 || (pcs.(!k - 1) = p && by_pc.(!k - 1) > j))
            do
              by_pc.(!k) <- by_pc.(!k - 1);
              pcs.(!k) <- pcs.(!k - 1);
              decr k
            done;
            by_pc.(!k) <- j;
            pcs.(!k) <- p;
            incr nrun
          end
        done;
        let cap_h = capable_mask.(h) in
        let acc = ref have and shadow = ref max_int in
        for k = 0 to !nrun - 1 do
          let j = by_pc.(k) in
          listed.(j) <- false;
          if !acc < w_h then begin
            let got = ref 0 in
            for i = 0 to m - 1 do
              if machine_of.(i) = j && cap_h.(i) then begin
                reserved.(i) <- true;
                incr got
              end
            done;
            if !got > 0 then begin
              acc := !acc + !got;
              shadow := pcs.(k)
            end
          end
        done;
        !shadow
      in
      (* Completion feedback: the engine reveals finished jobs by
         dropping them from [remaining], and only a running job can
         finish.  One pass over the machines frees them; then each
         job's actual runtime corrects the predictor, in ascending job
         index. *)
      let done_jobs = Array.make m 0 in
      let complete ~time ~remaining =
        let nd = ref 0 in
        for i = 0 to m - 1 do
          let j = machine_of.(i) in
          if j >= 0 && not remaining.(j) then begin
            machine_of.(i) <- -1;
            (* Listed at its first machine only. *)
            if running.(j) then begin
              running.(j) <- false;
              let k = ref !nd in
              while !k > 0 && done_jobs.(!k - 1) > j do
                done_jobs.(!k) <- done_jobs.(!k - 1);
                decr k
              done;
              done_jobs.(!k) <- j;
              incr nd
            end
          end
        done;
        for k = 0 to !nd - 1 do
          let j = done_jobs.(k) in
          Predictor.observe pred ~job:j ~runtime:(time - started.(j));
          stop j
        done
      in
      let buf = Array.make m (-1) in
      (* Scheduling passes: each pass either starts the FCFS head
         (possibly preempting backfilled jobs) and rescans, or
         backfills behind the head's reservation and stops.  At most
         one FCFS start per pass, so <= n passes.  Leaves the row in
         [buf]. *)
      let schedule ~time =
        let e = Ready.size ready in
        let continue_passes = ref true in
        while !continue_passes do
          continue_passes := false;
          (* FCFS head: the first queued job not currently running. *)
          let hk = ref 0 in
          while !hk < e && running.(queue.(!hk)) do
            incr hk
          done;
          if !hk < e then begin
            let hk = !hk in
            let h = queue.(hk) in
            let w_h = widths.(h) in
            if
              pick h w_h free = w_h || (!nbf > 0 && pick h w_h virt = w_h)
            then begin
              (* Preempt the backfilled jobs holding the chosen
                 machines; there are none when enough were free. *)
              for k = 0 to w_h - 1 do
                let j = machine_of.(out.(k)) in
                if j >= 0 && bfilled.(j) then begin
                  (match on_event with
                  | None -> ()
                  | Some f -> f (Preempted { job = j; time }));
                  free_job j
                end
              done;
              start ~time ~backfilled:false h w_h;
              continue_passes := true
            end
            else begin
              (* Conservative backfill into the hole, FCFS order: fit
                 on non-reserved machines, or predict completion by the
                 shadow time.  Every queued job before the head is
                 running, a candidate needs [w_c] free machines, and
                 the scan ends when fewer than the narrowest width are
                 left.  Only the scan reads the reservation, so it is
                 built only when the scan will run. *)
              let nfree = ref 0 in
              for i = 0 to m - 1 do
                if machine_of.(i) = -1 then incr nfree
              done;
              if !nfree >= min_width && hk + 1 < e then begin
                let shadow = reserve ~time h w_h in
                let c = ref (hk + 1) in
                while !nfree >= min_width && !c < e do
                  let c' = queue.(!c) in
                  if not running.(c') then begin
                    let w_c = widths.(c') in
                    if
                      w_c <= !nfree
                      && (pick c' w_c free_unreserved = w_c
                         || (time + predicted_total c' <= shadow
                            && pick c' w_c free = w_c))
                    then begin
                      start ~time ~backfilled:true c' w_c;
                      nfree := !nfree - w_c
                    end
                  end;
                  incr c
                done
              end
            end
          end
        done;
        Array.blit machine_of 0 buf 0 m
      in
      fun ~time ~remaining ~eligible ->
        (* Only a completion changes the ready set.  Without one, the
           passes would find the same head blocked the same way and
           start nothing: a free machine the head can use is always
           reserved, and a step later the shadow time grows by at most
           the one step every candidate's predicted completion grows
           by.  So the previous row stands. *)
        if Ready.sync ready ~prev:buf ~remaining ~eligible then begin
          complete ~time ~remaining;
          schedule ~time
        end;
        buf)
