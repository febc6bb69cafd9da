module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Ready = Suu_core.Ready

let z_ratio inst j =
  let q = Instance.q inst (Instance.best_machine inst j) j in
  if q <= 0.0 then infinity else (1.0 -. q) /. q

let policy inst =
  let m = Instance.m inst and n = Instance.n inst in
  let z = Array.init n (fun j -> z_ratio inst j) in
  (* Rank once: Z descending, index ascending on ties — the whole
     ordering is data-independent, so replays can never diverge. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare z.(b) z.(a) with 0 -> compare a b | c -> c)
    order;
  let order = Ready.order (Instance.dag inst) order in
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
      let mfree = Array.make m true in
      let ready = Ready.create order in
      let active = Ready.jobs ready in
      let fill () =
        let k = Ready.size ready in
        Array.fill buf 0 m (-1);
        if k > 0 then begin
          Array.fill mfree 0 m true;
          let nfree = ref m in
          (* Passes over the ranked jobs, one machine per job per pass:
             machines spread across high-Z jobs first, then stack.  A
             pass that assigns nothing means every free machine has
             q = 1 on every active job — idle the rest. *)
          let progress = ref true in
          while !nfree > 0 && !progress do
            progress := false;
            let idx = ref 0 in
            while !nfree > 0 && !idx < k do
              let j = active.(!idx) in
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
              end;
              incr idx
            done
          done
        end
      in
      fun ~time:_ ~remaining ~eligible ->
        (* The row is a function of the ready set alone, so while the
           set holds still the previous row is this step's row. *)
        if Ready.sync ready ~prev:buf ~remaining ~eligible then fill ();
        buf)
