type mode =
  | Rounds  (** executing the current round's oblivious plan *)
  | Repeat_last  (** m < n tail: cycle the round-K plan *)
  | Serial  (** n <= m tail: all machines on one job at a time *)

type state = {
  mutable mode : mode;
  mutable round : int;
  mutable plan : Oblivious.t option;
  mutable pos : int;
  mutable first_live : int;
      (* Serial: index into the scope of the first remaining job.
         [remaining] only goes from true to false, so it only moves up. *)
  mutable serial_buf : int array;  (* Serial: the returned row *)
}

let stepper cache ~jobs:scope inst =
  let m = Instance.m inst in
  let nscope = Array.length scope in
  if nscope = 0 then invalid_arg "Suu_i_sem.stepper: empty job subset";
  let k_max = Mathx.rounds_k ~n:nscope ~m in
  let idle = Array.make m (-1) in
  let st =
    { mode = Rounds; round = 1; plan = None; pos = 0; first_live = 0;
      serial_buf = [||] }
  in
  (* The round's survivors in scope order, as an exact-length key: the
     scope itself when nothing finished, else a filtered copy. *)
  let start_round remaining =
    let live = ref 0 in
    for s = 0 to nscope - 1 do
      if remaining.(scope.(s)) then incr live
    done;
    if !live = 0 then None
    else begin
      let survivors =
        if !live = nscope then scope
        else begin
          let a = Array.make !live 0 and k = ref 0 in
          for s = 0 to nscope - 1 do
            if remaining.(scope.(s)) then begin
              a.(!k) <- scope.(s);
              incr k
            end
          done;
          a
        end
      in
      Some (Plan_cache.plan cache ~round:st.round ~survivors)
    end
  in
  let rec step ~time ~remaining ~eligible =
    match st.mode with
    | Serial ->
        (* One remaining scoped job at a time, all machines on it. *)
        while st.first_live < nscope && not remaining.(scope.(st.first_live)) do
          st.first_live <- st.first_live + 1
        done;
        if st.first_live >= nscope then idle
        else begin
          let j = scope.(st.first_live) in
          if st.serial_buf.(0) <> j then Array.fill st.serial_buf 0 m j;
          st.serial_buf
        end
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
              (* Tail phase after round K. *)
              if nscope <= m then begin
                st.mode <- Serial;
                st.serial_buf <- Array.make m (-1)
              end
              else begin
                st.mode <- Repeat_last;
                st.pos <- 0
              end;
              step ~time ~remaining ~eligible
            end)
  in
  step

let policy ?solver ?jobs inst =
  let scope =
    match jobs with
    | Some js -> Array.copy js
    | None -> Array.init (Instance.n inst) (fun j -> j)
  in
  if Array.length scope = 0 then
    invalid_arg "Suu_i_sem.policy: empty job subset";
  (* Round plans depend only on (round, survivor set) — not the trace —
     so one cache in the policy value serves every replication (and
     every domain driving this policy concurrently). *)
  let cache = Plan_cache.create ?solver inst in
  Policy.make ~name:"suu-i-sem" ~fresh:(fun _rng ->
      stepper cache ~jobs:scope inst)
