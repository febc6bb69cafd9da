(* Writes the eligible remaining jobs into [active] in index order and
   returns their count. *)
let active_jobs ~remaining ~eligible active =
  let e = ref 0 in
  for j = 0 to Array.length remaining - 1 do
    if remaining.(j) && eligible.(j) then begin
      active.(!e) <- j;
      incr e
    end
  done;
  !e

(* Machine [i] takes the ready job of largest gain [s_j * (1 - q_ij)],
   ties to the lower index, gain > 0.  A job no earlier machine picked
   this step has [s_j = 1], so its gain is [1 - q_ij] exactly; the best
   of those is the first ready unpicked entry of machine [i]'s ranking
   by [1 - q_ij] descending, then index.  Only the <= m already-picked
   jobs need their gain recomputed.  The ready set is kept in index
   order from the previous row, and each machine's cursor skips the
   ranking's prefix of jobs that have left [remaining] for good, so a
   step costs O(m * (m + w)) plus the set's update, where [w] is each
   machine's walk or scan (at most twice the ready count), and
   allocates nothing.  The row is a function of the ready set, so a
   step after one with no completion returns the previous row. *)
let greedy_completion inst =
  let m = Instance.m inst in
  let n = Instance.n inst in
  (* Rows of q copied out of the instance: reading them through
     [Instance.q] in the loop boxed one float per machine. *)
  let q = Array.init m (fun i -> Array.init n (Instance.q inst i)) in
  let gain = Array.map (Array.map (fun qij -> 1.0 -. qij)) q in
  let rank =
    Array.init m (fun i ->
        let g = gain.(i) in
        List.init n Fun.id
        |> List.filter (fun j -> g.(j) > 0.0)
        |> List.sort (fun a b ->
               match Float.compare g.(b) g.(a) with 0 -> compare a b | c -> c)
        |> Array.of_list)
  in
  let order = Ready.index_order (Instance.dag inst) in
  (* Scratch lives in the stepper, not the policy value: steppers from
     one policy may run concurrently on different domains. *)
  Policy.make ~name:"greedy" ~fresh:(fun _rng ->
      let survival = Array.make n 1.0 in
      let picked = Array.make n false in
      let picks = Array.make m 0 in
      let cursor = Array.make m 0 in
      let ready = Ready.create order in
      let active = Ready.jobs ready in
      let buf = Array.make m (-1) in
      let fill ~remaining ~eligible =
        let e = Ready.size ready in
        let nrem = Ready.remaining ready in
        let np = ref 0 in
        for i = 0 to m - 1 do
          let g = gain.(i) in
          (* The best unpicked job.  Walking the ranking passes about
             [nrem / e] remaining jobs per ready one, and may pass the
             [np] picked ones before it finds an unpicked one; scanning
             the ready set costs [e].  So walk, for at most [e]
             entries, only while [(np + 1) * nrem / e <= e]; scan the
             ready set otherwise, or when the walk ends empty-handed. *)
          let best = ref (-1) and scan = ref true in
          if (!np + 1) * nrem <= e * e then begin
            let r = rank.(i) in
            let len = Array.length r in
            let k = ref cursor.(i) in
            while !k < len && not remaining.(r.(!k)) do
              incr k
            done;
            cursor.(i) <- !k;
            let lim = min len (!k + e) in
            while !best < 0 && !k < lim do
              let j = r.(!k) in
              if remaining.(j) && eligible.(j) && not picked.(j) then best := j;
              incr k
            done;
            scan := !best < 0 && lim < len
          end;
          if !scan then begin
            let best_gain = ref 0.0 in
            for k = 0 to e - 1 do
              let j = active.(k) in
              if (not picked.(j)) && g.(j) > !best_gain then begin
                best_gain := g.(j);
                best := j
              end
            done
          end;
          let best_gain = ref (if !best >= 0 then g.(!best) else 0.0) in
          for k = 0 to !np - 1 do
            let j = picks.(k) in
            let gj = survival.(j) *. g.(j) in
            if gj > !best_gain || (gj = !best_gain && gj > 0.0 && j < !best)
            then begin
              best_gain := gj;
              best := j
            end
          done;
          let b = !best in
          buf.(i) <- b;
          if b >= 0 then begin
            if not picked.(b) then begin
              picked.(b) <- true;
              picks.(!np) <- b;
              incr np
            end;
            survival.(b) <- survival.(b) *. q.(i).(b)
          end
        done;
        for k = 0 to !np - 1 do
          let j = picks.(k) in
          picked.(j) <- false;
          survival.(j) <- 1.0
        done
      in
      fun ~time:_ ~remaining ~eligible ->
        (* The row is a function of the ready set alone, so while the
           set holds still the previous row is this step's row. *)
        if Ready.sync ready ~prev:buf ~remaining ~eligible then
          fill ~remaining ~eligible;
        buf)

let round_robin inst =
  let m = Instance.m inst and n = Instance.n inst in
  Policy.make ~name:"round-robin" ~fresh:(fun _rng ->
      let active = Array.make n 0 in
      let buf = Array.make m (-1) in
      fun ~time ~remaining ~eligible ->
        let e = active_jobs ~remaining ~eligible active in
        for i = 0 to m - 1 do
          buf.(i) <- (if e = 0 then -1 else active.((time + i) mod e))
        done;
        buf)

let serial inst =
  let m = Instance.m inst and n = Instance.n inst in
  Policy.make ~name:"serial" ~fresh:(fun _rng ->
      let buf = Array.make m (-1) in
      fun ~time:_ ~remaining ~eligible ->
        let j = ref 0 in
        while !j < n && not (remaining.(!j) && eligible.(!j)) do
          incr j
        done;
        Array.fill buf 0 m (if !j < n then !j else -1);
        buf)

(* Greedy coverage with a per-machine budget of [t] steps: feed the
   neediest job with the strongest remaining machine step until every job
   reaches [target] clipped mass, or budgets run dry. *)
let greedy_fill inst ~target ~t =
  let m = Instance.m inst and n = Instance.n inst in
  let x = Array.make_matrix m n 0 in
  let mass = Array.make n 0.0 in
  let budget = Array.make m t in
  let ell i j = Instance.clipped_log_failure inst ~target i j in
  let exhausted = ref false in
  let all_covered () =
    Array.for_all (fun v -> v >= target -. 1e-12) mass
  in
  while (not (all_covered ())) && not !exhausted do
    (* neediest uncovered job *)
    let j = ref (-1) in
    for j' = n - 1 downto 0 do
      if mass.(j') < target -. 1e-12
         && (!j = -1 || mass.(j') < mass.(!j))
      then j := j'
    done;
    let i = ref (-1) in
    for i' = 0 to m - 1 do
      if budget.(i') > 0 && ell i' !j > 0.0
         && (!i = -1 || ell i' !j > ell !i !j)
      then i := i'
    done;
    if !i = -1 then exhausted := true
    else begin
      x.(!i).(!j) <- x.(!i).(!j) + 1;
      budget.(!i) <- budget.(!i) - 1;
      mass.(!j) <- mass.(!j) +. ell !i !j
    end
  done;
  if !exhausted then None else Some (Assignment.make x)

let greedy_oblivious_assignment ?(target = 0.5) inst =
  let rec search t =
    match greedy_fill inst ~target ~t with
    | Some a -> a
    | None -> search (2 * t)
  in
  search 1

let greedy_oblivious ?target inst =
  let plan =
    Oblivious.of_assignment (greedy_oblivious_assignment ?target inst)
  in
  let h = Oblivious.horizon plan in
  Policy.make ~name:"greedy-oblivious" ~fresh:(fun _rng ->
      fun ~time ~remaining:_ ~eligible:_ ->
        Oblivious.assignment_at plan (time mod h))
