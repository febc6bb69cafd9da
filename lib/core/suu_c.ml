type stats = {
  mutable supersteps : int;
  mutable max_congestion : int;
  mutable total_congestion : int;
  mutable sem_invocations : int;
  mutable sem_steps : int;
}

let new_stats () =
  {
    supersteps = 0;
    max_congestion = 0;
    total_congestion = 0;
    sem_invocations = 0;
    sem_steps = 0;
  }

type prepared = {
  assignment : Assignment.t;
  lp_value : float;
  gamma : int;
  load : int;
  long_jobs : int list;
  chains : Suu_dag.Chains.t;
}

let prepare ?top_machines ?solver inst ~chains =
  let frac = Lp2.solve ?top_machines ?solver inst ~chains in
  let assignment = Lp2.round inst frac in
  let m = Instance.m inst in
  let covered = Suu_dag.Chains.total_jobs chains in
  let gamma =
    max 1
      (Mathx.ceil_pos (frac.Lp2.value /. Mathx.log2 (float_of_int (covered + m))))
  in
  let long_jobs = ref [] in
  List.iter
    (fun chain ->
      Array.iter
        (fun j ->
          if Assignment.job_length assignment j > gamma then
            long_jobs := j :: !long_jobs)
        chain)
    chains;
  (* Load over short jobs only: long jobs never enter the pseudoschedule. *)
  let is_long = Array.make (Instance.n inst) false in
  List.iter (fun j -> is_long.(j) <- true) !long_jobs;
  let load = ref 1 in
  for i = 0 to m - 1 do
    let acc = ref 0 in
    for j = 0 to Instance.n inst - 1 do
      if not is_long.(j) then acc := !acc + Assignment.get assignment i j
    done;
    if !acc > !load then load := !acc
  done;
  {
    assignment;
    lp_value = frac.Lp2.value;
    gamma;
    load = !load;
    long_jobs = List.rev !long_jobs;
    chains;
  }

(* Per-chain program item. *)
type item = Short of int | Pause of int

type mode =
  | Need_superstep
  | Flatten  (** running the current superstep's queues, one row per step *)
  | Sem  (** a SUU-I-SEM run on the long jobs whose pauses started *)

(* One execution.  Nothing here is reallocated per step: the superstep
   queues, the flattened row and the chain cursors are filled in place,
   and a SEM run only replaces [sem] and [targets] at a segment
   boundary. *)
type exec = {
  item : int array;  (* per chain: index of its current program item *)
  offset : int array;
      (* per chain: supersteps into the item.  [offset = gamma] on a
         pause means the pause has elapsed and the chain is waiting for
         its long job. *)
  delays : int array;
  mutable superstep : int;
  mutable mode : mode;
  qjobs : int array;
      (* per-machine queues of this superstep's jobs, in chain order:
         machine [i]'s occupies [qoff.(i) ..], [qlen.(i)] of them *)
  qlen : int array;
  mutable duration : int;  (* the superstep's flattened length *)
  mutable tstep : int;  (* flattened steps already run *)
  buf : int array;  (* the row returned for a flattened step *)
  mutable sem : Policy.stepper;
  mutable targets : int array;  (* the SEM run's jobs, long_jobs order *)
  mutable live : int;
      (* index of the first remaining target: [remaining] only goes from
         true to false, so it only moves forward, and the run is over
         when it reaches the end *)
  pending : int array;  (* scratch for the next SEM run's targets *)
  pause_started : bool array;
      (* per long job, indexed like [long_jobs]: its pause has begun *)
}

let no_sem ~time:_ ~remaining:_ ~eligible:_ = [||]

let policy_of_prepared ?solver ?stats ?(random_delays = true)
    ?(delay_granularity = 1) inst prep =
  if delay_granularity < 1 then
    invalid_arg "Suu_c: delay_granularity must be >= 1";
  let m = Instance.m inst in
  let n = Instance.n inst in
  let chain_arr = Array.of_list prep.chains in
  let nchains = Array.length chain_arr in
  let long_jobs = Array.of_list prep.long_jobs in
  (* Per job: its index in [long_jobs], or -1 for a short job. *)
  let long_slot = Array.make n (-1) in
  Array.iteri (fun k j -> long_slot.(j) <- k) long_jobs;
  (* Per job: its length and its [(machine, x_ij)] pairs as two arrays. *)
  let d = Array.make n 1 in
  let mach = Array.make n [||] in
  let xs = Array.make n [||] in
  Array.iter
    (fun chain ->
      Array.iter
        (fun j ->
          d.(j) <- max 1 (Assignment.job_length prep.assignment j);
          let pairs =
            Array.of_list (Assignment.machines_of_job prep.assignment j)
          in
          mach.(j) <- Array.map fst pairs;
          xs.(j) <- Array.map snd pairs)
        chain)
    chain_arr;
  let items =
    Array.map
      (fun chain ->
        Array.map
          (fun j -> if long_slot.(j) >= 0 then Pause j else Short j)
          chain)
      chain_arr
  in
  (* Queue capacity per machine: a chain requests at most one job per
     superstep, so machine [i] queues at most one job from each chain
     with a short job that uses [i]. *)
  let qoff = Array.make (m + 1) 0 in
  let last_chain = Array.make m (-1) in
  Array.iteri
    (fun c prog ->
      Array.iter
        (function
          | Pause _ -> ()
          | Short j ->
              Array.iter
                (fun i ->
                  if last_chain.(i) <> c then begin
                    last_chain.(i) <- c;
                    qoff.(i + 1) <- qoff.(i + 1) + 1
                  end)
                mach.(j))
        prog)
    items;
  for i = 0 to m - 1 do
    qoff.(i + 1) <- qoff.(i + 1) + qoff.(i)
  done;
  (* One plan-cache handle for every SEM run of every execution: a
     handle pins the instance and solver half of the key, and building
     one (digest lookup, key prefix, its hash) costs 0.6-1.2 us and 83
     minor words, against a few steps per segment on small instances. *)
  let cache = Plan_cache.create ?solver inst in
  (* The stats sink is shared by every stepper of this policy value, and
     steppers may run concurrently (parallel runner) — serialize updates. *)
  let stats_lock = Mutex.create () in
  let record_superstep duration =
    match stats with
    | None -> ()
    | Some s ->
        Mutex.lock stats_lock;
        s.supersteps <- s.supersteps + 1;
        s.total_congestion <- s.total_congestion + duration;
        if duration > s.max_congestion then s.max_congestion <- duration;
        Mutex.unlock stats_lock
  in
  let record_sem ~invocation =
    match stats with
    | None -> ()
    | Some s ->
        Mutex.lock stats_lock;
        if invocation then s.sem_invocations <- s.sem_invocations + 1
        else s.sem_steps <- s.sem_steps + 1;
        Mutex.unlock stats_lock
  in
  let fresh rng =
    (* Delays are drawn on a lattice of [delay_granularity] supersteps —
       the paper's coarsening device for nonpolynomial t_LP2 reduces the
       number of distinct delay values the same way. *)
    let delays =
      let g = delay_granularity in
      let slots = (prep.load / g) + 1 in
      Array.init nchains (fun _ ->
          if random_delays then g * Suu_prng.Rng.int rng slots else 0)
    in
    let ex =
      {
        item = Array.make nchains 0;
        offset = Array.make nchains 0;
        delays;
        superstep = 0;
        mode = Need_superstep;
        qjobs = Array.make qoff.(m) 0;
        qlen = Array.make m 0;
        duration = 0;
        tstep = 0;
        buf = Array.make m (-1);
        sem = no_sem;
        targets = [||];
        live = 0;
        pending = Array.make (Array.length long_jobs) 0;
        pause_started = Array.make (Array.length long_jobs) false;
      }
    in
    (* Advance every chain by one superstep (called after the superstep's
       flattened timesteps have run). *)
    let advance_chains ~remaining =
      for c = 0 to nchains - 1 do
        let prog = items.(c) in
        let it = ex.item.(c) in
        if ex.superstep >= ex.delays.(c) && it < Array.length prog then begin
          let off = ex.offset.(c) in
          match prog.(it) with
          | Short j ->
              if off + 1 >= d.(j) then begin
                (* Block over: next item, or repeat it if [j] failed. *)
                ex.offset.(c) <- 0;
                if not remaining.(j) then ex.item.(c) <- it + 1
              end
              else ex.offset.(c) <- off + 1
          | Pause j ->
              if not remaining.(j) then begin
                ex.item.(c) <- it + 1;
                ex.offset.(c) <- 0
              end
              else if off < prep.gamma then ex.offset.(c) <- off + 1
              (* offset = gamma: pause elapsed, wait for the SEM runs. *)
        end
      done;
      ex.superstep <- ex.superstep + 1
    in
    (* Started and still pending long jobs into [ex.pending], in
       [long_jobs] order; returns how many. *)
    let pending_long ~remaining =
      let k = ref 0 in
      for s = 0 to Array.length long_jobs - 1 do
        let j = long_jobs.(s) in
        if ex.pause_started.(s) && remaining.(j) then begin
          ex.pending.(!k) <- j;
          incr k
        end
      done;
      !k
    in
    let rec step ~time ~remaining ~eligible =
      match ex.mode with
      | Sem ->
          let t = ex.targets in
          while ex.live < Array.length t && not remaining.(t.(ex.live)) do
            ex.live <- ex.live + 1
          done;
          if ex.live < Array.length t then begin
            record_sem ~invocation:false;
            ex.sem ~time ~remaining ~eligible
          end
          else begin
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
      | Need_superstep ->
          (* Segment boundary: run SUU-I-SEM on pending long jobs. *)
          if ex.superstep > 0 && ex.superstep mod prep.gamma = 0 then begin
            let k = pending_long ~remaining in
            if k = 0 then build_superstep ~time ~remaining ~eligible
            else begin
              record_sem ~invocation:true;
              let targets = Array.sub ex.pending 0 k in
              ex.targets <- targets;
              ex.live <- 0;
              ex.sem <- Suu_i_sem.stepper cache ~jobs:targets inst;
              ex.mode <- Sem;
              step ~time ~remaining ~eligible
            end
          end
          else build_superstep ~time ~remaining ~eligible
      | Flatten ->
          if ex.tstep < ex.duration then begin
            let t = ex.tstep in
            for i = 0 to m - 1 do
              ex.buf.(i) <-
                (if t < ex.qlen.(i) then ex.qjobs.(qoff.(i) + t) else -1)
            done;
            ex.tstep <- t + 1;
            ex.buf
          end
          else begin
            advance_chains ~remaining;
            ex.mode <- Need_superstep;
            step ~time ~remaining ~eligible
          end
    and build_superstep ~time ~remaining ~eligible =
      (* Each started chain requests its current short job on the
         machines whose block covers this superstep; a pause marks its
         start instead. *)
      Array.fill ex.qlen 0 m 0;
      let congestion = ref 0 in
      for c = 0 to nchains - 1 do
        let prog = items.(c) in
        let it = ex.item.(c) in
        if ex.superstep >= ex.delays.(c) && it < Array.length prog then begin
          let off = ex.offset.(c) in
          match prog.(it) with
          | Short j ->
              if remaining.(j) then begin
                let ms = mach.(j) and xj = xs.(j) in
                for k = 0 to Array.length ms - 1 do
                  if xj.(k) > off then begin
                    let i = ms.(k) in
                    let len = ex.qlen.(i) + 1 in
                    ex.qjobs.(qoff.(i) + len - 1) <- j;
                    ex.qlen.(i) <- len;
                    if len > !congestion then congestion := len
                  end
                done
              end
          | Pause j ->
              if off = 0 && remaining.(j) then
                ex.pause_started.(long_slot.(j)) <- true
        end
      done;
      let duration = max 1 !congestion in
      record_superstep duration;
      ex.duration <- duration;
      ex.tstep <- 0;
      ex.mode <- Flatten;
      step ~time ~remaining ~eligible
    in
    step
  in
  Policy.make ~name:"suu-c" ~fresh

let policy ?solver ?top_machines ?stats ?random_delays ?delay_granularity
    inst =
  match Suu_dag.Chains.of_dag (Instance.dag inst) with
  | None -> invalid_arg "Suu_c.policy: precedence dag is not disjoint chains"
  | Some chains ->
      let prep = prepare ?top_machines ?solver inst ~chains in
      policy_of_prepared ?solver ?stats ?random_delays ?delay_granularity
        inst prep
