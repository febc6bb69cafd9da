module P = Protocol
module Instance = Suu_core.Instance
module Classify = Suu_dag.Classify

(* Cooperative deadline enforcement: raised at a check point, mapped to
   a structured [timeout] reply in {!handle}. *)
exception Expired

(* One cached instance: the canonical-serialization digest keys it,
   policies materialize lazily per wire name so their internal plan
   caches survive across requests, and the [lower_bound] reply fields
   are kept once computed.  The bound is a function of the instance and
   the service's fixed solver alone; an [Atomic] slot rather than a
   [Lazy], since two domains forcing one [lazy] at once raise. *)
type entry = {
  inst : Instance.t;
  policies : (string, Suu_core.Policy.t) Hashtbl.t;
  elock : Mutex.t;
  bound : (string * string) list option Atomic.t;
}

type t = {
  lock : Mutex.t;
  cache : (string, entry) Hashtbl.t;
  order : string Queue.t; (* insertion order, FIFO eviction *)
  capacity : int;
  sim_jobs : int;
  solver : Suu_core.Solver_choice.t option;
  extra_stats : (unit -> (string * string) list) option;
  metrics : Metrics.t;
  clock_ns : unit -> int64;
}

(* Deadlines are absolute monotonic instants (ns), never wall clock:
   an NTP step or DST jump must not expire every queued request at once
   (or make them immortal).  The clock is injectable for tests. *)
let check t ~deadline =
  match deadline with
  | Some d when Int64.compare (t.clock_ns ()) d > 0 -> raise Expired
  | _ -> ()

let create ?(instance_cache_capacity = 64) ?sim_jobs ?solver ?extra_stats
    ?(clock_ns = Suu_obs.Clock.now_ns) ~metrics () =
  if instance_cache_capacity < 1 then
    invalid_arg "Service.create: instance_cache_capacity must be >= 1";
  (* Resolve the simulate fan-out once: a bad [sim_jobs] or [SUU_JOBS]
     is the operator's misconfiguration and must stop start-up, not be
     answered as every client's [bad_request]. *)
  let sim_jobs =
    match sim_jobs with
    | Some k when k < 1 -> invalid_arg "Service.create: sim_jobs must be >= 1"
    | Some k -> k
    | None -> Suu_sim.Parallel.default_jobs ()
  in
  (* The online family registers itself on demand; a server must be
     able to answer policy=lzf/backfill whether or not anything else
     referenced [Suu_sched] first. *)
  Suu_sched.Register.ensure ();
  { lock = Mutex.create (); cache = Hashtbl.create 64;
    order = Queue.create (); capacity = instance_cache_capacity; sim_jobs;
    solver; extra_stats; metrics; clock_ns }

let entry_for t inst =
  (* Same digest as Protocol.instance_digest / shard routing. *)
  let digest = Suu_core.Instance_io.digest inst in
  Mutex.lock t.lock;
  let e =
    match Hashtbl.find_opt t.cache digest with
    | Some e -> e
    | None ->
        while Hashtbl.length t.cache >= t.capacity do
          match Queue.take_opt t.order with
          | Some k -> Hashtbl.remove t.cache k
          | None -> Hashtbl.reset t.cache
        done;
        let e =
          { inst; policies = Hashtbl.create 4; elock = Mutex.create ();
            bound = Atomic.make None }
        in
        Hashtbl.add t.cache digest e;
        Queue.add digest t.order;
        e
  in
  Mutex.unlock t.lock;
  e

(* --- policy dispatch (one registry for server, CLI and bench) --- *)

module Registry = Suu_core.Policy_registry

let shape inst = Classify.classify (Instance.dag inst)

(* Shape validation happens in the registry rather than being left to
   the engine's Invalid_schedule: the client gets "inapplicable", not
   "policy bug". *)
let build_policy ?solver name inst =
  match Registry.build ?solver name inst with
  | Result.Ok _ as ok -> ok
  | Result.Error (`Unknown msg) | Result.Error (`Inapplicable msg) ->
      Result.Error (P.Bad_request, msg)

let get_policy t inst name =
  let e = entry_for t inst in
  Mutex.lock e.elock;
  let r =
    match Hashtbl.find_opt e.policies name with
    | Some p -> Result.Ok p
    | None -> (
        (* Build against the cached instance value, so every request
           with this digest shares one policy (and one plan cache). *)
        match build_policy ?solver:t.solver name e.inst with
        | Result.Ok p ->
            Hashtbl.add e.policies name p;
            Result.Ok p
        | Result.Error _ as err -> err)
  in
  Mutex.unlock e.elock;
  r

(* --- request bodies --- *)

let f17 = Suu_core.Instance_io.float17

let applicable_policies inst = Registry.applicable inst

let describe inst =
  [ ("name", Instance.name inst);
    ("machines", string_of_int (Instance.m inst));
    ("jobs", string_of_int (Instance.n inst));
    ("edges",
     string_of_int (List.length (Suu_dag.Dag.edges (Instance.dag inst))));
    ("shape", Classify.describe (shape inst));
    ("policies", String.concat " " (applicable_policies inst)) ]

let lower_bound t ~deadline inst =
  let module LB = Suu_core.Lower_bound in
  let e = entry_for t inst in
  match Atomic.get e.bound with
  | Some fields -> fields
  | None ->
      let inst = e.inst in
      let cp = LB.critical_path inst in
      let work = LB.work inst in
      check t ~deadline;
      let lp = LB.lp1_half ?solver:t.solver inst in
      let fields =
        [ ("lp1_half", f17 lp); ("critical_path", f17 cp);
          ("work", f17 work);
          ("combined",
           f17 (Float.max 1.0 (Float.max lp (Float.max cp work)))) ]
      in
      (* Two requests racing here compute the same fields. *)
      Atomic.set e.bound (Some fields);
      fields

(* An LP-free policy answers without ever probing the plan cache; count
   the request as an explicit bypass so the no-LP traffic share is
   visible and the hit-rate denominator stays LP-only. *)
let note_bypass name =
  if Registry.lp_free name then Suu_core.Plan_cache.note_bypass ()

let plan t ~deadline inst name ~seed =
  match get_policy t inst name with
  | Result.Error _ as e -> e
  | Result.Ok policy ->
      note_bypass name;
      let m = Instance.m inst and n = Instance.n inst in
      let trace_rng, policy_rng = (Suu_sim.Runner.rep_rngs ~seed ~reps:1).(0) in
      let trace = Suu_sim.Trace.draw ~n trace_rng in
      let busy = Array.make m 0 in
      let on_step ~time ~assignment =
        if time land 4095 = 0 then check t ~deadline;
        Array.iteri
          (fun i j -> if j >= 0 then busy.(i) <- busy.(i) + 1)
          assignment
      in
      let r = Suu_sim.Engine.run inst policy ~trace ~rng:policy_rng ~on_step in
      let mk = float_of_int (max 1 r.Suu_sim.Engine.makespan) in
      Result.Ok
        [ ("policy", Suu_core.Policy.name policy);
          ("seed", string_of_int seed);
          ("makespan", string_of_int r.Suu_sim.Engine.makespan);
          ("busy_steps", string_of_int r.Suu_sim.Engine.busy_steps);
          ("wasted_steps", string_of_int r.Suu_sim.Engine.wasted_steps);
          ("idle_steps", string_of_int r.Suu_sim.Engine.idle_steps);
          ("utilization",
           String.concat " "
             (Array.to_list
                (Array.map (fun b -> f17 (float_of_int b /. mk)) busy))) ]

(* Replication batches between deadline checks: small enough that an
   expired request stops within a bounded slice of extra work, large
   enough that the domain fan-out amortizes. *)
let sim_batch = 32

let simulate t ~deadline inst name ~reps ~seed =
  match get_policy t inst name with
  | Result.Error _ as e -> e
  | Result.Ok policy ->
      note_bypass name;
      let rngs = Suu_sim.Runner.rep_rngs ~seed ~reps in
      let results = Array.make reps 0.0 in
      let lo = ref 0 in
      while !lo < reps do
        check t ~deadline;
        let hi = min reps (!lo + sim_batch) in
        (* Bit-identical for every [sim_jobs], hence for every server
           worker count: see {!Suu_sim.Runner.run_range}. *)
        Suu_sim.Runner.run_range ~jobs:t.sim_jobs inst policy ~rngs results
          ~lo:!lo ~hi;
        lo := hi
      done;
      let s = Suu_stats.Summary.of_array results in
      Result.Ok
        [ ("policy", Suu_core.Policy.name policy);
          ("reps", string_of_int reps);
          ("seed", string_of_int seed);
          ("mean", f17 s.Suu_stats.Summary.mean);
          ("stddev", f17 s.Suu_stats.Summary.stddev);
          ("ci95", f17 s.Suu_stats.Summary.ci95);
          ("min", f17 s.Suu_stats.Summary.min);
          ("max", f17 s.Suu_stats.Summary.max) ]

let stats_fields t =
  let module PC = Suu_core.Plan_cache in
  let pc = PC.global_stats () in
  Mutex.lock t.lock;
  let entries = Hashtbl.length t.cache in
  Mutex.unlock t.lock;
  (* Per-shard hit rates next to the global one: raw counts live in the
     obs.* snapshot below; the precomputed rates are what an operator
     (and the bench gate) actually watches, and skew across shards is
     how a bad key distribution would show up. *)
  let shard_rates =
    Array.to_list
      (Array.mapi
         (fun i s ->
           (Printf.sprintf "plan_cache_shard%d_hit_rate" i,
            f17 (PC.hit_rate s)))
         (PC.shard_stats ()))
  in
  Metrics.render t.metrics
  @ [ ("plan_cache_hits", string_of_int pc.PC.hits);
      ("plan_cache_misses", string_of_int pc.PC.misses);
      ("plan_cache_evictions", string_of_int pc.PC.evictions);
      ("plan_cache_bypass", string_of_int (PC.bypasses ()));
      ("plan_cache_hit_rate", f17 (PC.hit_rate pc));
      ("solver",
       Suu_core.Solver_choice.name
         (Option.value t.solver ~default:Suu_core.Solver_choice.default));
      ("instance_cache_entries", string_of_int entries) ]
  @ shard_rates
  @ (match t.extra_stats with Some f -> f () | None -> [])
  (* Full process-wide observability snapshot: every registry counter
     and per-phase latency quantiles.  Prefixed "obs." so clients can
     show the classic summary by default and the firehose on demand. *)
  @ Suu_obs.Registry.render ()

(* Warm-start from a recovered journal: re-populate the instance cache
   and materialize the policies the journaled requests named, without
   executing anything.  Building a policy never moves the plan-cache
   statistics — {!Suu_core.Plan_cache} counters fire only when
   [plan ()] runs during execution, and the one eager builder
   ({!Suu_core.Suu_i_obl}) goes through the uncounted
   {!Suu_core.Plan_cache.shared_plan} — so booting warm cannot inflate
   the hit/miss statistics a client later reads from [stats].
   [store.warm_start.loaded] counts the bodies that contributed to the
   caches instead. *)
let c_warm_loaded = Suu_obs.Registry.memo_counter "store.warm_start.loaded"

let warm t body =
  let loaded =
    match body with
    | P.Stats -> false
    | P.Describe inst | P.Lower_bound inst ->
        ignore (entry_for t inst);
        true
    | P.Plan { inst; policy; _ } | P.Simulate { inst; policy; _ } -> (
        match get_policy t inst policy with
        | Result.Ok _ -> true
        | Result.Error _ ->
            (* Unknown/inapplicable policy: the instance itself is
               still worth caching (entry_for ran inside get_policy). *)
            true)
  in
  if loaded then Suu_obs.Counter.incr (c_warm_loaded ());
  loaded

let handle t ?deadline body =
  try
    check t ~deadline;
    match body with
    | P.Stats -> Result.Ok (stats_fields t)
    | P.Describe inst -> Result.Ok (describe inst)
    | P.Lower_bound inst -> Result.Ok (lower_bound t ~deadline inst)
    | P.Plan { inst; policy; seed } -> plan t ~deadline inst policy ~seed
    | P.Simulate { inst; policy; reps; seed } ->
        simulate t ~deadline inst policy ~reps ~seed
  with
  | Expired -> Result.Error (P.Timeout, "deadline exceeded")
  | Suu_sim.Engine.Invalid_schedule msg ->
      Result.Error (P.Internal, "policy violated the model: " ^ msg)
  | Suu_sim.Engine.Horizon_exceeded cap ->
      Result.Error
        (P.Bad_request,
         Printf.sprintf "execution exceeded the %d-step cap" cap)
  | Invalid_argument msg | Failure msg -> Result.Error (P.Bad_request, msg)
