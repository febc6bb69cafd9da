(* The LP1 → Lemma-2 rounding → oblivious-serialization pipeline is a
   pure function of (instance, solver, round, survivor set): the target
   is L_k = 2^(k-2) from the round alone, and nothing in the pipeline
   sees the trace.  Policies that are oblivious within a round — the
   SUU-I family — recompute identical plans on every replication, and a
   resident server replays the same deterministic request bodies over
   and over; memoizing here turns the per-replication LP cost into a
   per-survivor-set one.

   Plans live in one process-global sharded store, keyed by content —
   (instance digest, solver, round, survivor set) — not by which policy
   value asked.  Two policy values built against equal instances (the
   server rebuilds policies whenever its instance cache evicts) share
   every plan, and the store's capacity is sized for a whole process
   rather than fragmented per policy.  Eviction is segmented LRU: each
   lookup stamps its entry with the shard's logical clock, and an
   overfull shard drops the least-recently-used half — a hot key (the
   round-1 full-survivor plan recurs on every replication) is re-stamped
   constantly and survives, where the old insertion-order clear-half
   dropped exactly the oldest-inserted (hottest) entries first. *)

type stats = { hits : int; misses : int; evictions : int }

let hit_rate { hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* Process-wide aggregates: the server's stats endpoint wants the sum
   over every shard and every private cache.  They live in the Obs
   registry so one [stats] scrape sees them next to the span histograms
   they explain.  A counted lookup bumps one of these and, on the
   global store, its shard's registry counter: there is no other
   tally. *)
let g_hits = Suu_obs.Registry.memo_counter "plan_cache.hits"
let g_misses = Suu_obs.Registry.memo_counter "plan_cache.misses"
let g_evictions = Suu_obs.Registry.memo_counter "plan_cache.evictions"

(* LP-free policies (lzf, backfill, the greedy baselines) never consult
   the store; the server notes each such request here so operators can
   see the no-LP traffic share, and so the serve hit-rate gate knows the
   hit/miss denominator excludes these requests by construction. *)
let g_bypasses = Suu_obs.Registry.memo_counter "plan_cache.bypass"
let note_bypass () = Suu_obs.Counter.incr (g_bypasses ())
let bypasses () = Suu_obs.Counter.get (g_bypasses ())

type entry = { plan : Oblivious.t; mutable tick : int }

(* The lookup key, kept structural: policies look a plan up at every
   round start of every replication, so building a serialized key
   string there (one Buffer, ~65 boxed [Int32.t]s, a full-string hash
   and memcmp per probe) dominated the served hit — ~20us against a
   ~1us table probe.  A [pkey] costs one 4-word record: the prefix
   string is physically shared by all of a handle's lookups and its
   hash is precomputed at handle creation, and the survivor array is
   borrowed (only copied if the key is actually inserted). *)
type pkey = {
  prefix : string; (* instance digest ^ solver name ^ '\000' *)
  phash : int; (* hash of [prefix], precomputed per handle *)
  round : int;
  survivors : int array;
}

module Key = struct
  type t = pkey

  let equal a b =
    a.round = b.round
    && (a.prefix == b.prefix || String.equal a.prefix b.prefix)
    && a.survivors = b.survivors

  (* Allocation-free, and samples the whole survivor range: the
     polymorphic [Hashtbl.hash] caps at 10 meaningful words, which
     collides survivor sets sharing a 10-element prefix — common, since
     sets shrink from the low-numbered jobs up. *)
  let hash k =
    let s = k.survivors in
    let n = Array.length s in
    let h = ref ((k.phash lxor (k.round * 0x1000193)) + n) in
    let step = if n <= 16 then 1 else n / 16 in
    let i = ref 0 in
    while !i < n do
      h := (!h * 0x01000193) lxor s.(!i);
      i := !i + step
    done;
    if n > 0 then h := (!h * 0x01000193) lxor s.(n - 1);
    !h land max_int
end

module KH = Hashtbl.Make (Key)

type stats_counters = {
  c_hits : Suu_obs.Counter.t;
  c_misses : Suu_obs.Counter.t;
  c_evictions : Suu_obs.Counter.t;
}

type shard = {
  slock : Mutex.t;
  table : entry KH.t;
  capacity : int;
  mutable clock : int;
  obs : stats_counters option; (* per-shard counters, global store only *)
}

type store = { shards : shard array (* length is a power of two *) }

let make_shard ~capacity ~obs =
  { slock = Mutex.create (); table = KH.create 64; capacity; clock = 0; obs }

let num_global_shards = 8
let global_capacity = 32_768

(* Surfacing per-shard traffic in obs.* (registered once, on first use
   of the global store): hit/miss/eviction counts per shard, from which
   a scrape derives per-shard rates — skew across shards is how a bad
   key distribution would show up.  The store is built under a mutex
   rather than as a [lazy]: SUU-C builds cache handles inside Runner
   domains, and two domains forcing one [lazy] at once raise. *)
let make_global_store () =
  { shards =
      Array.init num_global_shards (fun i ->
          let c what =
            Suu_obs.Registry.counter
              (Printf.sprintf "plan_cache.shard%d.%s" i what)
          in
          make_shard
            ~capacity:(global_capacity / num_global_shards)
            ~obs:
              (Some
                 { c_hits = c "hits"; c_misses = c "misses";
                   c_evictions = c "evictions" })) }

let global_cell = Atomic.make None
let global_lock = Mutex.create ()

let global_store () =
  match Atomic.get global_cell with
  | Some st -> st
  | None ->
      Mutex.protect global_lock (fun () ->
          match Atomic.get global_cell with
          | Some st -> st
          | None ->
              let st = make_global_store () in
              Atomic.set global_cell (Some st);
              st)

type t = {
  solver : Solver_choice.t option;
  inst : Instance.t;
  key_prefix : string; (* instance digest ^ solver name ^ '\000' *)
  key_phash : int;
  store : store;
}

let key_prefix ?solver inst =
  let digest = Instance_io.digest inst in
  let solver = Option.value solver ~default:Solver_choice.default in
  (* The digest is fixed-width and the solver name never contains a NUL,
     so the prefix is decodable and the whole key injective. *)
  digest ^ Solver_choice.name solver ^ "\000"

let create ?solver ?max_entries inst =
  let store =
    match max_entries with
    | None -> global_store ()
    | Some me ->
        if me <= 0 then
          invalid_arg "Plan_cache.create: max_entries must be positive";
        (* A private single-shard store: tests exercise eviction with a
           tiny bound, and a handle that must not share state (isolated
           experiments) opts out of the global store by bounding it. *)
        { shards = [| make_shard ~capacity:me ~obs:None |] }
  in
  let prefix = key_prefix ?solver inst in
  { solver; inst; key_prefix = prefix; key_phash = Hashtbl.hash prefix;
    store }

let shard_of store khash = store.shards.(khash land (Array.length store.shards - 1))

(* --- the plan pipeline --- *)

let fresh_plan ?solver inst ~round ~survivors =
  if Array.length survivors = 0 then
    invalid_arg "Plan_cache.fresh_plan: empty survivor set";
  Suu_obs.Span.with_span "plan_cache.solve" (fun () ->
      let target = Mathx.target_for_round round in
      let { Lp1.x; value } = Lp1.solve ?solver inst ~jobs:survivors ~target in
      let rounded =
        Rounding.round inst ~jobs:survivors ~target ~frac:x ~frac_value:value
      in
      Oblivious.of_assignment rounded)

(* Called with the shard lock held.  Drop the least-recently-used half:
   entries are stamped on every lookup, so sorting by stamp keeps the
   working set and sheds the churn. *)
let evict_lru_half sh =
  let arr =
    Array.of_list (KH.fold (fun k e acc -> (k, e.tick) :: acc) sh.table [])
  in
  Array.sort (fun (_, a) (_, b) -> compare a b) arr;
  let drop = max 1 (Array.length arr / 2) in
  for j = 0 to drop - 1 do
    KH.remove sh.table (fst arr.(j))
  done;
  Option.iter (fun o -> Suu_obs.Counter.add o.c_evictions drop) sh.obs;
  Suu_obs.Counter.add (g_evictions ()) drop

(* The solve for a missing key runs under the shard lock: concurrent
   replications of the same instance mostly want the same plan, so
   serializing the solve lets every other domain reuse it instead of
   re-deriving it.  [count] is false for {!shared_plan} — policy
   construction must not perturb the hit/miss statistics a client reads
   from [stats] (see {!Service.warm}). *)
let lookup t ~count ~round ~survivors =
  let key =
    { prefix = t.key_prefix; phash = t.key_phash; round; survivors }
  in
  let sh = shard_of t.store (Key.hash key) in
  Mutex.lock sh.slock;
  sh.clock <- sh.clock + 1;
  match KH.find_opt sh.table key with
  | Some e ->
      e.tick <- sh.clock;
      if count then begin
        Option.iter (fun o -> Suu_obs.Counter.incr o.c_hits) sh.obs;
        Suu_obs.Counter.incr (g_hits ())
      end;
      Mutex.unlock sh.slock;
      e.plan
  | None ->
      if count then begin
        Option.iter (fun o -> Suu_obs.Counter.incr o.c_misses) sh.obs;
        Suu_obs.Counter.incr (g_misses ())
      end;
      let finish () =
        let plan = fresh_plan ?solver:t.solver t.inst ~round ~survivors in
        if KH.length sh.table >= sh.capacity then evict_lru_half sh;
        (* The lookup key borrows the caller's survivor array; the
           stored key must own its copy. *)
        KH.replace sh.table
          { key with survivors = Array.copy survivors }
          { plan; tick = sh.clock };
        Mutex.unlock sh.slock;
        plan
      in
      (try finish ()
       with e ->
         Mutex.unlock sh.slock;
         raise e)

let plan t ~round ~survivors = lookup t ~count:true ~round ~survivors

let shared_plan ?solver inst ~round ~survivors =
  lookup (create ?solver inst) ~count:false ~round ~survivors

let size t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.slock;
      let n = KH.length sh.table in
      Mutex.unlock sh.slock;
      acc + n)
    0 t.store.shards

let global_stats () =
  { hits = Suu_obs.Counter.get (g_hits ());
    misses = Suu_obs.Counter.get (g_misses ());
    evictions = Suu_obs.Counter.get (g_evictions ()) }

let shard_stats () =
  Array.map
    (fun sh ->
      match sh.obs with
      | Some o ->
          { hits = Suu_obs.Counter.get o.c_hits;
            misses = Suu_obs.Counter.get o.c_misses;
            evictions = Suu_obs.Counter.get o.c_evictions }
      | None -> assert false (* every global shard has counters *))
    (global_store ()).shards
