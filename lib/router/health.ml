(* Periodic shard health with hysteresis.

   A shard is marked down after [fail_threshold] consecutive probe
   failures (one flaky probe must not trigger a re-route storm) and
   marked back up on the first success.  The proxy path can also force
   an immediate mark-down when a forwarded request fails — waiting for
   the next probe tick would send more traffic into a dead shard. *)

let c_checks = Suu_obs.Registry.memo_counter "router.health.checks"
let c_down = Suu_obs.Registry.memo_counter "router.health.mark_down"
let c_up = Suu_obs.Registry.memo_counter "router.health.mark_up"

type entry = { mutable live : bool; mutable fails : int }

type t = {
  interval_ms : int;
  fail_threshold : int;
  probe : string -> bool;
  on_change : string -> bool -> unit;
  entries : (string * entry) list; (* fixed shard set, tiny *)
  lock : Mutex.t;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
}

let entry t id =
  match List.assoc_opt id t.entries with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Health: unknown shard %S" id)

let create ?(fail_threshold = 2) ~interval_ms ~shards ~probe ~on_change () =
  if interval_ms < 1 then
    invalid_arg "Health.create: interval_ms must be >= 1";
  if fail_threshold < 1 then
    invalid_arg "Health.create: fail_threshold must be >= 1";
  { interval_ms; fail_threshold; probe; on_change;
    entries = List.map (fun id -> (id, { live = true; fails = 0 })) shards;
    lock = Mutex.create (); stop_flag = Atomic.make false; thread = None }

let is_live t id =
  Mutex.lock t.lock;
  let v = (entry t id).live in
  Mutex.unlock t.lock;
  v

let live_ids t =
  Mutex.lock t.lock;
  let ids =
    List.filter_map
      (fun (id, e) -> if e.live then Some id else None)
      t.entries
  in
  Mutex.unlock t.lock;
  ids

(* Transitions fire [on_change] outside the lock: the callback clears
   pools / logs and must be free to take its own locks. *)
let transition t id up =
  Mutex.lock t.lock;
  let e = entry t id in
  let changed = e.live <> up in
  e.live <- up;
  if up then e.fails <- 0;
  Mutex.unlock t.lock;
  if changed then begin
    Suu_obs.Counter.incr ((if up then c_up else c_down) ());
    t.on_change id up
  end

let force_down t id = transition t id false

let probe_once t (id, e) =
  Suu_obs.Counter.incr (c_checks ());
  let ok = try t.probe id with _ -> false in
  if ok then begin
    Mutex.lock t.lock;
    e.fails <- 0;
    let was_down = not e.live in
    Mutex.unlock t.lock;
    if was_down then transition t id true
  end
  else begin
    Mutex.lock t.lock;
    e.fails <- e.fails + 1;
    let trip = e.live && e.fails >= t.fail_threshold in
    Mutex.unlock t.lock;
    if trip then transition t id false
  end

let check_all t = List.iter (probe_once t) t.entries

let loop t () =
  let interval = float_of_int t.interval_ms /. 1000.0 in
  while not (Atomic.get t.stop_flag) do
    check_all t;
    (* Sleep in small slices so [stop] is prompt even with long
       intervals. *)
    let slept = ref 0.0 in
    while !slept < interval && not (Atomic.get t.stop_flag) do
      let d = Float.min 0.05 (interval -. !slept) in
      Thread.delay d;
      slept := !slept +. d
    done
  done

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create (loop t) ())

let stop t =
  Atomic.set t.stop_flag true;
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None
