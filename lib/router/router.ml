(* The suu-router coordinator: accepts the v1 wire protocol unchanged,
   hashes each request's instance digest onto the rendezvous ring, and
   proxies to the owning shard over pooled retrying clients.  Client
   connections are served by the same event loop and worker pool as
   suu serve (Suu_server.Server.serve); only the handler differs.

   Determinism argument, end to end: the digest is the canonical
   Instance_io rendering (Protocol.instance_digest), placement is a
   pure function of (shard id, digest) (Ring), every shard runs the
   same deterministic service, and the proxy re-serializes responses
   through the same canonical printer the server uses — so a routed
   reply is byte-identical to an unrouted one, and repeated requests
   for one instance land on one shard, whose plan cache, instance
   cache, journal and result store stay hot for exactly that slice of
   the keyspace. *)

module P = Suu_server.Protocol
module Client = Suu_server.Client
module Server = Suu_server.Server

let c_route = Suu_obs.Registry.memo_counter "router.route"
let h_route = lazy (Suu_obs.Registry.histogram "router.route")
let c_failover = Suu_obs.Registry.memo_counter "router.failover"
let c_respawn = Suu_obs.Registry.memo_counter "router.respawns"
let c_no_shard = Suu_obs.Registry.memo_counter "router.no_live_shard"

type shard_spec = {
  id : string;
  host : string;
  port : int;
  child : Spawn.child option;
  respawn : (unit -> Spawn.child) option;
}

type config = {
  host : string;
  port : int; (* 0 = ephemeral *)
  retries : int; (* per proxied call, within one shard *)
  timeout_ms : int; (* shard-side response timeout per attempt *)
  backoff_ms : int;
  pool_capacity : int;
  health_interval_ms : int;
  fail_threshold : int;
  probe_timeout_ms : int;
}

let default_config =
  { host = "127.0.0.1"; port = 0; retries = 2; timeout_ms = 30_000;
    backoff_ms = 25; pool_capacity = 8; health_interval_ms = 500;
    fail_threshold = 2; probe_timeout_ms = 1_000 }

type shard = {
  sid : string;
  shost : string;
  sport : int;
  pool : Pool.t;
  mutable child : Spawn.child option;
  srespawn : (unit -> Spawn.child) option;
  mutable drain_t : Thread.t option;
  proxied : int Atomic.t;
}

type t = {
  cfg : config;
  shards : shard array;
  ring : Ring.t;
  mutable health : Health.t option;
  mutable server : Server.t option;
  started_ns : int64; (* on {!Suu_obs.Clock} *)
  stopping : bool Atomic.t;
}

let server t = match t.server with Some s -> s | None -> assert false

let port t = Server.port (server t)

let shard_by_id t id =
  (* Tiny arrays; linear scan is fine. *)
  let found = ref None in
  Array.iter (fun s -> if s.sid = id then found := Some s) t.shards;
  match !found with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %S" id)

let health t =
  match t.health with Some h -> h | None -> assert false

let is_live t id = Health.is_live (health t) id

(* --- probing and respawn --- *)

let echo_child s child =
  s.drain_t <-
    Some
      (Spawn.drain
         ~echo:(fun line -> Printf.eprintf "suu-router: [%s] %s\n%!" s.sid line)
         child)

let try_respawn s =
  match s.srespawn with
  | None -> ()
  | Some f -> (
      match f () with
      | child -> (
          s.child <- Some child;
          match Spawn.wait_ready child with
          | Result.Ok _ ->
              Suu_obs.Counter.incr (c_respawn ());
              echo_child s child;
              Printf.eprintf "suu-router: shard %s respawned (pid %d)\n%!"
                s.sid (Spawn.pid child)
          | Result.Error msg ->
              Printf.eprintf "suu-router: shard %s respawn failed: %s\n%!"
                s.sid msg)
      | exception e ->
          Printf.eprintf "suu-router: shard %s respawn failed: %s\n%!" s.sid
            (Printexc.to_string e))

let probe t id =
  let s = shard_by_id t id in
  match s.child with
  | Some child when not (Spawn.alive child) ->
      (* The child is gone: re-routing is already in force (mark-down),
         bring a warm replacement up on the same port and journal; the
         next probe tick marks it up. *)
      if not (Atomic.get t.stopping) then try_respawn s;
      false
  | _ -> (
      match
        Client.connect ~host:s.shost ~timeout_ms:t.cfg.probe_timeout_ms
          ~port:s.sport ()
      with
      | c ->
          Fun.protect
            ~finally:(fun () -> try Client.close c with _ -> ())
            (fun () ->
              match Client.call c ~auto_id:false P.Stats with
              | P.Ok _ -> true
              | P.Err _ -> false)
      | exception _ -> false)

(* --- the proxy path --- *)

let forward s req =
  Pool.with_client s.pool (fun c ->
      Client.call c ~auto_id:false ?id:req.P.id ?deadline_ms:req.P.deadline_ms
        req.P.body)

(* Walk the key's rendezvous order, skipping shards already marked
   down; a shard that fails mid-request is marked down on the spot so
   the ring re-routes before the next probe tick. *)
let route_request t req digest =
  let ranked = Ring.route_ranked t.ring digest in
  let rec go tried = function
    | [] ->
        Suu_obs.Counter.incr (c_no_shard ());
        P.Err
          { id = req.P.id; code = P.Internal;
            message = "no live shard for request" }
    | id :: rest ->
        if not (is_live t id) then go tried rest
        else
          let s = shard_by_id t id in
          if tried > 0 then Suu_obs.Counter.incr (c_failover ());
          (match forward s req with
          | resp ->
              Atomic.incr s.proxied;
              resp
          | exception (Client.Protocol_failure _ | Unix.Unix_error _) ->
              Printf.eprintf
                "suu-router: shard %s failed a forwarded request, \
                 marking down\n%!"
                id;
              Health.force_down (health t) id;
              go (tried + 1) rest)
  in
  go 0 ranked

(* --- stats fan-out --- *)

let shard_stats t s =
  if not (is_live t s.sid) then None
  else
    match
      Pool.with_client s.pool (fun c ->
          Client.call c ~auto_id:false P.Stats)
    with
    | P.Ok { fields; _ } -> Some fields
    | P.Err _ -> None
    | exception _ -> None

let stats_reply t req =
  let results = Array.map (fun s -> shard_stats t s) t.shards in
  let sources =
    Array.to_list results |> List.filter_map (fun x -> x)
  in
  let merged = Stats_merge.merge sources in
  let up =
    Array.fold_left
      (fun acc s -> if is_live t s.sid then acc + 1 else acc)
      0 t.shards
  in
  let breakdown =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i s ->
              let pre = Printf.sprintf "shard.%d." i in
              [ (pre ^ "id", s.sid);
                (pre ^ "addr", Printf.sprintf "%s:%d" s.shost s.sport);
                (pre ^ "up", if is_live t s.sid then "1" else "0");
                (pre ^ "proxied", string_of_int (Atomic.get s.proxied)) ]
              @
              match results.(i) with
              | None -> []
              | Some fields ->
                  List.filter_map
                    (fun k ->
                      Option.map
                        (fun v -> (pre ^ k, v))
                        (List.assoc_opt k fields))
                    [ "requests_total"; "plan_cache_hit_rate" ])
            t.shards))
  in
  P.Ok
    { id = req.P.id; rtype = "stats";
      fields =
        [ ("router_shards", string_of_int (Array.length t.shards));
          ("router_shards_up", string_of_int up);
          ("router_uptime_ms",
           Int64.to_string
             (Int64.div
                (Int64.sub (Suu_obs.Clock.now_ns ()) t.started_ns)
                1_000_000L))
        ]
        @ merged @ breakdown
        (* The router's own registry (router.*, its loop's server.*
           spans, the pool's client.* counters, and the protocol
           counters of its own parses) goes last under its own prefix:
           merged into the shard sums it would count every routed
           frame's parse twice. *)
        @ Suu_obs.Registry.render ~prefix:"obs.router." () }

(* --- the handler the server loop runs on its workers --- *)

let handle_request t req =
  let t0 = Suu_obs.Clock.now_ns () in
  let resp =
    match req.P.body with
    | P.Stats -> stats_reply t req
    | body -> (
        match P.instance_digest body with
        | Some digest -> route_request t req digest
        | None -> route_request t req (P.body_type body))
  in
  let dt =
    Int64.to_float (Int64.sub (Suu_obs.Clock.now_ns ()) t0) /. 1e9
  in
  Suu_obs.Registry.observe (c_route ()) (Lazy.force h_route) dt;
  resp

(* --- lifecycle --- *)

let start ?(config = default_config) ~shards () =
  if shards = [] then invalid_arg "Router.start: no shards";
  let mk i (spec : shard_spec) =
    let pool =
      Pool.create ~capacity:config.pool_capacity ~retries:config.retries
        ~timeout_ms:config.timeout_ms ~backoff_ms:config.backoff_ms
        ~retry_seed:(1000 * (i + 1))
        ~host:spec.host ~port:spec.port ()
    in
    { sid = spec.id; shost = spec.host; sport = spec.port; pool;
      child = spec.child; srespawn = spec.respawn; drain_t = None;
      proxied = Atomic.make 0 }
  in
  let shard_arr = Array.of_list (List.mapi mk shards) in
  let ring = Ring.create (List.map (fun (sp : shard_spec) -> sp.id) shards) in
  let t =
    { cfg = config; shards = shard_arr; ring; health = None; server = None;
      started_ns = Suu_obs.Clock.now_ns (); stopping = Atomic.make false }
  in
  let h =
    Health.create ~fail_threshold:config.fail_threshold
      ~interval_ms:config.health_interval_ms
      ~shards:(Array.to_list (Array.map (fun s -> s.sid) shard_arr))
      ~probe:(fun id -> probe t id)
      ~on_change:(fun id up ->
        let s = shard_by_id t id in
        if not up then Pool.clear s.pool;
        Printf.eprintf "suu-router: shard %s marked %s\n%!" id
          (if up then "UP" else "DOWN"))
      ()
  in
  t.health <- Some h;
  (* One worker per pooled shard connection; fault injection and the
     journal stay with the shards, whatever the environment says. *)
  t.server <-
    Some
      (Server.serve
         { Server.default_config with
           host = config.host; port = config.port;
           workers = config.pool_capacity * Array.length shard_arr;
           faults = Some Suu_server.Faults.none; journal = Some "" }
         ~metrics:(Suu_server.Metrics.create ())
         ~warm:(fun _ -> false)
         (fun _ ~deadline:_ req -> handle_request t req));
  Array.iter
    (fun s -> match s.child with Some c -> echo_child s c | None -> ())
    shard_arr;
  Health.start h;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (match t.health with Some h -> Health.stop h | None -> ());
    (* Drain: every admitted request is forwarded and answered while the
       shards are still up. *)
    Server.stop (server t);
    Array.iter
      (fun s ->
        Pool.clear s.pool;
        match s.child with
        | Some child ->
            Spawn.terminate child;
            (match s.drain_t with Some th -> Thread.join th | None -> ())
        | None -> ())
      t.shards
  end

let check_health t =
  match t.health with Some h -> Health.check_all h | None -> ()

let live_shards t = Health.live_ids (health t)

let run ?config ~shards () =
  (* Same race-free shutdown as Suu_server.Server.run: mask INT/TERM
     before startup so a signal during shard spawn stays pending, then
     collect it with sigwait.  Shard children inherit the mask across
     exec, which is harmless — their own [run] uses the same pattern. *)
  let stop_signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  let t = start ?config ~shards () in
  Printf.printf "suu-router listening on %s:%d (shards=%d)\n%!" t.cfg.host
    (port t) (Array.length t.shards);
  ignore (Thread.wait_signal stop_signals);
  prerr_endline "suu-router: signal received, draining";
  stop t;
  prerr_endline "suu-router: drained, bye"
