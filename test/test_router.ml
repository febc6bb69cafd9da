(* The router subsystem: rendezvous-ring placement properties
   (determinism, balance, minimal remapping), readiness-line parsing,
   stats merging, and an end-to-end attach-mode router in front of two
   in-process servers — byte-identity with an unrouted server, merged
   stats, and failover when a shard dies mid-run. *)

module Ring = Suu_router.Ring
module Spawn = Suu_router.Spawn
module Stats_merge = Suu_router.Stats_merge
module Router = Suu_router.Router
module Server = Suu_server.Server
module Client = Suu_server.Client
module P = Suu_server.Protocol
module W = Suu_workload.Workload

let uniform = W.Uniform { lo = 0.2; hi = 0.8 }

(* --- ring: determinism --- *)

let shard_ids n = List.init n (fun i -> Printf.sprintf "shard%d" i)

let keys_for rng n =
  List.init n (fun _ ->
      Digest.string (string_of_int (Suu_prng.Rng.int rng 1_000_000_000)))

let test_ring_deterministic () =
  let ids = shard_ids 5 in
  let r1 = Ring.create ids and r2 = Ring.create ids in
  let rng = Suu_prng.Rng.create ~seed:3 in
  List.iter
    (fun key ->
      let a = Ring.route r1 ~live:(fun _ -> true) key in
      let b = Ring.route r2 ~live:(fun _ -> true) key in
      Alcotest.(check (option string)) "same ring, same key, same shard" a b;
      (match Ring.route_ranked r1 key with
      | first :: _ ->
          Alcotest.(check (option string))
            "route is the head of the ranked order" (Some first) a
      | [] -> Alcotest.fail "empty ranked order"))
    (keys_for rng 200)

let test_ring_validation () =
  (match Ring.create [] with
  | _ -> Alcotest.fail "empty ring should raise"
  | exception Invalid_argument _ -> ());
  match Ring.create [ "a"; "b"; "a" ] with
  | _ -> Alcotest.fail "duplicate ids should raise"
  | exception Invalid_argument _ -> ()

(* --- ring: balance (qcheck over shard counts 2..8) --- *)

let test_ring_balance_qcheck =
  QCheck.Test.make ~count:30 ~name:"ring balance within tolerance (2-8 shards)"
    QCheck.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let ids = shard_ids n in
      let ring = Ring.create ids in
      let rng = Suu_prng.Rng.create ~seed in
      let nkeys = 2000 in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun key ->
          match Ring.route ring ~live:(fun _ -> true) key with
          | None -> QCheck.Test.fail_report "no shard for key"
          | Some id ->
              Hashtbl.replace counts id
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
        (keys_for rng nkeys);
      let mean = float_of_int nkeys /. float_of_int n in
      List.for_all
        (fun id ->
          let c =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts id))
          in
          (* Generous statistical band: 2000 keys over <= 8 shards puts
             each shard 6+ sigma inside [0.5, 1.6] x mean. *)
          c >= 0.5 *. mean && c <= 1.6 *. mean)
        ids)

(* --- ring: minimal remapping on leave/rejoin (qcheck) --- *)

let test_ring_remapping_qcheck =
  QCheck.Test.make ~count:30 ~name:"ring remaps only the lost shard's keys"
    QCheck.(pair (int_range 2 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let ids = shard_ids n in
      let ring = Ring.create ids in
      let rng = Suu_prng.Rng.create ~seed in
      let keys = keys_for rng 500 in
      let down = Printf.sprintf "shard%d" (Suu_prng.Rng.int rng n) in
      let all_live _ = true in
      let without id' = id' <> down in
      List.for_all
        (fun key ->
          let before = Ring.route ring ~live:all_live key in
          let during = Ring.route ring ~live:without key in
          let after = Ring.route ring ~live:all_live key in
          (* rejoin restores the original placement exactly *)
          after = before
          &&
          match before with
          | Some owner when owner = down ->
              (* a lost shard's keys land on its 2nd-ranked shard *)
              during <> Some down
              && during
                 = List.nth_opt
                     (List.filter without (Ring.route_ranked ring key))
                     0
          | other ->
              (* every other key must not move at all *)
              during = other)
        keys)

(* --- spawn: readiness-line parsing --- *)

let test_ready_line_parse () =
  let cases =
    [ ("suu-serve listening on 127.0.0.1:45123 (workers=4 queue=64)",
       Some ("127.0.0.1", 45123));
      ("suu-router listening on 0.0.0.0:7490 (shards=3)",
       Some ("0.0.0.0", 7490));
      ("prefix junk then listening on 10.0.0.2:80 suffix",
       Some ("10.0.0.2", 80));
      ("no marker here", None);
      ("suu-serve listening on 127.0.0.1: (workers=4)", None);
      ("suu-serve listening on :7483", None);
      ("listening on 127.0.0.1:999999", None) ]
  in
  List.iter
    (fun (line, expect) ->
      let got =
        Option.map
          (fun (h, p) -> Printf.sprintf "%s:%d" h p)
          (Spawn.addr_of_ready_line line)
      in
      let want = Option.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) expect in
      Alcotest.(check (option string)) line want got)
    cases

let test_spawn_wait_ready () =
  (* A stand-in child that prints noise, then a readiness line. *)
  let child =
    Spawn.spawn ~prog:"/bin/sh"
      ~args:
        [ "-c";
          "echo starting up; echo fake listening on 127.0.0.1:12345 ok; \
           sleep 5" ]
      ()
  in
  (match Spawn.wait_ready ~timeout_s:5.0 child with
  | Result.Ok (h, p) ->
      Alcotest.(check string) "host" "127.0.0.1" h;
      Alcotest.(check int) "port" 12345 p
  | Result.Error msg -> Alcotest.fail msg);
  Spawn.terminate child;
  (* A child that dies without ever becoming ready fails fast. *)
  let dead = Spawn.spawn ~prog:"/bin/sh" ~args:[ "-c"; "exit 3" ] () in
  match Spawn.wait_ready ~timeout_s:5.0 dead with
  | Result.Ok _ -> Alcotest.fail "dead child reported ready"
  | Result.Error _ -> Spawn.terminate dead

(* [terminate] reaps a child that exits on SIGTERM, and one that
   ignores SIGTERM, by SIGKILL once its timeout passes.  Each child
   prints its readiness line only after its signal disposition is set,
   so the SIGTERM cannot land before it. *)
let test_spawn_terminate () =
  let ready script =
    let child = Spawn.spawn ~prog:"/bin/sh" ~args:[ "-c"; script ] () in
    (match Spawn.wait_ready ~timeout_s:5.0 child with
    | Result.Ok _ -> ()
    | Result.Error msg -> Alcotest.fail msg);
    child
  in
  let gone name child =
    Alcotest.(check bool) (name ^ ": reaped") false (Spawn.alive child);
    Alcotest.(check bool) (name ^ ": no such process") true
      (match Unix.kill (Spawn.pid child) 0 with
      | () -> false
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true)
  in
  let exits = ready "echo stub listening on 127.0.0.1:1; exec sleep 30" in
  Spawn.terminate exits;
  gone "exits on SIGTERM" exits;
  let stubborn =
    ready "trap '' TERM; echo stub listening on 127.0.0.1:1; exec sleep 30"
  in
  Unix.kill (Spawn.pid stubborn) Sys.sigterm;
  Thread.delay 0.05;
  Alcotest.(check bool) "ignores SIGTERM" true (Spawn.alive stubborn);
  Spawn.terminate ~timeout_s:0.1 stubborn;
  gone "killed after the timeout" stubborn

(* --- stats merging --- *)

let test_stats_merge_counters () =
  let a =
    [ ("requests_total", "10"); ("uptime_ms", "500"); ("solver", "mwu-0.1");
      ("plan_cache_hits", "8"); ("plan_cache_misses", "2");
      ("plan_cache_hit_rate", "0.8") ]
  in
  let b =
    [ ("requests_total", "30"); ("uptime_ms", "400"); ("solver", "simplex");
      ("plan_cache_hits", "0"); ("plan_cache_misses", "10");
      ("plan_cache_hit_rate", "0") ]
  in
  let m = Stats_merge.merge [ a; b ] in
  let get k = List.assoc k m in
  Alcotest.(check string) "counters sum" "40" (get "requests_total");
  Alcotest.(check string) "uptime takes max" "500" (get "uptime_ms");
  Alcotest.(check string) "first non-numeric wins" "mwu-0.1" (get "solver");
  Alcotest.(check (float 1e-12)) "hit rate recomputed from sums" 0.4
    (float_of_string (get "plan_cache_hit_rate"));
  (* key order follows first sight *)
  Alcotest.(check string) "first key first" "requests_total" (fst (List.hd m))

let test_stats_merge_histograms () =
  let module H = Suu_obs.Histogram in
  let h1 = H.create () and h2 = H.create () and u = H.create () in
  let rng = Suu_prng.Rng.create ~seed:5 in
  for _ = 1 to 400 do
    let v = Suu_prng.Rng.range rng ~lo:0.0 ~hi:2.0 in
    H.record (if Suu_prng.Rng.bool rng then h1 else h2) v;
    H.record u v
  done;
  let fields h =
    let s = H.snapshot h in
    [ ("obs.phase.x.count", string_of_int s.H.count);
      ("obs.phase.x.mean_ms", "ignored");
      ("obs.phase.x.p95_ms", "ignored");
      ("obs.phase.x.raw", H.raw_of_snapshot s) ]
  in
  let m = Stats_merge.merge [ fields h1; fields h2 ] in
  let su = H.snapshot u in
  Alcotest.(check string) "merged count"
    (string_of_int su.H.count)
    (List.assoc "obs.phase.x.count" m);
  (* Bucket counts and max merge exactly; the sum can differ from the
     union's in the last ulp (different addition order). *)
  (match H.snapshot_of_raw (List.assoc "obs.phase.x.raw" m) with
  | None -> Alcotest.fail "merged raw failed to parse"
  | Some sm ->
      Alcotest.(check (array int)) "merged buckets" su.H.buckets sm.H.buckets;
      Alcotest.(check (float 0.0)) "merged max" su.H.max sm.H.max;
      Alcotest.(check (float 1e-9)) "merged sum" su.H.sum sm.H.sum);
  let p95 = float_of_string (List.assoc "obs.phase.x.p95_ms" m) in
  let want = 1000.0 *. H.quantile u su 0.95 in
  Alcotest.(check (float 0.001)) "merged p95 recomputed exactly" want p95

(* --- end-to-end: router over two in-process shards --- *)

let with_two_shards f =
  let s1 = Server.start ~config:Server.default_config () in
  let s2 = Server.start ~config:Server.default_config () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop s1;
      Server.stop s2)
    (fun () -> f s1 s2)

let attach_spec s =
  let port = Server.port s in
  { Router.id = Printf.sprintf "127.0.0.1:%d" port; host = "127.0.0.1";
    port; child = None; respawn = None }

let with_router ?config shards f =
  let r = Router.start ?config ~shards () in
  Fun.protect ~finally:(fun () -> Router.stop r) (fun () -> f r)

(* Raw newline-framed round-trip, for byte-level comparisons. *)
let raw_call ~port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let n = Unix.write_substring fd payload 0 (String.length payload) in
      Alcotest.(check int) "wrote whole request" (String.length payload) n;
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec read_until_done () =
        let got = Unix.read fd chunk 0 (Bytes.length chunk) in
        if got > 0 then begin
          Buffer.add_subbytes buf chunk 0 got;
          let s = Buffer.contents buf in
          if
            String.length s >= 5
            && String.sub s (String.length s - 5) 5 = "done\n"
          then s
          else read_until_done ()
        end
        else Buffer.contents buf
      in
      read_until_done ())

let requests () =
  let mk = W.independent uniform in
  let inst1 = mk ~n:6 ~m:2 ~seed:21 in
  let inst2 = mk ~n:8 ~m:3 ~seed:22 in
  let inst3 = mk ~n:4 ~m:2 ~seed:23 in
    [ { P.id = None; deadline_ms = None; body = P.Describe inst1 };
      { P.id = Some "r1"; deadline_ms = None; body = P.Lower_bound inst2 };
      { P.id = None; deadline_ms = Some 10_000;
        body = P.Plan { inst = inst2; policy = "greedy"; seed = 4 } };
      { P.id = Some "r2"; deadline_ms = None;
        body = P.Simulate { inst = inst1; policy = "suu-i-sem"; reps = 4;
                            seed = 7 } };
      { P.id = None; deadline_ms = None;
        body = P.Simulate { inst = inst3; policy = "greedy"; reps = 3;
                            seed = 1 } } ]

let request_strings () = List.map P.request_to_string (requests ())

let test_e2e_byte_identical () =
  (* Every non-stats reply through the router must be byte-identical to
     a direct server's reply for the same request bytes. *)
  let direct = Server.start ~config:Server.default_config () in
  Fun.protect
    ~finally:(fun () -> Server.stop direct)
    (fun () ->
      with_two_shards (fun s1 s2 ->
          with_router [ attach_spec s1; attach_spec s2 ] (fun r ->
              List.iter
                (fun req ->
                  let via_router = raw_call ~port:(Router.port r) req in
                  let direct_resp = raw_call ~port:(Server.port direct) req in
                  Alcotest.(check string) "routed reply == direct reply"
                    direct_resp via_router)
                (request_strings ()))))

(* Read [n] reply frames off [fd], each as its raw bytes. *)
let read_frames fd n =
  let rd = Suu_server.Lineio.reader fd in
  let rec frame acc =
    match Suu_server.Lineio.next_line rd with
    | None -> Alcotest.fail "stream ended inside a reply"
    | Some "done" -> String.concat "" (List.rev ("done\n" :: acc))
    | Some l -> frame ((l ^ "\n") :: acc)
  in
  List.init n (fun _ -> frame [])

let frame_response raw =
  let lines = ref (String.split_on_char '\n' raw) in
  let next_line () =
    match !lines with
    | l :: rest ->
        lines := rest;
        Some l
    | [] -> None
  in
  match P.read_response ~next_line with
  | Some r -> r
  | None -> Alcotest.fail "empty reply frame"

let reply_id = function P.Ok { id; _ } | P.Err { id; _ } -> id

let test_e2e_pipelined_byte_identical () =
  (* The byte-identity requests with distinct ids, and a malformed frame
     in the middle, in one write on one router connection: one located
     parse error, and every other reply equal to the direct server's. *)
  let reqs =
    List.mapi
      (fun i r -> P.request_to_string { r with P.id = Some (Printf.sprintf "p%d" i) })
      (requests ())
  in
  let garbage = "total garbage\nmore\ndone\n" in
  let half = List.length reqs / 2 in
  let payload =
    String.concat ""
      (List.filteri (fun i _ -> i < half) reqs
      @ [ garbage ]
      @ List.filteri (fun i _ -> i >= half) reqs)
  in
  let direct = Server.start ~config:Server.default_config () in
  Fun.protect
    ~finally:(fun () -> Server.stop direct)
    (fun () ->
      let want =
        List.map
          (fun req ->
            let raw = raw_call ~port:(Server.port direct) req in
            (reply_id (frame_response raw), raw))
          reqs
      in
      with_two_shards (fun s1 s2 ->
          with_router [ attach_spec s1; attach_spec s2 ] (fun r ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  Unix.connect fd
                    (Unix.ADDR_INET (Unix.inet_addr_loopback, Router.port r));
                  let n =
                    Unix.write_substring fd payload 0 (String.length payload)
                  in
                  Alcotest.(check int) "one write" (String.length payload) n;
                  let got =
                    List.map
                      (fun raw -> (frame_response raw, raw))
                      (read_frames fd (List.length reqs + 1))
                  in
                  let errors, replies =
                    List.partition (fun (r, _) -> reply_id r = None) got
                  in
                  (match errors with
                  | [ (P.Err { code = P.Parse; message; _ }, _) ] ->
                      Alcotest.(check bool) "parse error is located" true
                        (String.starts_with ~prefix:"line 1:" message)
                  | _ -> Alcotest.fail "expected exactly one parse error");
                  Alcotest.(check (list (pair (option string) string)))
                    "routed replies == direct replies, matched by id"
                    (List.sort compare want)
                    (List.sort compare
                       (List.map (fun (r, raw) -> (reply_id r, raw)) replies))))))

let test_e2e_affinity_and_stats () =
  with_two_shards (fun s1 s2 ->
      with_router [ attach_spec s1; attach_spec s2 ] (fun r ->
          let c = Client.connect ~port:(Router.port r) () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let inst = W.independent uniform ~n:6 ~m:2 ~seed:33 in
              for _ = 1 to 6 do
                ignore (Client.simulate c ~policy:"greedy" ~reps:2 inst)
              done;
              let fields = Client.stats c () in
              let get k =
                match List.assoc_opt k fields with
                | Some v -> v
                | None -> Alcotest.fail ("missing merged field " ^ k)
              in
              Alcotest.(check string) "both shards reported" "2"
                (get "router_shards_up");
              (* 6 simulates + this stats fan-out (1 per shard) *)
              Alcotest.(check string) "summed simulate counter" "6"
                (get "requests_simulate");
              (* digest affinity: one shard saw all six *)
              let s1n = int_of_string (get "shard.0.requests_total") in
              let s2n = int_of_string (get "shard.1.requests_total") in
              Alcotest.(check bool) "all simulates on one shard" true
                (min s1n s2n <= 1 && max s1n s2n >= 6))))

(* A stand-in shard answering every frame with the same stats fields,
   so the cluster view the router merges is known exactly. *)
let with_fake_shard fields f =
  let module Lineio = Suu_server.Lineio in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let serve fd =
    let rd = Lineio.reader fd in
    let rec loop () =
      match P.read_request ~next_line:(fun () -> Lineio.next_line rd) with
      | None -> ()
      | Some req ->
          Lineio.write_all fd
            (P.response_to_string
               (P.Ok { id = req.P.id; rtype = "stats"; fields }));
          loop ()
    in
    (try loop () with _ -> ());
    Unix.close fd
  in
  let acceptor =
    Thread.create
      (fun () ->
        try
          while true do
            let fd, _ = Unix.accept lfd in
            ignore (Thread.create serve fd)
          done
        with Unix.Unix_error _ -> ())
      ()
  in
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Fun.protect
    ~finally:(fun () ->
      (* Wakes the blocked [accept] on Linux. *)
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join acceptor;
      Unix.close lfd)
    (fun () ->
      f
        { Router.id = Printf.sprintf "127.0.0.1:%d" port; host = "127.0.0.1";
          port; child = None; respawn = None })

(* The router parses every frame it proxies, so its own registry holds
   protocol counters for traffic the shards count too.  The merged
   cluster view sums the shard replies alone; the router's registry
   follows under its own prefix. *)
let test_e2e_stats_no_router_double_count () =
  let fields =
    [ ("requests_total", "3"); ("obs.counter.protocol.instance_memo.misses", "5") ]
  in
  with_fake_shard fields (fun a ->
      with_fake_shard fields (fun b ->
          with_router [ a; b ] (fun r ->
              let c = Client.connect ~port:(Router.port r) () in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  (* One parse of an unseen instance in the router. *)
                  ignore
                    (Client.call c
                       (P.Describe (W.independent uniform ~n:5 ~m:2 ~seed:34)));
                  ignore (Client.stats c ());
                  let st = Client.stats c () in
                  let get k =
                    match List.assoc_opt k st with
                    | Some v -> v
                    | None -> Alcotest.fail ("missing stats key " ^ k)
                  in
                  Alcotest.(check string) "requests summed over shards" "6"
                    (get "requests_total");
                  Alcotest.(check string) "memo misses summed over shards" "10"
                    (get "obs.counter.protocol.instance_memo.misses");
                  Alcotest.(check bool) "router counters not merged" false
                    (List.mem_assoc "obs.counter.router.route" st);
                  Alcotest.(check bool) "router's own counters prefixed" true
                    (int_of_string (get "obs.router.counter.router.route") >= 2);
                  Alcotest.(check bool) "router's own parses prefixed" true
                    (int_of_string
                       (get "obs.router.counter.protocol.instance_memo.misses")
                    >= 1)))))

let test_e2e_failover () =
  with_two_shards (fun s1 s2 ->
      let config =
        { Router.default_config with health_interval_ms = 60_000;
          timeout_ms = 2_000; retries = 1 }
      in
      with_router ~config [ attach_spec s1; attach_spec s2 ] (fun r ->
          let c = Client.connect ~port:(Router.port r) ~retries:3 () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* Drive enough distinct instances that both shards own
                 some keys, then kill one shard and do it again: every
                 request must still succeed via re-routing. *)
              let insts =
                List.init 8 (fun i ->
                    W.independent uniform ~n:5 ~m:2 ~seed:(100 + i))
              in
              List.iter
                (fun inst ->
                  ignore (Client.describe c inst))
                insts;
              Alcotest.(check int) "both live before the kill" 2
                (List.length (Router.live_shards r));
              Server.stop s2;
              List.iter
                (fun inst -> ignore (Client.describe c inst))
                insts;
              Alcotest.(check int) "dead shard marked down" 1
                (List.length (Router.live_shards r));
              (* the health prober agrees once it runs *)
              Router.check_health r;
              Alcotest.(check int) "probe keeps it down" 1
                (List.length (Router.live_shards r)))))

let test_e2e_stop_drains () =
  (* Stop must let an admitted request finish, and its reply reach the
     client, before anything is torn down.  The simulate takes about
     half a second on two cores; stop comes as soon as its frame is
     parsed, which the process-wide [server.parse] phase count shows. *)
  let inst = W.independent W.Near_one ~n:48 ~m:4 ~seed:17 in
  let parses () =
    List.assoc_opt "obs.phase.server.parse.count" (Suu_obs.Registry.render ())
    |> Option.fold ~none:0 ~some:int_of_string
  in
  with_two_shards (fun s1 s2 ->
      let r = Router.start ~shards:[ attach_spec s1; attach_spec s2 ] () in
      let before = parses () in
      let result = ref None in
      let th =
        Thread.create
          (fun () ->
            let c = Client.connect ~port:(Router.port r) () in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                result :=
                  Some
                    (Client.call c
                       (P.Simulate
                          { inst; policy = "greedy"; reps = 20_000; seed = 2 }))))
          ()
      in
      let give_up = Unix.gettimeofday () +. 10.0 in
      while parses () = before && Unix.gettimeofday () < give_up do
        Thread.delay 0.002
      done;
      Router.stop r;
      Thread.join th;
      match !result with
      | Some (P.Ok { rtype = "simulate"; fields; _ }) ->
          Alcotest.(check bool) "got a real summary" true
            (List.mem_assoc "mean" fields)
      | Some (P.Err { code; message; _ }) ->
          Alcotest.failf "in-flight request dropped: [%s] %s"
            (P.error_code_to_string code) message
      | _ -> Alcotest.fail "no simulate reply before stop returned")

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic placement" `Quick
            test_ring_deterministic;
          Alcotest.test_case "validation" `Quick test_ring_validation;
          QCheck_alcotest.to_alcotest test_ring_balance_qcheck;
          QCheck_alcotest.to_alcotest test_ring_remapping_qcheck;
        ] );
      ( "spawn",
        [
          Alcotest.test_case "readiness-line parse" `Quick
            test_ready_line_parse;
          Alcotest.test_case "wait_ready on a real child" `Quick
            test_spawn_wait_ready;
          Alcotest.test_case "terminate, with and without SIGKILL" `Quick
            test_spawn_terminate;
        ] );
      ( "stats-merge",
        [
          Alcotest.test_case "counters, uptime, hit rate" `Quick
            test_stats_merge_counters;
          Alcotest.test_case "histograms merge exactly" `Quick
            test_stats_merge_histograms;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "byte-identical to direct server" `Quick
            test_e2e_byte_identical;
          Alcotest.test_case "pipelined replies byte-identical" `Quick
            test_e2e_pipelined_byte_identical;
          Alcotest.test_case "router registry kept out of the merge" `Quick
            test_e2e_stats_no_router_double_count;
          Alcotest.test_case "digest affinity + merged stats" `Quick
            test_e2e_affinity_and_stats;
          Alcotest.test_case "failover on shard death" `Quick
            test_e2e_failover;
          Alcotest.test_case "stop drains in-flight requests" `Quick
            test_e2e_stop_drains;
        ] );
    ]
