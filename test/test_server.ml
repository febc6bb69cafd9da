(* Tests for the suu-serve subsystem: wire protocol framing, the bounded
   queue behind the worker pool, metrics rendering, and an end-to-end
   loopback exercise of a real daemon on an ephemeral port. *)

module P = Suu_server.Protocol
module Bqueue = Suu_server.Bqueue
module Metrics = Suu_server.Metrics
module Server = Suu_server.Server
module Client = Suu_server.Client
module W = Suu_workload.Workload
module Instance = Suu_core.Instance

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }

let instances_equal a b =
  String.equal
    (Suu_core.Instance_io.to_string a)
    (Suu_core.Instance_io.to_string b)

(* A [next_line] feeder over an in-memory string, as the parser sees a
   socket: lines without their newline, [None] at end of stream. *)
let feed s =
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.rev lines with "" :: tl -> List.rev tl | _ -> lines
  in
  let r = ref lines in
  fun () ->
    match !r with
    | [] -> None
    | l :: tl ->
        r := tl;
        Some l

(* --- protocol framing --- *)

let roundtrip_request req =
  match P.read_request ~next_line:(feed (P.request_to_string req)) with
  | Some got -> got
  | None -> Alcotest.fail "no frame parsed"

let check_common label (sent : P.request) (got : P.request) =
  Alcotest.(check (option string)) (label ^ " id") sent.P.id got.P.id;
  Alcotest.(check (option int))
    (label ^ " deadline")
    sent.P.deadline_ms got.P.deadline_ms

let test_request_roundtrips () =
  let inst = W.independent uniform ~n:6 ~m:3 ~seed:1 in
  let forest =
    W.forest uniform ~n:8 ~trees:2 ~orientation:`Mixed ~m:3 ~seed:2
  in
  let cases =
    [
      ("describe", { P.id = Some "r1"; deadline_ms = None;
                     body = P.Describe inst });
      ("lower_bound", { P.id = None; deadline_ms = Some 500;
                        body = P.Lower_bound forest });
      ("plan", { P.id = Some "p"; deadline_ms = None;
                 body = P.Plan { inst; policy = "auto"; seed = 3 } });
      ("simulate",
       { P.id = Some "s"; deadline_ms = Some 9999;
         body = P.Simulate { inst; policy = "greedy"; reps = 7; seed = 4 } });
      ("stats", { P.id = None; deadline_ms = None; body = P.Stats });
    ]
  in
  List.iter
    (fun (label, req) ->
      let got = roundtrip_request req in
      check_common label req got;
      match (req.P.body, got.P.body) with
      | P.Describe a, P.Describe b | P.Lower_bound a, P.Lower_bound b ->
          Alcotest.(check bool)
            (label ^ " instance") true (instances_equal a b)
      | P.Plan a, P.Plan b ->
          Alcotest.(check string) (label ^ " policy") a.policy b.policy;
          Alcotest.(check int) (label ^ " seed") a.seed b.seed;
          Alcotest.(check bool)
            (label ^ " instance") true
            (instances_equal a.inst b.inst)
      | P.Simulate a, P.Simulate b ->
          Alcotest.(check string) (label ^ " policy") a.policy b.policy;
          Alcotest.(check int) (label ^ " reps") a.reps b.reps;
          Alcotest.(check int) (label ^ " seed") a.seed b.seed;
          Alcotest.(check bool)
            (label ^ " instance") true
            (instances_equal a.inst b.inst)
      | P.Stats, P.Stats -> ()
      | _ -> Alcotest.fail (label ^ ": body type changed in roundtrip"))
    cases

let test_response_roundtrips () =
  let cases =
    [
      P.Ok
        {
          id = Some "r9";
          rtype = "simulate";
          fields = [ ("mean", "12.5"); ("note", "has spaces in value") ];
        };
      P.Ok { id = None; rtype = "stats"; fields = [] };
      P.Err { id = Some "x"; code = P.Overloaded; message = "queue full" };
      P.Err { id = None; code = P.Timeout; message = "deadline exceeded" };
    ]
  in
  List.iter
    (fun resp ->
      match P.read_response ~next_line:(feed (P.response_to_string resp)) with
      | Some got ->
          Alcotest.(check string)
            "response roundtrips"
            (P.response_to_string resp)
            (P.response_to_string got)
      | None -> Alcotest.fail "no response parsed")
    cases

let parse_error input =
  match P.read_request ~next_line:(feed input) with
  | Some _ -> Alcotest.fail "expected a parse error, frame parsed"
  | None -> Alcotest.fail "expected a parse error, got end of stream"
  | exception P.Parse_error { line; msg } ->
      P.parse_error_message ~line ~msg

let test_located_parse_errors () =
  let check label input expected =
    Alcotest.(check string) label expected (parse_error input)
  in
  check "wrong header" "hello\n" "line 1: expected \"suu-request v1\"";
  check "unknown type" "suu-request v1\ntype frobnicate\ndone\n"
    "line 2: unknown request type \"frobnicate\" (have: describe, \
     lower_bound, plan, simulate, stats)";
  check "unknown field" "suu-request v1\ntype stats\nbogus 1\ndone\n"
    "line 3: unknown or malformed field \"bogus\"";
  check "bad reps" "suu-request v1\ntype simulate\nreps banana\ndone\n"
    "line 3: reps: expected an integer, got \"banana\"";
  check "reps out of range"
    "suu-request v1\ntype simulate\nreps 99999999\ndone\n"
    "line 3: reps must be in [1, 1000000]";
  check "duplicate field" "suu-request v1\ntype stats\ntype stats\ndone\n"
    "line 3: duplicate field type";
  check "missing type" "suu-request v1\nid x\ndone\n"
    "line 3: missing required field 'type'";
  check "missing instance" "suu-request v1\ntype describe\ndone\n"
    "line 3: describe requires an instance block";
  check "truncated frame" "suu-request v1\ntype stats\n"
    "line 3: unexpected end of stream inside request (missing 'done')";
  (* Errors inside the embedded instance block are relocated to frame
     coordinates: the block starts right after the [instance] marker. *)
  check "bad float in embedded instance"
    "suu-request v1\n\
     type describe\n\
     instance\n\
     suu-instance v1\n\
     name x\n\
     machines 1\n\
     jobs 1\n\
     q\n\
     NOTAFLOAT\n\
     edges 0\n\
     end\n\
     done\n"
    "line 9: bad float \"NOTAFLOAT\"";
  check "truncated embedded instance"
    "suu-request v1\ntype describe\ninstance\nsuu-instance v1\n"
    "line 5: unexpected end of stream inside instance block (missing 'end')"

let test_skip_frame_resyncs () =
  let input =
    "garbage here\nmore garbage\ndone\nsuu-request v1\ntype stats\ndone\n"
  in
  let next_line = feed input in
  (match P.read_request ~next_line with
  | exception P.Parse_error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "expected a parse error on line 1");
  P.skip_frame ~next_line;
  match P.read_request ~next_line with
  | Some { P.body = P.Stats; _ } -> ()
  | _ -> Alcotest.fail "expected the stats frame after resync"

(* --- bounded queue --- *)

let test_bqueue_fifo_and_reject () =
  let q = Bqueue.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Bqueue.capacity q);
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Bqueue.try_push q 3);
  Alcotest.(check bool) "full refuses" false (Bqueue.try_push q 4);
  Alcotest.(check int) "length" 3 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 5);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 5" (Some 5) (Bqueue.pop q)

let test_bqueue_close_drains () =
  let q = Bqueue.create ~capacity:4 in
  ignore (Bqueue.try_push q "a");
  ignore (Bqueue.try_push q "b");
  Bqueue.close q;
  Alcotest.(check bool) "closed refuses" false (Bqueue.try_push q "c");
  Alcotest.(check (option string)) "drains a" (Some "a") (Bqueue.pop q);
  Alcotest.(check (option string)) "drains b" (Some "b") (Bqueue.pop q);
  Alcotest.(check (option string)) "then exhausted" None (Bqueue.pop q);
  Bqueue.close q (* idempotent *)

let test_bqueue_blocking_pop () =
  let q = Bqueue.create ~capacity:1 in
  let got = ref None in
  let th = Thread.create (fun () -> got := Bqueue.pop q) () in
  Thread.delay 0.02;
  Alcotest.(check (option int)) "still blocked" None !got;
  ignore (Bqueue.try_push q 42);
  Thread.join th;
  Alcotest.(check (option int)) "woke with item" (Some 42) !got

(* --- metrics --- *)

let metric fields k =
  match List.assoc_opt k fields with
  | Some v -> int_of_string v
  | None -> Alcotest.fail ("missing stats key " ^ k)

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.observe m ~rtype:"simulate" ~code:None;
  Metrics.observe m ~rtype:"simulate" ~code:(Some "overloaded");
  Metrics.observe m ~rtype:"stats" ~code:(Some "timeout");
  let get = metric (Metrics.render m) in
  Alcotest.(check int) "total" 3 (get "requests_total");
  Alcotest.(check int) "simulate" 2 (get "requests_simulate");
  Alcotest.(check int) "stats" 1 (get "requests_stats");
  Alcotest.(check int) "ok" 1 (get "ok");
  Alcotest.(check int) "errors" 2 (get "errors");
  Alcotest.(check int) "rejects" 1 (get "rejects");
  Alcotest.(check int) "timeouts" 1 (get "timeouts")

(* The counters take no lock: observes race renders from other
   domains.  Every scrape must still balance ok against errors, and
   once the writers stop, the per-type and per-outcome counts must
   account for every request. *)
let test_metrics_concurrent () =
  let m = Metrics.create () in
  let types = [| "describe"; "lower_bound"; "plan"; "simulate"; "stats" |] in
  let codes =
    [| None; Some "parse"; Some "bad_request"; Some "overloaded";
       Some "timeout"; Some "internal" |]
  in
  let writers = 2 and per_writer = 20_000 in
  let running = Atomic.make writers in
  let ds =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for k = 0 to per_writer - 1 do
              Metrics.observe m
                ~rtype:types.((k + w) mod Array.length types)
                ~code:codes.(k mod Array.length codes)
            done;
            Atomic.decr running))
  in
  let scrapes = ref 0 in
  while Atomic.get running > 0 do
    incr scrapes;
    let get = metric (Metrics.render m) in
    if get "requests_total" <> get "ok" + get "errors" || get "errors" < 0
    then
      Alcotest.failf "scrape %d: requests_total %d <> ok %d + errors %d"
        !scrapes (get "requests_total") (get "ok") (get "errors")
  done;
  List.iter Domain.join ds;
  let get = metric (Metrics.render m) in
  let sum keys = List.fold_left (fun acc k -> acc + get k) 0 keys in
  let total = writers * per_writer in
  Alcotest.(check int) "every request counted" total (get "requests_total");
  Alcotest.(check int) "per-type counts sum to the total" total
    (sum
       (List.map (fun t -> "requests_" ^ t)
          (Array.to_list types @ [ "unknown" ])));
  Alcotest.(check int) "ok and per-code errors sum to the total" total
    (get "ok"
    + sum
        [ "parse_errors"; "bad_requests"; "rejects"; "timeouts";
          "internal_errors" ])

(* --- end-to-end loopback --- *)

let with_server ?(config = Server.default_config) f =
  let server = Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server)

let with_client server f =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Alcotest.fail ("missing response field " ^ k)

(* The summary half of the stats reply, every key outside the obs.
   namespace, in order.  Request latency lives only in the obs. half,
   as the [server.request] span histogram. *)
let stats_summary_keys =
  [ "requests_total"; "requests_describe"; "requests_lower_bound";
    "requests_plan"; "requests_simulate"; "requests_stats";
    "requests_unknown"; "ok"; "errors"; "parse_errors"; "bad_requests";
    "rejects"; "timeouts"; "internal_errors"; "plan_cache_hits";
    "plan_cache_misses"; "plan_cache_evictions"; "plan_cache_bypass";
    "plan_cache_hit_rate"; "solver"; "instance_cache_entries" ]
  @ List.init 8 (Printf.sprintf "plan_cache_shard%d_hit_rate")
  @ [ "queue_depth"; "queue_capacity"; "workers"; "connections"; "reactor";
      "uptime_ms" ]

let test_e2e_stats_keys () =
  let inst = W.independent uniform ~n:6 ~m:2 ~seed:12 in
  with_server (fun server ->
      with_client server (fun c ->
          ignore (Client.describe c inst);
          ignore (Client.plan c ~policy:"greedy" ~seed:1 inst);
          ignore (Client.stats c ());
          (* The loop closes a reply's [server.request] span when the
             bytes are written, before it reads the next frame. *)
          let st = Client.stats c () in
          Alcotest.(check (list string)) "summary keys, in order"
            stats_summary_keys
            (List.filter_map
               (fun (k, _) ->
                 if String.starts_with ~prefix:"obs." k then None else Some k)
               st);
          Alcotest.(check int) "three requests before this one" 3
            (int_of_string (field st "requests_total"));
          Alcotest.(check bool) "request latency quantiles present" true
            (List.mem_assoc "obs.phase.server.request.p95_ms" st);
          Alcotest.(check bool) "every earlier request timed" true
            (int_of_string (field st "obs.phase.server.request.count") >= 3)))

let test_e2e_all_request_types () =
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:11 in
  with_server (fun server ->
      with_client server (fun c ->
          let d = Client.describe c inst in
          Alcotest.(check string) "machines" "3" (field d "machines");
          Alcotest.(check string) "jobs" "8" (field d "jobs");
          Alcotest.(check string) "shape" "independent" (field d "shape");
          let lb = Client.lower_bound c inst in
          Alcotest.(check bool)
            "combined bound positive" true
            (float_of_string (field lb "combined") > 0.0);
          let pl = Client.plan c ~policy:"greedy" ~seed:2 inst in
          Alcotest.(check string) "plan policy" "greedy" (field pl "policy");
          Alcotest.(check bool)
            "plan makespan positive" true
            (int_of_string (field pl "makespan") > 0);
          let sim = Client.simulate c ~policy:"greedy" ~reps:5 ~seed:3 inst in
          Alcotest.(check string) "reps echoed" "5" (field sim "reps");
          (* The simulate contract: identical to Runner.makespans. *)
          let xs =
            Suu_sim.Runner.makespans inst
              (Suu_core.Baselines.greedy_completion inst)
              ~seed:3 ~reps:5
          in
          let s = Suu_stats.Summary.of_array xs in
          Alcotest.(check string)
            "mean matches Runner"
            (Printf.sprintf "%.17g" s.Suu_stats.Summary.mean)
            (field sim "mean");
          let st = Client.stats c () in
          Alcotest.(check string)
            "stats counted the four oks" "4" (field st "ok");
          Alcotest.(check bool)
            "queue depth exposed" true
            (List.mem_assoc "queue_depth" st)))

let test_e2e_errors_keep_connection () =
  let inst = W.independent uniform ~n:6 ~m:2 ~seed:12 in
  with_server (fun server ->
      with_client server (fun c ->
          (* Unknown policy: structured bad_request, connection lives. *)
          (match Client.call c (P.Plan { inst; policy = "nope"; seed = 0 }) with
          | P.Err { code = P.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "expected bad_request for unknown policy");
          (* Shape-inapplicable policy: suu-c needs disjoint chains. *)
          (match Client.call c (P.Plan { inst; policy = "suu-c"; seed = 0 })
           with
          | P.Err { code = P.Bad_request; message; _ } ->
              Alcotest.(check bool)
                "message names the shape" true
                (String.length message > 0)
          | _ -> Alcotest.fail "expected bad_request for suu-c on independent");
          (* The connection still serves valid requests afterwards. *)
          let d = Client.describe c inst in
          Alcotest.(check string) "still alive" "6" (field d "jobs")))

let test_e2e_parse_error_then_valid_frame () =
  with_server (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          let send s =
            ignore (Unix.write_substring fd s 0 (String.length s))
          in
          send "total garbage\nmore\ndone\n";
          send
            (P.request_to_string
               { P.id = Some "after"; deadline_ms = None; body = P.Stats });
          let rd = Suu_server.Lineio.reader fd in
          let next_line () = Suu_server.Lineio.next_line rd in
          (match P.read_response ~next_line with
          | Some (P.Err { code = P.Parse; message; _ }) ->
              Alcotest.(check bool)
                "parse error is located" true
                (String.length message >= 7
                && String.sub message 0 7 = "line 1:")
          | _ -> Alcotest.fail "expected a parse error reply");
          match P.read_response ~next_line with
          | Some (P.Ok { id = Some "after"; rtype = "stats"; _ }) -> ()
          | _ -> Alcotest.fail "connection should survive a parse error"))

let test_e2e_overload_rejects () =
  (* One worker, queue of one: a slow request occupies the worker, the
     next fills the queue, the third must be refused immediately. *)
  let config =
    { Server.default_config with workers = 1; queue_capacity = 1;
      sim_jobs = Some 1 }
  in
  let slow_inst = W.independent W.Near_one ~n:32 ~m:4 ~seed:13 in
  let quick_inst = W.independent uniform ~n:4 ~m:2 ~seed:14 in
  with_server ~config (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          let frame id body =
            P.request_to_string { P.id = Some id; deadline_ms = None; body }
          in
          (* One write: the server reads all three frames in one chunk
             and parses them in one pump, long before the slow simulate
             can finish, so the follow-ups meet a busy worker. *)
          let s =
            frame "slow"
              (P.Simulate
                 { inst = slow_inst; policy = "greedy"; reps = 2000; seed = 1 })
            ^ frame "queued" (P.Describe quick_inst)
            ^ frame "refused" (P.Describe quick_inst)
          in
          ignore (Unix.write_substring fd s 0 (String.length s));
          let rd = Suu_server.Lineio.reader fd in
          let next_line () = Suu_server.Lineio.next_line rd in
          let rec read_all acc n =
            if n = 0 then acc
            else
              match P.read_response ~next_line with
              | Some r -> read_all (r :: acc) (n - 1)
              | None -> Alcotest.fail "stream ended early"
          in
          let responses = read_all [] 3 in
          (* Whether the worker has already popped the slow job when the
             follow-ups arrive is a benign race: if it has, the second
             fills the queue and the third is refused; if it has not, the
             slow job still occupies the queue and both follow-ups are
             refused.  Either way the slow request entered an empty queue
             and must succeed, and at least one follow-up must be refused
             while it runs. *)
          let rejected =
            List.filter_map
              (function
                | P.Err { id; code = P.Overloaded; _ } -> id
                | _ -> None)
              responses
          in
          Alcotest.(check bool)
            "at least one follow-up refused" true
            (List.length rejected >= 1);
          Alcotest.(check bool)
            "the slow request was never refused" false
            (List.mem "slow" rejected);
          let slow_ok =
            List.exists
              (function
                | P.Ok { id = Some "slow"; _ } -> true
                | _ -> false)
              responses
          in
          Alcotest.(check bool) "the slow request succeeded" true slow_ok))

let test_e2e_deadline_timeout () =
  let config = { Server.default_config with sim_jobs = Some 1 } in
  let inst = W.independent W.Near_one ~n:32 ~m:4 ~seed:15 in
  with_server ~config (fun server ->
      with_client server (fun c ->
          match
            Client.call c ~deadline_ms:1
              (P.Simulate { inst; policy = "greedy"; reps = 5000; seed = 1 })
          with
          | P.Err { code = P.Timeout; _ } -> ()
          | P.Ok _ -> Alcotest.fail "a 1ms deadline cannot be met"
          | P.Err { code; _ } ->
              Alcotest.fail
                ("expected timeout, got " ^ P.error_code_to_string code)))

let test_e2e_deterministic_across_pools () =
  (* The same simulate request must produce byte-identical response
     frames whatever the worker count and simulation domain count. *)
  let inst = W.independent uniform ~n:10 ~m:3 ~seed:16 in
  let body = P.Simulate { inst; policy = "auto"; reps = 9; seed = 7 } in
  let bytes_with ~workers ~sim_jobs =
    let config = { Server.default_config with workers; sim_jobs } in
    with_server ~config (fun server ->
        with_client server (fun c ->
            P.response_to_string (Client.call c body)))
  in
  Alcotest.(check string)
    "workers=1/jobs=1 vs workers=4/jobs=4"
    (bytes_with ~workers:1 ~sim_jobs:(Some 1))
    (bytes_with ~workers:4 ~sim_jobs:(Some 4))

let test_e2e_online_policies_deterministic () =
  (* The lib/sched policies carry per-execution predictor state seeded
     from (digest, policy, seed): two serves of the same request must
     be byte-identical, and a different seed must actually change the
     outcome (or the determinism claim is vacuous). *)
  let inst = W.independent uniform ~n:10 ~m:3 ~seed:17 in
  with_server (fun server ->
      with_client server (fun c ->
          List.iter
            (fun policy ->
              let ask seed =
                P.response_to_string
                  (Client.call c (P.Simulate { inst; policy; reps = 9; seed }))
              in
              Alcotest.(check string)
                (policy ^ " same-seed replay byte-identical")
                (ask 7) (ask 7);
              Alcotest.(check bool)
                (policy ^ " different seed differs")
                true
                (ask 7 <> ask 8))
            [ "lzf"; "backfill" ];
          (* Both policies are LP-free: the serve path must have counted
             their plan-cache bypasses and exposed them in stats. *)
          let st = Client.stats c () in
          Alcotest.(check bool)
            "plan_cache_bypass positive" true
            (int_of_string (field st "plan_cache_bypass") > 0)))

(* --- faults --- *)

let test_faults_spec () =
  let module F = Suu_server.Faults in
  (match
     F.of_spec "drop=0.05,delay=0.1:25,error=0.01,kill=0.02,crash=0.03,seed=42"
   with
  | Result.Ok c ->
      Alcotest.(check (float 1e-12)) "drop" 0.05 c.F.drop;
      Alcotest.(check (float 1e-12)) "delay" 0.1 c.F.delay;
      Alcotest.(check int) "delay_ms" 25 c.F.delay_ms;
      Alcotest.(check int) "seed" 42 c.F.seed;
      Alcotest.(check bool) "active" true (F.active c);
      (match F.of_spec (F.to_spec c) with
      | Result.Ok c2 -> Alcotest.(check bool) "spec roundtrips" true (c = c2)
      | Result.Error m -> Alcotest.fail m)
  | Result.Error m -> Alcotest.fail m);
  (match F.of_spec "" with
  | Result.Ok c ->
      Alcotest.(check bool) "empty spec is inactive" false (F.active c)
  | Result.Error m -> Alcotest.fail m);
  (match F.of_spec "drop=2" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "probability above 1 must be rejected");
  (match F.of_spec "bogus=1" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "unknown key must be rejected");
  (* Two injectors armed from the same config make identical decisions:
     injected totals are a function of (config, decision count) alone. *)
  match F.of_spec "drop=0.3,delay=0.2:5,error=0.1,kill=0.1,seed=7" with
  | Result.Error m -> Alcotest.fail m
  | Result.Ok c ->
      let t1 = F.create c and t2 = F.create c in
      let f1 = List.init 200 (fun _ -> F.reply_fate t1) in
      let f2 = List.init 200 (fun _ -> F.reply_fate t2) in
      Alcotest.(check bool) "fates deterministic per seed" true (f1 = f2)

(* --- the per-instance memos: parse, digest, lower bound --- *)

module Service = Suu_server.Service
module Instance_io = Suu_core.Instance_io

let counter_get name = Suu_obs.Counter.get (Suu_obs.Registry.counter name)

(* A random valid instance: dimensions, q (with the exact values 0 and 1),
   edges and a printable one-line name all drawn from [seed]. *)
let random_instance seed =
  let rng = Suu_prng.Rng.create ~seed in
  let m = 1 + Suu_prng.Rng.int rng 4 and n = 1 + Suu_prng.Rng.int rng 8 in
  let q =
    Array.init m (fun _ ->
        Array.init n (fun _ ->
            match Suu_prng.Rng.int rng 5 with
            | 0 -> 0.0
            | 1 -> 1.0
            | _ -> Suu_prng.Rng.float rng 1.0))
  in
  for j = 0 to n - 1 do
    if Array.for_all (fun row -> row.(j) = 1.0) q then
      q.(0).(j) <- Suu_prng.Rng.float rng 0.99
  done;
  let edges = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Suu_prng.Rng.int rng 4 = 0 then edges := (a, b) :: !edges
    done
  done;
  let name =
    String.init (Suu_prng.Rng.int rng 12) (fun _ ->
        Char.chr (32 + Suu_prng.Rng.int rng 95))
  in
  Instance.make ~name ~dag:(Suu_dag.Dag.of_edges ~n !edges) q

let bodies_for inst =
  [ P.Describe inst; P.Lower_bound inst;
    P.Plan { inst; policy = "auto"; seed = 3 };
    P.Simulate { inst; policy = "greedy"; reps = 3; seed = 4 } ]

let frame_of body =
  P.request_to_string { P.id = Some "m"; deadline_ms = None; body }

let parse_frame frame =
  match P.read_request ~next_line:(feed frame) with
  | Some r -> r
  | None -> Alcotest.fail "no frame parsed"

let body_instance = function
  | P.Describe i | P.Lower_bound i | P.Plan { inst = i; _ }
  | P.Simulate { inst = i; _ } -> i
  | P.Stats -> Alcotest.fail "stats has no instance"

let with_instance body inst =
  match body with
  | P.Describe _ -> P.Describe inst
  | P.Lower_bound _ -> P.Lower_bound inst
  | P.Plan p -> P.Plan { p with inst }
  | P.Simulate s -> P.Simulate { s with inst }
  | P.Stats -> P.Stats

(* The instance block of a frame: from the line after [instance] to the
   end of its [end] line. *)
let block_bounds frame =
  let marker = "\ninstance\n" in
  let rec find s sub i =
    if String.sub s i (String.length sub) = sub then i else find s sub (i + 1)
  in
  let lo = find frame marker 0 + String.length marker in
  let hi = find frame "\nend\n" lo + String.length "\nend\n" in
  (lo, hi)

let reply svc body =
  let resp =
    match Service.handle svc body with
    | Result.Ok fields ->
        P.Ok { id = None; rtype = P.body_type body; fields }
    | Result.Error (code, message) -> P.Err { id = None; code; message }
  in
  P.response_to_string resp

let solvers =
  Suu_core.Solver_choice.[ ("exact", Simplex); ("mwu", Mwu 0.1) ]

(* One long-lived service per solver, as a server holds: its entries
   (and their cached bounds) persist across the property's cases. *)
let warm_services =
  List.map
    (fun (label, solver) ->
      ( label, solver,
        Service.create ~sim_jobs:1 ~solver ~metrics:(Metrics.create ()) () ))
    solvers

let prop_memo_same_results =
  QCheck.Test.make ~count:60 ~name:"memoized parse serves cold-parse bytes"
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      List.for_all
        (fun body ->
          let frame = frame_of body in
          let first = (parse_frame frame).P.body in
          let again = (parse_frame frame).P.body in
          let lo, hi = block_bounds frame in
          let cold = Instance_io.of_string (String.sub frame lo (hi - lo)) in
          let mi = body_instance first in
          if body_instance again != mi then
            QCheck.Test.fail_report "second parse is not the shared value";
          if Instance_io.to_string mi <> Instance_io.to_string cold then
            QCheck.Test.fail_report "memoized instance differs from cold parse";
          if Instance_io.digest mi <> Digest.string (Instance_io.to_string cold)
          then QCheck.Test.fail_report "digest differs from the rendering's";
          List.for_all
            (fun (label, solver, warm) ->
              let fresh =
                Service.create ~sim_jobs:1 ~solver
                  ~metrics:(Metrics.create ()) ()
              in
              let expect = reply fresh (with_instance body cold) in
              let got = reply warm first and got_again = reply warm again in
              if got <> expect || got_again <> expect then
                QCheck.Test.fail_reportf
                  "%s reply under %s differs:\n%s\nvs\n%s"
                  (P.body_type body) label got expect;
              true)
            warm_services)
        (bodies_for inst))

(* What parsing a frame yields, comparable across memo states: the
   request re-rendered, or the located error. *)
let outcome frame =
  match P.read_request ~next_line:(feed frame) with
  | Some r -> Ok (P.request_to_string r, Some r.P.body)
  | None -> Ok ("<end of stream>", None)
  | exception P.Parse_error { line; msg } ->
      Error (P.parse_error_message ~line ~msg)

let test_memo_mutations () =
  let inst = W.forest uniform ~n:5 ~trees:2 ~orientation:`Mixed ~m:2 ~seed:9 in
  let frame = frame_of (P.Lower_bound inst) in
  let lo, hi = block_bounds frame in
  let mutants = ref 0 in
  let check_mutant mutated =
    incr mutants;
    P.reset_instance_memo_for_testing ();
    let memoised = body_instance (parse_frame frame).P.body in
    let warm = outcome mutated in
    (match warm with
    | Ok (_, Some (P.Lower_bound i)) when i == memoised ->
        Alcotest.failf "mutant %d returned the memoized instance" !mutants
    | _ -> ());
    P.reset_instance_memo_for_testing ();
    let cold = outcome mutated in
    let show = function Ok (s, _) -> "ok " ^ s | Error e -> "error " ^ e in
    Alcotest.(check string)
      (Printf.sprintf "mutant %d: warm = cold" !mutants)
      (show cold) (show warm)
  in
  let edit off del ins =
    String.concat ""
      [ String.sub frame 0 off; ins;
        String.sub frame (off + del) (String.length frame - off - del) ]
  in
  for off = lo to hi - 1 do
    let flipped = Char.chr (Char.code frame.[off] lxor 1) in
    check_mutant (edit off 1 (String.make 1 flipped));
    check_mutant (edit off 1 "");
    check_mutant (edit off 0 "7")
  done;
  check_mutant (edit hi 0 "7");
  Alcotest.(check bool) "every offset mutated" true (!mutants > 3 * (hi - lo))

let test_memo_eviction () =
  P.reset_instance_memo_for_testing ();
  (* Three blocks of a bit under half the budget each: the third entry
     pushes the first out. *)
  let big k =
    let m = 100 in
    let n = P.instance_memo_budget / 2 / (m * 24) in
    Instance.make ~name:(Printf.sprintf "big-%d" k) ~dag:(Suu_dag.Dag.empty n)
      (Array.init m (fun i ->
           Array.init n (fun j ->
               float_of_int (1 + ((k + i + j) mod 97)) /. 100.1)))
  in
  let frames = List.map (fun k -> frame_of (P.Describe (big k))) [ 0; 1; 2 ] in
  List.iter
    (fun f ->
      let lo, hi = block_bounds f in
      Alcotest.(check bool) "block under half the budget" true
        (hi - lo < P.instance_memo_budget / 2
         && hi - lo > P.instance_memo_budget / 3))
    frames;
  let parse f = body_instance (parse_frame f).P.body in
  let ev0 = counter_get "protocol.instance_memo.evictions" in
  let first = List.map parse frames in
  Alcotest.(check int) "one eviction" (ev0 + 1)
    (counter_get "protocol.instance_memo.evictions");
  let misses0 = counter_get "protocol.instance_memo.misses" in
  let hits0 = counter_get "protocol.instance_memo.hits" in
  let newest = parse (List.nth frames 2) in
  Alcotest.(check bool) "newest still shared" true (newest == List.nth first 2);
  Alcotest.(check int) "newest hits" (hits0 + 1)
    (counter_get "protocol.instance_memo.hits");
  let oldest = parse (List.hd frames) in
  Alcotest.(check bool) "oldest re-parsed" true (oldest != List.hd first);
  Alcotest.(check int) "oldest misses" (misses0 + 1)
    (counter_get "protocol.instance_memo.misses");
  Alcotest.(check string) "same instance"
    (Instance_io.to_string (List.hd first)) (Instance_io.to_string oldest);
  P.reset_instance_memo_for_testing ()

let test_memo_domain_race () =
  P.reset_instance_memo_for_testing ();
  let frames =
    Array.init 6 (fun k ->
        frame_of (List.nth (bodies_for (random_instance (100 + k))) (k mod 4)))
  in
  let expected =
    Array.map
      (fun f ->
        let lo, hi = block_bounds f in
        Digest.string (Instance_io.to_string
          (Instance_io.of_string (String.sub f lo (hi - lo)))))
      frames
  in
  let run d () =
    Array.init 40 (fun r ->
        let k = (r + d) mod Array.length frames in
        let i = body_instance (parse_frame frames.(k)).P.body in
        (k, i, Instance_io.digest i))
  in
  let results =
    List.concat_map
      (fun d -> Array.to_list (Domain.join d))
      (List.init 4 (fun d -> Domain.spawn (run d)))
  in
  List.iter
    (fun (k, _, d) ->
      Alcotest.(check string) "digest"
        (Digest.to_hex expected.(k)) (Digest.to_hex d))
    results;
  Array.iteri
    (fun k _ ->
      match List.filter (fun (k', _, _) -> k' = k) results with
      | [] -> ()
      | (_, i, _) :: rest ->
          Alcotest.(check bool) "one shared value per frame" true
            (List.for_all (fun (_, i', _) -> i' == i) rest))
    frames

(* --- monotonic deadlines --- *)

let test_service_deadline_monotonic () =
  (* Deadline expiry depends only on the injected monotonic clock. *)
  let now = Atomic.make 0L in
  let svc =
    Suu_server.Service.create
      ~clock_ns:(fun () -> Atomic.get now)
      ~metrics:(Metrics.create ()) ()
  in
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:18 in
  (match Suu_server.Service.handle svc ~deadline:10_000_000L (P.Describe inst)
   with
  | Result.Ok _ -> ()
  | Result.Error (code, msg) ->
      Alcotest.failf "unexpired deadline failed: [%s] %s"
        (P.error_code_to_string code) msg);
  Atomic.set now 10_000_001L;
  match Suu_server.Service.handle svc ~deadline:10_000_000L (P.Describe inst)
  with
  | Result.Error (P.Timeout, _) -> ()
  | _ -> Alcotest.fail "expired monotonic deadline must report timeout"

(* --- service configuration and the simulate batch loop --- *)

let test_service_rejects_bad_sim_jobs () =
  (* A bad domain count is the operator's misconfiguration: it must fail
     the service's construction, not every later simulate request. *)
  List.iter
    (fun k ->
      match
        Suu_server.Service.create ~sim_jobs:k ~metrics:(Metrics.create ()) ()
      with
      | _ -> Alcotest.failf "sim_jobs %d accepted" k
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

let test_service_simulate_across_batches () =
  (* reps = 70 runs the service's deadline-checked loop as batches of
     32, 32 and 6; the summary must equal Runner's over one sweep. *)
  let inst = W.chains uniform ~z:3 ~length:4 ~m:3 ~seed:19 in
  let reps = 70 and seed = 23 in
  let s =
    Suu_stats.Summary.of_array
      (Suu_sim.Runner.makespans ~jobs:1 inst
         (Suu_core.Baselines.greedy_completion inst)
         ~seed ~reps)
  in
  let f17 = Printf.sprintf "%.17g" in
  List.iter
    (fun sim_jobs ->
      let svc =
        Suu_server.Service.create ~sim_jobs ~metrics:(Metrics.create ()) ()
      in
      match
        Suu_server.Service.handle svc
          (P.Simulate { inst; policy = "greedy"; reps; seed })
      with
      | Result.Error (code, msg) ->
          Alcotest.failf "simulate failed: [%s] %s"
            (P.error_code_to_string code) msg
      | Result.Ok fields ->
          List.iter
            (fun (k, want) ->
              Alcotest.(check string)
                (Printf.sprintf "%s at sim_jobs %d" k sim_jobs)
                (f17 want) (field fields k))
            Suu_stats.Summary.
              [ ("mean", s.mean); ("stddev", s.stddev); ("min", s.min);
                ("max", s.max) ])
    [ 1; 4 ]

(* [uptime_ms] is read on the server's injected monotonic clock, so a
   wall-clock step cannot move it. *)
let test_e2e_uptime_follows_clock () =
  let now = Atomic.make 5_000_000_000L in
  let config =
    { Server.default_config with clock_ns = (fun () -> Atomic.get now) }
  in
  with_server ~config (fun server ->
      with_client server (fun c ->
          let uptime () = field (Client.stats c ()) "uptime_ms" in
          Alcotest.(check string) "at start" "0" (uptime ());
          Atomic.set now 6_234_567_890L;
          Alcotest.(check string) "1.23 s later" "1234" (uptime ());
          Atomic.set now 65_000_000_000L;
          Alcotest.(check string) "a minute later" "60000" (uptime ())))

let test_e2e_deadline_ignores_wall_clock () =
  (* Regression: queue-expiry used to compare [Unix.gettimeofday]
     against a wall-clock deadline, so real time spent queued (or an
     NTP step while queued) expired requests that had consumed none of
     their monotonic budget.  With the server's clock frozen, a request
     with a 50 ms deadline must survive sitting behind a slow request
     for far longer than 50 ms of wall time. *)
  let config =
    { Server.default_config with
      workers = 1; sim_jobs = Some 1; clock_ns = (fun () -> 0L) }
  in
  let slow_inst = W.independent W.Near_one ~n:32 ~m:4 ~seed:15 in
  let quick_inst = W.independent uniform ~n:4 ~m:2 ~seed:16 in
  with_server ~config (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          let send id deadline_ms body =
            let s = P.request_to_string { P.id = Some id; deadline_ms; body } in
            ignore (Unix.write_substring fd s 0 (String.length s))
          in
          send "slow" None
            (P.Simulate
               { inst = slow_inst; policy = "greedy"; reps = 1500; seed = 1 });
          send "quick" (Some 50) (P.Describe quick_inst);
          let rd = Suu_server.Lineio.reader fd in
          let next_line () = Suu_server.Lineio.next_line rd in
          let rec read_all acc n =
            if n = 0 then List.rev acc
            else
              match P.read_response ~next_line with
              | Some r -> read_all (r :: acc) (n - 1)
              | None -> Alcotest.fail "stream ended early"
          in
          match read_all [] 2 with
          | [ P.Ok { id = Some "slow"; _ }; P.Ok { id = Some "quick"; _ } ] ->
              ()
          | [ _; P.Err { id = Some "quick"; code; _ } ] ->
              Alcotest.failf
                "queued request expired by wall clock: [%s]"
                (P.error_code_to_string code)
          | _ -> Alcotest.fail "unexpected responses"))

let test_e2e_faults_retries_converge () =
  (* Against a server injecting drops, delays, spurious errors, torn
     frames and worker crashes, a retrying client must complete every
     request — and the injection/retry counters must show the run was
     actually chaotic. *)
  let faults =
    match
      Suu_server.Faults.of_spec
        "drop=0.2,delay=0.2:5,error=0.1,kill=0.1,crash=0.1,seed=99"
    with
    | Result.Ok c -> c
    | Result.Error m -> Alcotest.fail m
  in
  let config =
    { Server.default_config with
      workers = 2; sim_jobs = Some 1; faults = Some faults }
  in
  let counter n = Suu_obs.Counter.get (Suu_obs.Registry.counter n) in
  let injected () =
    List.fold_left
      (fun a n -> a + counter ("faults.injected." ^ n))
      0
      [ "drop"; "delay"; "error"; "kill"; "crash" ]
  in
  let inj0 = injected () and retr0 = counter "client.retries" in
  let inst = W.independent uniform ~n:6 ~m:2 ~seed:19 in
  with_server ~config (fun server ->
      let c =
        Client.connect ~port:(Server.port server) ~retries:15 ~timeout_ms:300
          ~backoff_ms:2 ~retry_seed:5 ()
      in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          for i = 1 to 30 do
            let body =
              if i mod 3 = 0 then P.Plan { inst; policy = "greedy"; seed = i }
              else P.Describe inst
            in
            match Client.call c body with
            | P.Ok _ -> ()
            | P.Err { code; message; _ } ->
                Alcotest.failf "request %d failed despite retries: [%s] %s" i
                  (P.error_code_to_string code)
                  message
          done));
  Alcotest.(check bool) "faults were injected" true (injected () > inj0);
  Alcotest.(check bool) "client retried" true (counter "client.retries" > retr0)

let test_e2e_graceful_shutdown_drains () =
  (* Stop must let an in-flight request finish and its reply reach the
     client before the connection is torn down.  The simulate takes
     about half a second on one worker; stop comes as soon as its frame
     is parsed, which the process-wide [server.parse] phase count
     shows, so the request is still running when the drain starts. *)
  let config =
    { Server.default_config with workers = 1; sim_jobs = Some 1 }
  in
  let inst = W.independent W.Near_one ~n:24 ~m:4 ~seed:17 in
  let parses () =
    List.assoc_opt "obs.phase.server.parse.count" (Suu_obs.Registry.render ())
    |> Option.fold ~none:0 ~some:int_of_string
  in
  let server = Server.start ~config () in
  let before = parses () in
  let result = ref None in
  let th =
    Thread.create
      (fun () ->
        with_client server (fun c ->
            result :=
              Some
                (Client.call c
                   (P.Simulate
                      { inst; policy = "greedy"; reps = 30_000; seed = 2 }))))
      ()
  in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while parses () = before && Unix.gettimeofday () < give_up do
    Thread.delay 0.002
  done;
  Server.stop server;
  Thread.join th;
  match !result with
  | Some (P.Ok { rtype = "simulate"; fields; _ }) ->
      Alcotest.(check bool)
        "got a real summary" true
        (List.mem_assoc "mean" fields)
  | Some (P.Err { code; message; _ }) ->
      Alcotest.fail
        (Printf.sprintf "in-flight request dropped: [%s] %s"
           (P.error_code_to_string code)
           message)
  | _ -> Alcotest.fail "no response before shutdown completed"

let test_e2e_solver_parity_and_stats () =
  (* On a tiny instance (m * n <= 16) certified MWU falls back to the
     same deterministic simplex solve, so an mwu server and a simplex
     server must answer plan/simulate byte-identically.  Also checks
     the stats reply advertises the configured solver and the
     plan-cache hit rates (satellite: observable hit rates). *)
  let inst = W.independent uniform ~n:4 ~m:4 ~seed:19 in
  let run solver =
    let config = { Server.default_config with solver = Some solver } in
    with_server ~config (fun server ->
        with_client server (fun c ->
            let pl = Client.plan c ~policy:"suu-i-sem" ~seed:5 inst in
            let pl2 = Client.plan c ~policy:"suu-i-sem" ~seed:5 inst in
            let sim =
              Client.simulate c ~policy:"suu-i-obl" ~reps:8 ~seed:6 inst
            in
            let st = Client.stats c () in
            Alcotest.(check bool) "plan replies are deterministic" true
              (pl = pl2);
            Alcotest.(check string) "stats names the solver"
              (Suu_core.Solver_choice.name solver)
              (field st "solver");
            Alcotest.(check bool) "global hit rate exposed" true
              (List.mem_assoc "plan_cache_hit_rate" st);
            Alcotest.(check bool) "per-shard hit rates exposed" true
              (List.mem_assoc "plan_cache_shard0_hit_rate" st);
            (pl, sim)))
  in
  let mwu = run (Suu_core.Solver_choice.Mwu 0.1) in
  let simplex = run Suu_core.Solver_choice.Simplex in
  Alcotest.(check bool)
    "mwu and simplex servers answer byte-identically on tiny instances"
    true (mwu = simplex)

(* --- line buffering and read-boundary splits --- *)

let test_linebuf_boundary_splits () =
  (* One byte per feed: the worst possible read fragmentation must
     reassemble lines exactly, including CRLF and empty lines. *)
  let module LB = Suu_server.Lineio.Linebuf in
  let input = "alpha\nbeta\r\n\ngamma" in
  let lb = LB.create () in
  let got = ref [] in
  String.iter
    (fun ch ->
      LB.feed lb (Bytes.make 1 ch) 0 1;
      let rec drain () =
        match LB.next lb with
        | Some l ->
            got := l :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    input;
  (match LB.take_rest lb with Some l -> got := l :: !got | None -> ());
  Alcotest.(check (list string))
    "lines reassemble across 1-byte reads"
    [ "alpha"; "beta"; ""; "gamma" ]
    (List.rev !got)

let test_lineio_frame_split_every_boundary () =
  (* Regression: a frame split across two reads used to surface as a
     located parse error when the split abandoned the buffered partial
     line.  Cut a valid frame at every byte position and parse it. *)
  let s =
    P.request_to_string { P.id = Some "x"; deadline_ms = None; body = P.Stats }
  in
  for cut = 1 to String.length s - 1 do
    let parts =
      ref [ String.sub s 0 cut; String.sub s cut (String.length s - cut) ]
    in
    let fn buf off _len =
      match !parts with
      | [] -> 0
      | p :: tl ->
          parts := tl;
          Bytes.blit_string p 0 buf off (String.length p);
          String.length p
    in
    let rd = Suu_server.Lineio.reader_of_fn fn in
    let next_line () = Suu_server.Lineio.next_line rd in
    match P.read_request ~next_line with
    | Some { P.id = Some "x"; body = P.Stats; _ } -> ()
    | Some _ -> Alcotest.failf "frame split at byte %d parsed wrong" cut
    | None -> Alcotest.failf "frame split at byte %d read as end of stream" cut
    | exception P.Parse_error { line; msg } ->
        Alcotest.failf "frame split at byte %d raised: line %d: %s" cut line msg
  done

let test_lineio_eintr_mid_frame () =
  (* Regression: an EINTR between the two halves of a frame was caught
     by the blanket Unix_error handler, which flagged EOF and discarded
     the buffered partial line — so the frame surfaced as a located
     "unexpected end of stream" parse error.  An interrupted read must
     be retried with the buffer intact. *)
  let chunks =
    ref [ `Data "suu-request v1\nid e\ntype st"; `Eintr; `Data "ats\ndone\n" ]
  in
  let fn buf off _len =
    match !chunks with
    | [] -> 0
    | `Eintr :: tl ->
        chunks := tl;
        raise (Unix.Unix_error (Unix.EINTR, "read", ""))
    | `Data s :: tl ->
        chunks := tl;
        Bytes.blit_string s 0 buf off (String.length s);
        String.length s
  in
  let rd = Suu_server.Lineio.reader_of_fn fn in
  let next_line () = Suu_server.Lineio.next_line rd in
  match P.read_request ~next_line with
  | Some { P.id = Some "e"; body = P.Stats; _ } -> ()
  | Some _ -> Alcotest.fail "EINTR mid-frame corrupted the request"
  | None -> Alcotest.fail "EINTR mid-frame read as end of stream"
  | exception P.Parse_error { line; msg } ->
      Alcotest.failf "EINTR mid-frame surfaced as parse error: line %d: %s"
        line msg

(* --- event-loop edge cases --- *)

let counter n = Suu_obs.Counter.get (Suu_obs.Registry.counter n)

let connect_raw server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
  fd

let request_bytes id body =
  P.request_to_string { P.id = Some id; deadline_ms = None; body }

let read_responses fd n =
  let rd = Suu_server.Lineio.reader fd in
  let next_line () = Suu_server.Lineio.next_line rd in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match P.read_response ~next_line with
      | Some r -> go (r :: acc) (n - 1)
      | None -> Alcotest.failf "stream ended with %d responses missing" n
  in
  go [] n

let response_id = function
  | P.Ok { id; _ } | P.Err { id; _ } -> Option.value id ~default:"<none>"

let test_e2e_pipelined_one_segment () =
  (* All requests arrive in ONE write — very likely one TCP segment on
     loopback — and every one must be parsed and answered.  One worker
     keeps completion order equal to admission order. *)
  let config = { Server.default_config with workers = 1 } in
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:21 in
  let n = 8 in
  with_server ~config (fun server ->
      let fd = connect_raw server in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let buf = Buffer.create 1024 in
          for i = 1 to n do
            Buffer.add_string buf
              (request_bytes
                 (Printf.sprintf "p%d" i)
                 (if i mod 2 = 0 then P.Stats else P.Describe inst))
          done;
          Suu_server.Lineio.write_all fd (Buffer.contents buf);
          let ids = List.map response_id (read_responses fd n) in
          Alcotest.(check (list string))
            "all pipelined requests answered in order"
            (List.init n (fun i -> Printf.sprintf "p%d" (i + 1)))
            ids))

let test_e2e_partial_write_resume () =
  (* A tiny SO_SNDBUF on the server plus a tiny SO_RCVBUF on a client
     that reads nothing until it has sent everything forces short
     writes: the writer must park the tail and resume it when the
     socket drains, without corrupting or reordering any frame. *)
  let config =
    { Server.default_config with
      workers = 1; queue_capacity = 256; so_sndbuf = Some 4096 }
  in
  let n = 200 in
  with_server ~config (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
      Unix.connect fd
        (Unix.ADDR_INET
           (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let before = counter "server.writer.resumed" in
          let buf = Buffer.create (n * 48) in
          for i = 1 to n do
            Buffer.add_string buf (request_bytes (Printf.sprintf "w%d" i) P.Stats)
          done;
          Suu_server.Lineio.write_all fd (Buffer.contents buf);
          (* let the server run into the full socket before we drain *)
          Thread.delay 0.2;
          let ids = List.map response_id (read_responses fd n) in
          Alcotest.(check (list string))
            "every response intact and in order"
            (List.init n (fun i -> Printf.sprintf "w%d" (i + 1)))
            ids;
          Alcotest.(check bool)
            "short writes were parked and resumed" true
            (counter "server.writer.resumed" > before)))

let test_e2e_slow_reader_backpressure () =
  (* A peer that pipelines thousands of requests but reads nothing must
     not buy unbounded reply buffering: once the unsent backlog passes
     [outbuf_limit] the loop stops READING that connection (so stops
     admitting from it), while other connections stay fully served. *)
  let config =
    { Server.default_config with
      workers = 2; queue_capacity = 256; so_sndbuf = Some 4096;
      outbuf_limit = 16 * 1024 }
  in
  let inst = W.independent uniform ~n:4 ~m:2 ~seed:22 in
  let n = 400 in
  with_server ~config (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
      Unix.connect fd
        (Unix.ADDR_INET
           (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let before = counter "server.reader.paused" in
          let buf = Buffer.create (n * 48) in
          for i = 1 to n do
            Buffer.add_string buf (request_bytes (Printf.sprintf "s%d" i) P.Stats)
          done;
          Suu_server.Lineio.write_all fd (Buffer.contents buf);
          let rec wait tries =
            if counter "server.reader.paused" > before || tries = 0 then ()
            else begin
              Thread.delay 0.02;
              wait (tries - 1)
            end
          in
          wait 250;
          Alcotest.(check bool)
            "read interest shed under reply backlog" true
            (counter "server.reader.paused" > before);
          (* an unrelated connection is still served while the slow
             reader is stalled *)
          with_client server (fun c ->
              let d = Client.describe c inst in
              Alcotest.(check string)
                "other connections unaffected" "4" (field d "jobs"));
          (* draining the slow reader unsticks everything: one reply per
             request, ids complete (order across the overload boundary
             is not guaranteed with two workers) *)
          let ids = List.map response_id (read_responses fd n) in
          Alcotest.(check (list string))
            "every request answered exactly once"
            (List.sort compare (List.init n (fun i -> Printf.sprintf "s%d" (i + 1))))
            (List.sort compare ids)))

let test_e2e_mid_request_disconnect () =
  (* A client that dies halfway through a frame must cost the server
     nothing: the connection is reaped and new clients are served. *)
  with_server (fun server ->
      let fd = connect_raw server in
      Suu_server.Lineio.write_all fd
        "suu-request v1\nid half\ntype describe\ninstance\nsuu-instance v1\n";
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec check_reaped () =
        let reaped =
          with_client server (fun c ->
              let st = Client.stats c () in
              field st "connections" = "1")
        in
        if reaped then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "half-dead connection never reaped"
        else begin
          Thread.delay 0.02;
          check_reaped ()
        end
      in
      check_reaped ())

let test_e2e_line_too_long_counted () =
  (* A line past the 8 MiB cap is refused with a parse error and its
     connection closed; the refusal counts like any other parse error. *)
  with_server (fun server ->
      let fd = connect_raw server in
      let reply =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (* The server closes once the cap is passed, with the rest of
               this write unread, so the write may fail part way. *)
            (try
               Suu_server.Lineio.write_all fd
                 (String.make (9 * 1024 * 1024) 'x' ^ "\n")
             with Unix.Unix_error _ -> ());
            let buf = Buffer.create 128 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | k ->
                  Buffer.add_subbytes buf chunk 0 k;
                  drain ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            in
            drain ();
            Buffer.contents buf)
      in
      Alcotest.(check string) "one parse error, then the connection closes"
        (P.response_to_string
           (P.Err
              { id = None; code = P.Parse;
                message = "line too long; closing connection" }))
        reply;
      with_client server (fun c ->
          let st = Client.stats c () in
          Alcotest.(check string) "counted as a parse error" "1"
            (field st "parse_errors");
          Alcotest.(check string) "counted as a request" "1"
            (field st "requests_total")))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrips" `Quick
            test_request_roundtrips;
          Alcotest.test_case "response roundtrips" `Quick
            test_response_roundtrips;
          Alcotest.test_case "located parse errors" `Quick
            test_located_parse_errors;
          Alcotest.test_case "skip_frame resyncs" `Quick
            test_skip_frame_resyncs;
        ] );
      ( "inst-memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_same_results;
          Alcotest.test_case "mutated blocks parse cold" `Quick
            test_memo_mutations;
          Alcotest.test_case "FIFO eviction under the byte budget" `Quick
            test_memo_eviction;
          Alcotest.test_case "four domains share one parse" `Quick
            test_memo_domain_race;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "fifo and reject-when-full" `Quick
            test_bqueue_fifo_and_reject;
          Alcotest.test_case "close drains" `Quick test_bqueue_close_drains;
          Alcotest.test_case "blocking pop" `Quick test_bqueue_blocking_pop;
        ] );
      ( "metrics",
        [ Alcotest.test_case "render" `Quick test_metrics_render;
          Alcotest.test_case "consistent without a lock" `Quick
            test_metrics_concurrent;
          Alcotest.test_case "stats keys pinned" `Quick test_e2e_stats_keys ] );
      ( "lineio",
        [
          Alcotest.test_case "linebuf 1-byte boundary splits" `Quick
            test_linebuf_boundary_splits;
          Alcotest.test_case "frame split at every read boundary" `Quick
            test_lineio_frame_split_every_boundary;
          Alcotest.test_case "EINTR mid-frame is retried, not EOF" `Quick
            test_lineio_eintr_mid_frame;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parse/roundtrip/determinism" `Quick
            test_faults_spec;
          Alcotest.test_case "retrying client converges" `Quick
            test_e2e_faults_retries_converge;
        ] );
      ( "service",
        [
          Alcotest.test_case "bad sim_jobs fails create" `Quick
            test_service_rejects_bad_sim_jobs;
          Alcotest.test_case "simulate across batch boundaries" `Quick
            test_service_simulate_across_batches;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "service uses the injected monotonic clock"
            `Quick test_service_deadline_monotonic;
          Alcotest.test_case "queued request ignores wall clock" `Quick
            test_e2e_deadline_ignores_wall_clock;
          Alcotest.test_case "uptime follows the injected clock" `Quick
            test_e2e_uptime_follows_clock;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "all request types" `Quick
            test_e2e_all_request_types;
          Alcotest.test_case "errors keep the connection" `Quick
            test_e2e_errors_keep_connection;
          Alcotest.test_case "parse error then valid frame" `Quick
            test_e2e_parse_error_then_valid_frame;
          Alcotest.test_case "overload rejects" `Quick
            test_e2e_overload_rejects;
          Alcotest.test_case "deadline timeout" `Quick
            test_e2e_deadline_timeout;
          Alcotest.test_case "deterministic across pools" `Quick
            test_e2e_deterministic_across_pools;
          Alcotest.test_case "online policies serve deterministically" `Quick
            test_e2e_online_policies_deterministic;
          Alcotest.test_case "graceful shutdown drains" `Quick
            test_e2e_graceful_shutdown_drains;
          Alcotest.test_case "solver parity and stats" `Quick
            test_e2e_solver_parity_and_stats;
        ] );
      ( "event-loop",
        [
          Alcotest.test_case "pipelined requests in one segment" `Quick
            test_e2e_pipelined_one_segment;
          Alcotest.test_case "partial writes park and resume" `Quick
            test_e2e_partial_write_resume;
          Alcotest.test_case "slow reader sheds read interest" `Quick
            test_e2e_slow_reader_backpressure;
          Alcotest.test_case "mid-request disconnect is reaped" `Quick
            test_e2e_mid_request_disconnect;
          Alcotest.test_case "over-long line refused and counted" `Quick
            test_e2e_line_too_long_counted;
        ] );
    ]
