(* Tests for the suu-store subsystem: CRC32, the binary codec, the
   CRC-framed record log and its torn-tail recovery, the
   content-addressed result store's contiguous-prefix semantics, the
   store-backed memoization of Runner.makespans (including kill-resume
   determinism), the write-ahead journal, deterministic replay, service
   cache warm-start, and crash-safe instance saves. *)

module Crc32 = Suu_util.Crc32
module Codec = Suu_store.Codec
module Record_log = Suu_store.Record_log
module Result_store = Suu_store.Result_store
module Journal = Suu_store.Journal
module Memo = Suu_store.Memo
module P = Suu_server.Protocol
module W = Suu_workload.Workload

let counter_get name = Suu_obs.Counter.get (Suu_obs.Registry.counter name)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "suu_store_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.mkdir d 0o755;
  d

let fresh_path name =
  Filename.concat (fresh_dir ()) name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_bytes path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

(* --- crc32 --- *)

let test_crc32_vector () =
  (* The IEEE 802.3 check value: zlib's crc32("123456789"). *)
  Alcotest.(check int32)
    "zlib check vector" 0xCBF43926l
    (Crc32.string "123456789");
  Alcotest.(check int32) "empty string" 0l (Crc32.string "")

let test_crc32_continuation () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  let k = 17 in
  let first = Crc32.sub s ~pos:0 ~len:k in
  let cont = Crc32.sub ~crc:first s ~pos:k ~len:(String.length s - k) in
  Alcotest.(check int32) "chunked = whole" whole cont

(* --- codec --- *)

let test_codec_roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"codec roundtrips (int,float,string,array)"
    QCheck.(quad int float string (array float))
    (fun (i, f, s, fs) ->
      let e = Codec.encoder () in
      Codec.add_int e i;
      Codec.add_float e f;
      Codec.add_string e s;
      Codec.add_float_array e fs;
      let d = Codec.decoder (Codec.contents e) in
      let i' = Codec.int d in
      let f' = Codec.float d in
      let s' = Codec.string d in
      let fs' = Codec.float_array d in
      let at_end = Codec.at_end d in
      (* Bit equality, not (=): the codec must preserve every float
         payload including negative zero and NaN bit patterns. *)
      i' = i
      && Int64.equal (Int64.bits_of_float f') (Int64.bits_of_float f)
      && String.equal s' s
      && Array.length fs' = Array.length fs
      && Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           fs' fs
      && at_end)

let test_codec_truncation () =
  let e = Codec.encoder () in
  Codec.add_string e "hello";
  Codec.add_int e 42;
  let payload = Codec.contents e in
  for cut = 0 to String.length payload - 1 do
    let d = Codec.decoder (String.sub payload 0 cut) in
    let corrupt =
      match
        let s = Codec.string d in
        let i = Codec.int d in
        (s, i)
      with
      | _ -> false
      | exception Codec.Corrupt _ -> true
    in
    if not corrupt then
      Alcotest.failf "truncation to %d bytes decoded without Corrupt" cut
  done

(* --- record log --- *)

let test_record_log_roundtrip () =
  let path = fresh_path "log" in
  let log, recovered = Record_log.open_log path in
  Alcotest.(check int) "fresh log is empty" 0 (List.length recovered);
  Record_log.append log "alpha";
  Record_log.append log "beta";
  Record_log.append log "";
  Record_log.close log;
  Alcotest.(check (list string))
    "read sees all records" [ "alpha"; "beta"; "" ] (Record_log.read path);
  let log, recovered = Record_log.open_log path in
  Alcotest.(check (list string))
    "reopen recovers all records" [ "alpha"; "beta"; "" ] recovered;
  Record_log.close log

let test_record_log_torn_tail () =
  let path = fresh_path "log" in
  let log, _ = Record_log.open_log path in
  Record_log.append log "committed-1";
  Record_log.append log "committed-2";
  Record_log.close log;
  let good_size = (Unix.stat path).Unix.st_size in
  (* A frame announcing 64 payload bytes but supplying 3: what a kill -9
     between write and completion leaves. *)
  append_bytes path "\x40\x00\x00\x00\xde\xad\xbe\xefxyz";
  Alcotest.(check (list string))
    "read ignores the torn tail" [ "committed-1"; "committed-2" ]
    (Record_log.read path);
  let truncated0 = counter_get "store.truncated" in
  let log, recovered = Record_log.open_log path in
  Alcotest.(check (list string))
    "recovery keeps the committed prefix" [ "committed-1"; "committed-2" ]
    recovered;
  Alcotest.(check int)
    "file truncated back to the committed prefix" good_size
    (Unix.stat path).Unix.st_size;
  Alcotest.(check bool)
    "store.truncated counted" true
    (counter_get "store.truncated" > truncated0);
  (* The log must be appendable after recovery. *)
  Record_log.append log "post-recovery";
  Record_log.close log;
  Alcotest.(check (list string))
    "append after recovery lands cleanly"
    [ "committed-1"; "committed-2"; "post-recovery" ]
    (Record_log.read path)

let test_record_log_crc_flip () =
  let path = fresh_path "log" in
  let log, _ = Record_log.open_log path in
  Record_log.append log "first";
  Record_log.append log "second";
  Record_log.close log;
  (* Flip one byte inside the LAST record's payload: the CRC rejects
     it, and recovery truncates from that frame on. *)
  let data = read_file path in
  let b = Bytes.of_string data in
  let pos = Bytes.length b - 2 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file path (Bytes.to_string b);
  let log2, recovered = Record_log.open_log path in
  Record_log.close log2;
  Alcotest.(check (list string))
    "corrupt record and successors dropped" [ "first" ] recovered

let test_record_log_empty_and_missing () =
  let path = fresh_path "log" in
  Alcotest.(check (list string))
    "read of a missing file is empty" [] (Record_log.read path);
  (* A pre-existing 0-byte file counts as fresh, not foreign. *)
  write_file path "";
  let log, recovered = Record_log.open_log path in
  Alcotest.(check int) "empty file is a fresh log" 0 (List.length recovered);
  Record_log.append log "x";
  Record_log.close log;
  Alcotest.(check (list string)) "usable after" [ "x" ] (Record_log.read path)

let test_record_log_foreign_file () =
  let path = fresh_path "log" in
  write_file path "this is not a record log, honest\n";
  (match Record_log.read path with
  | _ -> Alcotest.fail "read accepted a foreign file"
  | exception Failure _ -> ());
  match Record_log.open_log path with
  | _ -> Alcotest.fail "open_log accepted a foreign file"
  | exception Failure _ -> ()

let test_record_log_rewrite () =
  let path = fresh_path "log" in
  Record_log.rewrite path [ "a"; "b"; "c" ];
  Alcotest.(check (list string))
    "rewrite then read" [ "a"; "b"; "c" ] (Record_log.read path);
  let dir = Filename.dirname path in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> Filename.basename path)
  in
  Alcotest.(check (list string)) "no tempfile left behind" [] leftovers

(* --- result store --- *)

let key ?cap ~policy ~seed () =
  { Result_store.digest = "d1"; policy; seed; cap }

let test_result_store_prefix () =
  let dir = fresh_dir () in
  let st = Result_store.open_store dir in
  let k = key ~policy:"p" ~seed:1 () in
  Alcotest.(check int)
    "unknown key is empty" 0
    (Array.length (Result_store.committed st k));
  Result_store.append st k ~start:0 [| 1.0; 2.0; 3.0 |];
  Result_store.append st k ~start:3 [| 4.0; 5.0 |];
  (* A gap: replications 10.. are committed but 5..9 are not, so the
     contiguous prefix stops at 5. *)
  Result_store.append st k ~start:10 [| 99.0 |];
  Alcotest.(check (array (float 0.0)))
    "contiguous prefix only" [| 1.0; 2.0; 3.0; 4.0; 5.0 |]
    (Result_store.committed st k);
  (* Overlapping re-commit is legal and merges. *)
  Result_store.append st k ~start:2 [| 3.0; 4.0; 5.0; 6.0; 7.0 |];
  Alcotest.(check (array (float 0.0)))
    "overlap extends the prefix" [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |]
    (Result_store.committed st k);
  let other = key ~policy:"q" ~seed:1 () in
  Alcotest.(check int)
    "keys are isolated" 0
    (Array.length (Result_store.committed st other));
  Result_store.close st;
  (* Reopen: the index is rebuilt from the log. *)
  let st = Result_store.open_store dir in
  Alcotest.(check (array (float 0.0)))
    "prefix survives reopen" [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |]
    (Result_store.committed st k);
  let s = Result_store.stats st in
  Alcotest.(check int) "one key" 1 s.Result_store.keys;
  Alcotest.(check int) "four records" 4 s.Result_store.records;
  Alcotest.(check bool) "file has bytes" true (s.Result_store.file_bytes > 0);
  Result_store.close st

let test_result_store_cap_in_key () =
  let dir = fresh_dir () in
  let st = Result_store.open_store dir in
  let k_nocap = key ~policy:"p" ~seed:1 () in
  let k_cap = key ~policy:"p" ~seed:1 ~cap:500 () in
  Result_store.append st k_nocap ~start:0 [| 1.0 |];
  Result_store.append st k_cap ~start:0 [| 2.0 |];
  Result_store.close st;
  let st = Result_store.open_store dir in
  Alcotest.(check (array (float 0.0)))
    "cap=None key" [| 1.0 |]
    (Result_store.committed st k_nocap);
  Alcotest.(check (array (float 0.0)))
    "cap=Some key" [| 2.0 |]
    (Result_store.committed st k_cap);
  Result_store.close st

(* --- memo --- *)

let uniform = W.Uniform { lo = 0.2; hi = 0.95 }

let bits = Array.map Int64.bits_of_float

let test_memo_matches_runner () =
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:7 in
  let policy = Suu_core.Baselines.greedy_completion inst in
  let direct = Suu_sim.Runner.makespans inst policy ~seed:11 ~reps:17 in
  let st = Result_store.open_store (fresh_dir ()) in
  let cold = Memo.makespans ~store:st inst policy ~seed:11 ~reps:17 in
  let warm = Memo.makespans ~store:st inst policy ~seed:11 ~reps:17 in
  Result_store.close st;
  Alcotest.(check (array int64)) "cold = direct" (bits direct) (bits cold);
  Alcotest.(check (array int64)) "warm = direct" (bits direct) (bits warm)

let test_memo_kill_resume () =
  let inst = W.independent uniform ~n:8 ~m:3 ~seed:9 in
  let policy = Suu_core.Baselines.greedy_completion inst in
  let reps = 20 in
  let direct = Suu_sim.Runner.makespans inst policy ~seed:5 ~reps in
  let dir = fresh_dir () in
  (* "Killed" run: only 7 of 20 replications were committed (in batches
     of 3, so the last partial batch is also exercised), then the
     process died — simulated by closing the store. *)
  let st = Result_store.open_store dir in
  ignore (Memo.makespans ~store:st ~batch:3 inst policy ~seed:5 ~reps:7);
  Result_store.close st;
  (* Emulate the torn final append a kill -9 can leave. *)
  append_bytes (Filename.concat dir "results.log") "\x10\x00\x00\x00ZZ";
  (* Resumed run: serves the committed prefix, computes the rest. *)
  let st = Result_store.open_store dir in
  let served0 = counter_get "store.memo.served" in
  let computed0 = counter_get "store.memo.computed" in
  let resumed = Memo.makespans ~store:st ~batch:3 inst policy ~seed:5 ~reps in
  Result_store.close st;
  Alcotest.(check (array int64))
    "resumed = uninterrupted" (bits direct) (bits resumed);
  Alcotest.(check int)
    "prefix served from the store" 7
    (counter_get "store.memo.served" - served0);
  Alcotest.(check int)
    "only the tail recomputed" (reps - 7)
    (counter_get "store.memo.computed" - computed0)

(* Persisted results are found again only if the key's digest stays put:
   pin the key a fixed instance's results are committed under. *)
let test_memo_key_pinned () =
  let inst =
    Suu_core.Instance.make ~name:"pinned"
      ~dag:(Suu_dag.Dag.of_edges ~n:3 [ (0, 2); (1, 2) ])
      [| [| 0.5; 0.125; 0.0 |]; [| 1.0 /. 3.0; 0.9999; 1.0 |] |]
  in
  let policy = Suu_core.Baselines.greedy_completion inst in
  let st = Result_store.open_store (fresh_dir ()) in
  let got = Memo.makespans ~store:st inst policy ~seed:3 ~reps:5 in
  let key =
    { Result_store.digest = "9843ee60d6d2fcca32c069348adb67af";
      policy = Suu_core.Policy.name policy; seed = 3; cap = None }
  in
  let stored = Result_store.committed st key in
  Result_store.close st;
  Alcotest.(check (array int64)) "committed under the pinned key"
    (bits got) (bits stored)

(* --- journal --- *)

let test_journal_pairing () =
  let path = fresh_path "journal" in
  let j, recovered = Journal.open_journal path in
  Alcotest.(check int) "fresh journal" 0 (List.length recovered);
  Alcotest.(check int) "fresh next_seq" 0 (Journal.next_seq recovered);
  Journal.log_request j ~seq:0 "req-zero";
  Journal.log_response j ~seq:0 "resp-zero";
  Journal.log_request j ~seq:1 "req-one (in flight at death)";
  Journal.close j;
  let entries = Journal.read path in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  (match entries with
  | [ e0; e1 ] ->
      Alcotest.(check int) "seq 0" 0 e0.Journal.seq;
      Alcotest.(check string) "request 0" "req-zero" e0.Journal.request;
      Alcotest.(check (option string))
        "response 0" (Some "resp-zero") e0.Journal.response;
      Alcotest.(check (option string))
        "in-flight request has no response" None e1.Journal.response
  | _ -> Alcotest.fail "wrong entry count");
  Alcotest.(check int) "next_seq continues" 2 (Journal.next_seq entries);
  (* A torn tail does not block read-only recovery. *)
  append_bytes path "\x40\x00\x00\x00\x01\x02\x03\x04partial";
  Alcotest.(check int)
    "read ignores torn tail" 2
    (List.length (Journal.read path))

(* --- replay --- *)

let small_inst = W.independent uniform ~n:6 ~m:2 ~seed:3

let request body = { P.id = Some "r1"; deadline_ms = None; body }

let test_replay_roundtrip () =
  (* Capture real traffic through a journal-armed server, then verify
     replay reproduces every response byte-for-byte. *)
  let module Server = Suu_server.Server in
  let module Client = Suu_server.Client in
  let path = fresh_path "journal" in
  let config =
    { Server.default_config with port = 0; journal = Some path }
  in
  let server = Server.start ~config () in
  let c = Client.connect ~port:(Server.port server) () in
  ignore (Client.call c (P.Describe small_inst));
  ignore
    (Client.call c
       (P.Simulate { inst = small_inst; policy = "auto"; reps = 5; seed = 2 }));
  (* A deterministic error: unknown policy replies bad-request, and
     replay must reproduce that too. *)
  ignore
    (Client.call c
       (P.Plan { inst = small_inst; policy = "no-such-policy"; seed = 0 }));
  ignore (Client.call c P.Stats);
  Client.close c;
  Server.stop server;
  let o = Suu_server.Replay.file path in
  Alcotest.(check int) "four entries" 4 o.Suu_server.Replay.total;
  Alcotest.(check int) "three replayed" 3 o.Suu_server.Replay.replayed;
  Alcotest.(check int) "all matched" 3 o.Suu_server.Replay.matched;
  Alcotest.(check int) "none mismatched" 0 o.Suu_server.Replay.mismatched;
  Alcotest.(check int) "stats skipped" 1 o.Suu_server.Replay.skipped

let test_replay_detects_tamper () =
  let path = fresh_path "journal" in
  let j, _ = Journal.open_journal path in
  let body =
    P.Simulate { inst = small_inst; policy = "greedy"; reps = 4; seed = 1 }
  in
  Journal.log_request j ~seq:0 (P.request_to_string (request body));
  (* A well-formed but wrong recorded response: the journal says the
     mean was 999, the service will compute something else. *)
  Journal.log_response j ~seq:0
    (P.response_to_string
       (P.Ok
          { id = Some "r1"; rtype = "simulate"; fields = [ ("mean", "999") ] }));
  Journal.close j;
  let o = Suu_server.Replay.file path in
  Alcotest.(check int) "one mismatch" 1 o.Suu_server.Replay.mismatched;
  match o.Suu_server.Replay.mismatches with
  | [ m ] ->
      Alcotest.(check int) "mismatch seq" 0 m.Suu_server.Replay.seq;
      Alcotest.(check bool)
        "frames differ" false
        (String.equal m.Suu_server.Replay.expected
           m.Suu_server.Replay.actual)
  | _ -> Alcotest.fail "expected exactly one recorded mismatch"

let test_replay_skip_rules () =
  let path = fresh_path "journal" in
  let j, _ = Journal.open_journal path in
  (* seq 0: response lost (in flight at death). *)
  Journal.log_request j ~seq:0
    (P.request_to_string (request (P.Describe small_inst)));
  (* seq 1: recorded overloaded error — a function of load, skipped. *)
  Journal.log_request j ~seq:1
    (P.request_to_string (request (P.Describe small_inst)));
  Journal.log_response j ~seq:1
    (P.response_to_string
       (P.Err { id = Some "r1"; code = P.Overloaded; message = "queue full" }));
  Journal.close j;
  let o = Suu_server.Replay.file path in
  Alcotest.(check int) "both skipped" 2 o.Suu_server.Replay.skipped;
  Alcotest.(check int) "none replayed" 0 o.Suu_server.Replay.replayed

(* --- service warm-start --- *)

let test_warm_start_no_double_count () =
  let service =
    Suu_server.Service.create ~metrics:(Suu_server.Metrics.create ()) ()
  in
  let pc0 = Suu_core.Plan_cache.global_stats () in
  let loaded0 = counter_get "store.warm_start.loaded" in
  let warmed =
    Suu_server.Service.warm service
      (P.Simulate { inst = small_inst; policy = "suu-i-sem"; reps = 5; seed = 1 })
  in
  Alcotest.(check bool) "simulate body warms" true warmed;
  Alcotest.(check bool)
    "describe body warms" true
    (Suu_server.Service.warm service (P.Describe small_inst));
  Alcotest.(check bool)
    "stats body does not" false (Suu_server.Service.warm service P.Stats);
  let pc1 = Suu_core.Plan_cache.global_stats () in
  (* The warm-start satellite contract: booting from a journal must not
     inflate the plan-cache statistics a client later reads. *)
  Alcotest.(check int)
    "plan cache hits untouched" pc0.Suu_core.Plan_cache.hits
    pc1.Suu_core.Plan_cache.hits;
  Alcotest.(check int)
    "plan cache misses untouched" pc0.Suu_core.Plan_cache.misses
    pc1.Suu_core.Plan_cache.misses;
  Alcotest.(check int)
    "warm_start.loaded counted" 2
    (counter_get "store.warm_start.loaded" - loaded0)

(* --- crash-safe instance save --- *)

let test_save_file_crash_safe () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "inst.suu" in
  Suu_core.Instance_io.save_file path small_inst;
  Alcotest.(check string)
    "load = save"
    (Suu_core.Instance_io.to_string small_inst)
    (Suu_core.Instance_io.to_string (Suu_core.Instance_io.load_file path));
  (* Overwrite in place: the rename path, not the create path. *)
  let other = W.independent uniform ~n:4 ~m:2 ~seed:8 in
  Suu_core.Instance_io.save_file path other;
  Alcotest.(check string)
    "overwrite = new contents"
    (Suu_core.Instance_io.to_string other)
    (Suu_core.Instance_io.to_string (Suu_core.Instance_io.load_file path));
  let leftovers =
    Array.to_list (Sys.readdir dir) |> List.filter (fun f -> f <> "inst.suu")
  in
  Alcotest.(check (list string)) "no tempfile left behind" [] leftovers

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "zlib vector" `Quick test_crc32_vector;
          Alcotest.test_case "chunked continuation" `Quick
            test_crc32_continuation;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest test_codec_roundtrip_qcheck;
          Alcotest.test_case "truncation raises Corrupt" `Quick
            test_codec_truncation;
        ] );
      ( "record-log",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_log_roundtrip;
          Alcotest.test_case "torn tail recovery" `Quick
            test_record_log_torn_tail;
          Alcotest.test_case "crc flip drops the record" `Quick
            test_record_log_crc_flip;
          Alcotest.test_case "empty and missing files" `Quick
            test_record_log_empty_and_missing;
          Alcotest.test_case "foreign file refused" `Quick
            test_record_log_foreign_file;
          Alcotest.test_case "atomic rewrite" `Quick test_record_log_rewrite;
        ] );
      ( "result-store",
        [
          Alcotest.test_case "contiguous prefix" `Quick
            test_result_store_prefix;
          Alcotest.test_case "cap distinguishes keys" `Quick
            test_result_store_cap_in_key;
        ] );
      ( "memo",
        [
          Alcotest.test_case "bit-identical to Runner" `Quick
            test_memo_matches_runner;
          Alcotest.test_case "kill-resume determinism" `Quick
            test_memo_kill_resume;
          Alcotest.test_case "store key pinned" `Quick test_memo_key_pinned;
        ] );
      ( "journal",
        [ Alcotest.test_case "pairing and next_seq" `Quick test_journal_pairing ]
      );
      ( "replay",
        [
          Alcotest.test_case "captured traffic replays byte-identically"
            `Quick test_replay_roundtrip;
          Alcotest.test_case "tampered response detected" `Quick
            test_replay_detects_tamper;
          Alcotest.test_case "skip rules" `Quick test_replay_skip_rules;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "no plan-cache double count" `Quick
            test_warm_start_no_double_count;
        ] );
      ( "instance-io",
        [
          Alcotest.test_case "crash-safe save" `Quick
            test_save_file_crash_safe;
        ] );
    ]
