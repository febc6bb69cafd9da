(* The observability layer: histogram bucket edges and quantiles, the
   registry's consistent-snapshot guarantee under concurrent multi-domain
   recording, span nesting in the trace sink, and the JSON reader the
   bench gate is built on. *)

module Obs = Suu_obs
module H = Obs.Histogram

let bounds = [| 0.001; 0.01; 0.1; 1.0 |]

(* --- bucket edges --- *)

let test_bucket_edges () =
  let h = H.create ~bounds () in
  H.record h 0.0;      (* zero: first bucket *)
  H.record h (-1.0);   (* negative clamps into the first bucket *)
  H.record h 0.01;     (* exactly on a boundary: that bucket, not the next *)
  H.record h 0.05;     (* interior *)
  H.record h 1.0;      (* exactly on the last finite bound *)
  H.record h 50.0;     (* over max: overflow *)
  let s = H.snapshot h in
  Alcotest.(check int) "count" 6 s.H.count;
  Alcotest.(check (array int)) "bucket placement"
    [| 2; 1; 1; 1; 1 |] s.H.buckets;
  (* sum clamps the negative record at zero *)
  Alcotest.(check (float 1e-9)) "sum" 51.06 s.H.sum

let test_empty () =
  let h = H.create ~bounds () in
  let s = H.snapshot h in
  Alcotest.(check int) "count" 0 s.H.count;
  Alcotest.(check (float 0.0)) "median of nothing" 0.0 (H.quantile h s 0.5);
  Alcotest.(check (float 0.0)) "mean of nothing" 0.0 (H.mean s)

(* --- quantiles --- *)

let test_quantile_monotone () =
  let h = H.create () in
  let rng = Suu_prng.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    H.record h (Float.pow 10.0 (Suu_prng.Rng.range rng ~lo:(-6.0) ~hi:1.5))
  done;
  let s = H.snapshot h in
  let prev = ref neg_infinity in
  for k = 0 to 100 do
    let q = H.quantile h s (float_of_int k /. 100.0) in
    if q < !prev then
      Alcotest.failf "quantile not monotone: p=%d%% gave %g after %g" k q
        !prev;
    prev := q
  done

(* --- snapshot merge (router stats aggregation) --- *)

let record_many h rng n =
  for _ = 1 to n do
    H.record h (Float.pow 10.0 (Suu_prng.Rng.range rng ~lo:(-6.0) ~hi:1.5))
  done

let test_merge_equals_union () =
  (* Merging two shards' snapshots must equal the snapshot of one
     histogram that saw every value — same buckets, count, sum, max. *)
  let a = H.create () and b = H.create () and u = H.create () in
  let rng = Suu_prng.Rng.create ~seed:42 in
  let vs1 = Array.init 500 (fun _ -> Suu_prng.Rng.range rng ~lo:0.0 ~hi:20.0) in
  let vs2 = Array.init 300 (fun _ -> Suu_prng.Rng.range rng ~lo:0.0 ~hi:60.0) in
  Array.iter (fun v -> H.record a v; H.record u v) vs1;
  Array.iter (fun v -> H.record b v; H.record u v) vs2;
  let m = H.merge (H.snapshot a) (H.snapshot b) in
  let su = H.snapshot u in
  Alcotest.(check int) "count" su.H.count m.H.count;
  Alcotest.(check (float 1e-9)) "sum" su.H.sum m.H.sum;
  Alcotest.(check (float 0.0)) "max" su.H.max m.H.max;
  Alcotest.(check (array int)) "buckets" su.H.buckets m.H.buckets;
  (* and therefore every quantile agrees exactly *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q%g" p)
        (H.quantile u su p) (H.quantile u m p))
    [ 0.5; 0.95; 0.99 ]

let test_merge_quantile_monotone () =
  (* Quantiles of a merged snapshot stay monotone in p, across many
     random shard pairs (the satellite's acceptance property). *)
  let rng = Suu_prng.Rng.create ~seed:9 in
  for _trial = 1 to 25 do
    let a = H.create () and b = H.create () in
    record_many a rng (1 + Suu_prng.Rng.int rng 400);
    record_many b rng (1 + Suu_prng.Rng.int rng 400);
    let m = H.merge (H.snapshot a) (H.snapshot b) in
    let prev = ref neg_infinity in
    for k = 0 to 100 do
      let q = H.quantile a m (float_of_int k /. 100.0) in
      if q < !prev then
        Alcotest.failf "merged quantile not monotone: p=%d%% gave %g after %g"
          k q !prev;
      prev := q
    done
  done

let test_merge_layout_mismatch () =
  let a = H.create () and b = H.create ~bounds () in
  match H.merge (H.snapshot a) (H.snapshot b) with
  | _ -> Alcotest.fail "merging mismatched layouts should raise"
  | exception Invalid_argument _ -> ()

let test_raw_roundtrip () =
  let rng = Suu_prng.Rng.create ~seed:11 in
  for _trial = 1 to 25 do
    let h = H.create () in
    record_many h rng (Suu_prng.Rng.int rng 300);
    let s = H.snapshot h in
    match H.snapshot_of_raw (H.raw_of_snapshot s) with
    | None -> Alcotest.fail "raw round-trip failed to parse"
    | Some s' ->
        Alcotest.(check int) "count" s.H.count s'.H.count;
        Alcotest.(check (float 0.0)) "sum exact" s.H.sum s'.H.sum;
        Alcotest.(check (float 0.0)) "max exact" s.H.max s'.H.max;
        Alcotest.(check (array int)) "buckets" s.H.buckets s'.H.buckets
  done;
  (* malformed inputs are rejected, not crashes *)
  List.iter
    (fun bad ->
      match H.snapshot_of_raw bad with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed raw %S" bad)
    [ ""; "1 2.0"; "x 0 0 0"; "1 0 0 -3"; "1 nope 0 0" ]

let test_quantile_brackets () =
  (* 100 values in (0.01, 0.1]: every interior quantile interpolates
     within that bucket's range. *)
  let h = H.create ~bounds () in
  for _ = 1 to 100 do
    H.record h 0.05
  done;
  let s = H.snapshot h in
  List.iter
    (fun p ->
      let q = H.quantile h s p in
      if q < 0.01 || q > 0.1 then
        Alcotest.failf "p%.0f quantile %g escaped the (0.01, 0.1] bucket"
          (100.0 *. p) q)
    [ 0.1; 0.5; 0.9; 0.99 ];
  (* Overflow ranks report the observed maximum, not the last finite
     bound — a 99 s stall must not masquerade as the 1 s bucket cap. *)
  let h2 = H.create ~bounds () in
  H.record h2 99.0;
  let s2 = H.snapshot h2 in
  Alcotest.(check (float 1e-9)) "overflow quantile = observed max" 99.0
    (H.quantile h2 s2 0.5);
  Alcotest.(check (float 1e-9)) "snapshot carries the max" 99.0 s2.H.max;
  (* A mix of in-range and overflow values: interior quantiles stay in
     their buckets, the tail reports the true max, monotone throughout. *)
  let h3 = H.create ~bounds () in
  for _ = 1 to 90 do
    H.record h3 0.05
  done;
  for _ = 1 to 10 do
    H.record h3 250.0
  done;
  let s3 = H.snapshot h3 in
  Alcotest.(check bool) "p50 stays in its bucket" true
    (H.quantile h3 s3 0.5 <= 0.1);
  Alcotest.(check (float 1e-9)) "p99 reports the observed max" 250.0
    (H.quantile h3 s3 0.99);
  (* Negative and NaN records are clamped to zero everywhere: buckets,
     sum and max must describe the same (clamped) value. *)
  let h4 = H.create ~bounds () in
  H.record h4 (-3.0);
  H.record h4 Float.nan;
  let s4 = H.snapshot h4 in
  Alcotest.(check int) "clamped records counted" 2 s4.H.count;
  Alcotest.(check int) "clamped records land in bucket 0" 2 s4.H.buckets.(0);
  Alcotest.(check (float 0.0)) "clamped sum" 0.0 s4.H.sum;
  Alcotest.(check (float 0.0)) "clamped max" 0.0 s4.H.max

(* --- registry consistency under concurrent recording --- *)

let test_snapshot_consistency () =
  Obs.Registry.reset_for_testing ();
  let c = Obs.Registry.counter "t.consistency" in
  let h = Obs.Registry.histogram "t.consistency" in
  let domains = 4 and per_domain = 5_000 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  (* A reader domain snapshots continuously: in every cut the histogram's
     total must equal the counter bumped in the same Registry.observe. *)
  let reader =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          let snap = Obs.Registry.snapshot () in
          let cv =
            List.assoc_opt "t.consistency" snap.Obs.Registry.counters
          in
          let hv =
            List.find_map
              (fun (name, _, s) ->
                if String.equal name "t.consistency" then Some s.H.count
                else None)
              snap.Obs.Registry.histograms
          in
          (match (cv, hv) with
          | Some cv, Some hv when cv <> hv -> Atomic.incr violations
          | Some _, Some _ -> ()
          | _ -> Atomic.incr violations);
          incr n
        done;
        !n)
  in
  let writers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Registry.observe c h
                (0.0001 *. float_of_int (((d * per_domain) + i) mod 100))
            done))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  let snapshots_taken = Domain.join reader in
  Alcotest.(check int) "no torn snapshots" 0 (Atomic.get violations);
  if snapshots_taken < 2 then
    Alcotest.failf "reader only managed %d snapshots" snapshots_taken;
  (* Deterministic final state regardless of interleaving. *)
  let snap = Obs.Registry.snapshot () in
  Alcotest.(check (option int))
    "final counter" (Some (domains * per_domain))
    (List.assoc_opt "t.consistency" snap.Obs.Registry.counters);
  let hs = H.snapshot h in
  Alcotest.(check int) "final histogram total" (domains * per_domain)
    hs.H.count;
  Obs.Registry.reset_for_testing ()

(* --- spans and the trace sink --- *)

let test_span_nesting () =
  Obs.Registry.reset_for_testing ();
  let buf = Buffer.create 256 in
  Obs.Trace_sink.use_buffer_for_testing (Some buf);
  Obs.Span.with_span "t.outer" (fun () ->
      Obs.Span.with_span "t.inner" (fun () -> ()));
  Obs.Trace_sink.use_buffer_for_testing None;
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "two spans emitted" 2 (List.length lines);
  let find name =
    match
      List.find_opt
        (fun l ->
          match Suu_util.Json.of_string l with
          | j ->
              Suu_util.Json.to_string (Suu_util.Json.member "name" j)
              = Some name
          | exception _ -> false)
        lines
    with
    | Some l -> Suu_util.Json.of_string l
    | None -> Alcotest.failf "span %s not in trace" name
  in
  let inner = find "t.inner" and outer = find "t.outer" in
  let num k j = Suu_util.Json.to_float (Suu_util.Json.member k j) in
  Alcotest.(check (option (float 0.0)))
    "inner parented to outer" (num "id" outer) (num "parent" inner);
  Alcotest.(check (option (float 0.0)))
    "outer is a root" None (num "parent" outer);
  (* Both spans also landed in registry histograms. *)
  let snap = Obs.Registry.snapshot () in
  Alcotest.(check int) "two phase histograms" 2
    (List.length snap.Obs.Registry.histograms);
  Obs.Registry.reset_for_testing ()

let test_disabled_is_transparent () =
  Obs.Registry.reset_for_testing ();
  Obs.Registry.set_enabled false;
  let r = Obs.Span.with_span "t.off" (fun () -> 42) in
  Obs.Registry.set_enabled true;
  Alcotest.(check int) "body result passes through" 42 r;
  let snap = Obs.Registry.snapshot () in
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length snap.Obs.Registry.histograms)

(* --- the gate's JSON reader --- *)

let test_json_roundtrip () =
  let j =
    Suu_util.Json.of_string
      {|{"a": {"b": [1, 2.5, -3e-2]}, "s": "x\ny", "t": true, "n": null}|}
  in
  let module J = Suu_util.Json in
  Alcotest.(check (option (float 1e-12)))
    "nested number" (Some 2.5)
    (match J.to_list (J.path [ "a"; "b" ] j) with
    | Some [ _; x; _ ] -> J.to_float (Some x)
    | _ -> None);
  Alcotest.(check (option string)) "escapes" (Some "x\ny")
    (J.to_string (J.member "s" j));
  Alcotest.(check (option (float 0.0))) "bool" (Some 1.0)
    (J.to_float (J.member "t" j));
  (match J.of_string "{\"a\": 1," with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated JSON should not parse");
  match J.of_string "[1, 2] trailing" with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "trailing garbage should not parse"

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "quantile monotone" `Quick
            test_quantile_monotone;
          Alcotest.test_case "quantile brackets" `Quick
            test_quantile_brackets;
          Alcotest.test_case "merge equals union" `Quick
            test_merge_equals_union;
          Alcotest.test_case "merged quantiles monotone" `Quick
            test_merge_quantile_monotone;
          Alcotest.test_case "merge layout mismatch" `Quick
            test_merge_layout_mismatch;
          Alcotest.test_case "raw codec round-trip" `Quick
            test_raw_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "concurrent snapshot consistency" `Quick
            test_snapshot_consistency;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting in trace" `Quick test_span_nesting;
          Alcotest.test_case "disabled is transparent" `Quick
            test_disabled_is_transparent;
        ] );
      ( "json",
        [ Alcotest.test_case "reader" `Quick test_json_roundtrip ] );
    ]
