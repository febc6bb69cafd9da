(* Merge per-shard [stats] field lists into one cluster view.

   Rules, per key:
   - [obs.phase.<name>.*]: the pre-rendered per-shard quantiles are
     dropped and the whole group is recomputed from the lossless
     [.raw] bucket snapshots (Histogram.merge) — averaging quantiles
     would be wrong, summing them worse.
   - integer-valued keys (request counters, cache hits, the obs
     counters): summed.  [uptime_ms] takes the max —
     shards started together but "sum of uptimes" means nothing.
   - [plan_cache_hit_rate]: recomputed from the summed hits/misses
     rather than averaged, so a hot shard weighs as much as it should.
   - anything else (solver name, hosts, per-LP-shard rates): the first
     source's value wins.

   Output preserves first-seen key order across sources, so the merged
   reply reads like a single shard's reply. *)

module Histogram = Suu_obs.Histogram

let phase_prefix = "obs.phase."

let phase_suffixes =
  [ ".count"; ".mean_ms"; ".p50_ms"; ".p95_ms"; ".p99_ms"; ".raw" ]

(* "obs.phase.server.execute.p95_ms" -> Some ("server.execute", ".p95_ms") *)
let split_phase_key key =
  let plen = String.length phase_prefix in
  if String.length key <= plen || String.sub key 0 plen <> phase_prefix then
    None
  else
    let rest = String.sub key plen (String.length key - plen) in
    List.find_map
      (fun suf ->
        let slen = String.length suf in
        let rlen = String.length rest in
        if rlen > slen && String.sub rest (rlen - slen) slen = suf then
          Some (String.sub rest 0 (rlen - slen), suf)
        else None)
      phase_suffixes

let f17 = Printf.sprintf "%.17g"

type slot =
  | Int of int
  | Max_int of int
  | First of string
  | Phase (* placeholder holding the phase group's position *)

let merge sources =
  let order = ref [] (* reversed first-seen keys *) in
  let slots : (string, slot) Hashtbl.t = Hashtbl.create 128 in
  let phases : (string, Histogram.snapshot) Hashtbl.t = Hashtbl.create 32 in
  let see key slot =
    if not (Hashtbl.mem slots key) then begin
      Hashtbl.add slots key slot;
      order := key :: !order
    end
    else
      match (Hashtbl.find slots key, slot) with
      | Int a, Int b -> Hashtbl.replace slots key (Int (a + b))
      | Max_int a, Max_int b -> Hashtbl.replace slots key (Max_int (max a b))
      | First _, _ | Phase, _ -> ()
      | Int _, _ | Max_int _, _ -> () (* type skew across shards: keep first *)
  in
  List.iter
    (fun fields ->
      List.iter
        (fun (key, value) ->
          match split_phase_key key with
          | Some (name, suffix) ->
              (* One placeholder per phase, at the position of the
                 group's first key; the snapshot accumulates off to the
                 side. *)
              see (phase_prefix ^ name) Phase;
              if suffix = ".raw" then (
                match Histogram.snapshot_of_raw value with
                | None -> ()
                | Some snap -> (
                    match Hashtbl.find_opt phases name with
                    | None -> Hashtbl.add phases name snap
                    | Some prev -> (
                        match Histogram.merge prev snap with
                        | merged -> Hashtbl.replace phases name merged
                        | exception Invalid_argument _ -> ())))
          | None -> (
              match key with
              | "uptime_ms" -> (
                  match int_of_string_opt value with
                  | Some v -> see key (Max_int v)
                  | None -> see key (First value))
              | _ -> (
                  match int_of_string_opt value with
                  | Some v -> see key (Int v)
                  | None -> see key (First value))))
        fields)
    sources;
  (* Quantiles need the bucket bounds; snapshots carry only counts.
     Every registry histogram uses the default layout, so a snapshot
     with the default bucket count renders fully; anything else (a
     future custom-bounds phase) degrades to count/mean/raw. *)
  let default_h =
    lazy (Histogram.create ())
  in
  let render_phase name =
    match Hashtbl.find_opt phases name with
    | None -> []
    | Some snap ->
        let base = phase_prefix ^ name in
        let ms v = Printf.sprintf "%.3f" (1000.0 *. v) in
        let head =
          [ (base ^ ".count", string_of_int snap.Histogram.count);
            (base ^ ".mean_ms", ms (Histogram.mean snap)) ]
        in
        let quantiles =
          if
            Array.length snap.Histogram.buckets
            = Array.length Histogram.default_bounds + 1
          then
            let h = Lazy.force default_h in
            let q p = ms (Histogram.quantile h snap p) in
            [ (base ^ ".p50_ms", q 0.5); (base ^ ".p95_ms", q 0.95);
              (base ^ ".p99_ms", q 0.99) ]
          else []
        in
        head @ quantiles
        @ [ (base ^ ".raw", Histogram.raw_of_snapshot snap) ]
  in
  let fields =
    List.concat_map
      (fun key ->
        match Hashtbl.find slots key with
        | Int v | Max_int v -> [ (key, string_of_int v) ]
        | First v -> [ (key, v) ]
        | Phase ->
            let plen = String.length phase_prefix in
            render_phase (String.sub key plen (String.length key - plen)))
      (List.rev !order)
  in
  (* Weighted-correct hit rate from the summed counts. *)
  let lookup k = List.assoc_opt k fields in
  match (lookup "plan_cache_hits", lookup "plan_cache_misses") with
  | Some h, Some m -> (
      match (int_of_string_opt h, int_of_string_opt m) with
      | Some h, Some m when h + m > 0 ->
          List.map
            (fun (k, v) ->
              if k = "plan_cache_hit_rate" then
                (k, f17 (float_of_int h /. float_of_int (h + m)))
              else (k, v))
            fields
      | _ -> fields)
  | _ -> fields
