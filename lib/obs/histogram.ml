type t = {
  bounds : float array;
  counts : int array; (* one per bound, plus overflow at the end *)
  mutable sum : float;
  mutable count : int;
  mutable vmax : float; (* largest recorded value; 0 when empty *)
  lock : Mutex.t;
}

type snapshot = { count : int; sum : float; buckets : int array; max : float }

(* {1, 2.5, 5} x 10^k seconds, 1us .. 50s.  Wide enough for a single
   LP solve and fine enough to separate a 3us from a 30us span. *)
let default_bounds =
  let decades = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |] in
  let steps = [| 1.0; 2.5; 5.0 |] in
  Array.concat
    (Array.to_list
       (Array.map (fun d -> Array.map (fun s -> s *. d) steps) decades))

let validate_bounds bounds =
  if Array.length bounds = 0 then
    invalid_arg "Histogram.create: empty bounds";
  Array.iteri
    (fun i b ->
      if b <= 0.0 || (i > 0 && b <= bounds.(i - 1)) then
        invalid_arg
          "Histogram.create: bounds must be positive and strictly increasing")
    bounds

let create ?lock ?(bounds = default_bounds) () =
  validate_bounds bounds;
  let lock = match lock with Some l -> l | None -> Mutex.create () in
  { bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0;
    vmax = 0.0; lock }

(* First bucket whose bound is >= v (binary search); overflow past the
   last bound.  v <= 0 lands in bucket 0. *)
let bucket_index t v =
  let nb = Array.length t.bounds in
  if v <= t.bounds.(0) then 0
  else if v > t.bounds.(nb - 1) then nb
  else begin
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    let lo = ref 0 and hi = ref (nb - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= t.bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

(* A negative (or NaN) input is clamped to zero ONCE, so the bucket
   placement, the sum and the running max all describe the same value —
   previously the sum clamped but bucket 0 counted the raw record, so a
   burst of negative inputs dragged the mean while the buckets showed
   plausible zeros. *)
let unsafe_record t v =
  let v = if v > 0.0 then v else 0.0 in
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.vmax then t.vmax <- v

let record t v =
  Mutex.lock t.lock;
  unsafe_record t v;
  Mutex.unlock t.lock

let unsafe_snapshot (t : t) =
  { count = t.count; sum = t.sum; buckets = Array.copy t.counts;
    max = t.vmax }

let snapshot t =
  Mutex.lock t.lock;
  let s = unsafe_snapshot t in
  Mutex.unlock t.lock;
  s

let mean snap =
  if snap.count = 0 then 0.0 else snap.sum /. float_of_int snap.count

(* Merging is exact because bucket layouts are fixed at creation: two
   snapshots with the same number of buckets came from histograms with
   the same bounds (all registry histograms use [default_bounds]), so
   adding counts bucket-wise is the same as having recorded every value
   into one histogram. *)
let merge a b =
  if Array.length a.buckets <> Array.length b.buckets then
    invalid_arg "Histogram.merge: bucket layouts differ";
  { count = a.count + b.count;
    sum = a.sum +. b.sum;
    buckets = Array.init (Array.length a.buckets)
        (fun i -> a.buckets.(i) + b.buckets.(i));
    max = Float.max a.max b.max }

(* Wire codec for snapshots: "<count> <sum> <max> <b0> ... <bn>" with
   %.17g floats so a decode(encode(s)) round-trip is exact.  Used by the
   router to merge per-shard histograms without losing bucket counts to
   the quantile rendering. *)
let raw_of_snapshot s =
  let buf = Buffer.create (16 * (Array.length s.buckets + 3)) in
  Buffer.add_string buf (string_of_int s.count);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Printf.sprintf "%.17g" s.sum);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Printf.sprintf "%.17g" s.max);
  Array.iter
    (fun b ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int b))
    s.buckets;
  Buffer.contents buf

let snapshot_of_raw line =
  match String.split_on_char ' ' (String.trim line) with
  | count :: sum :: vmax :: buckets when buckets <> [] -> (
      try
        let count = int_of_string count in
        let sum = float_of_string sum in
        let max = float_of_string vmax in
        let buckets = Array.of_list (List.map int_of_string buckets) in
        if count < 0 || Array.exists (fun b -> b < 0) buckets then None
        else Some { count; sum; buckets; max }
      with Failure _ -> None)
  | _ -> None

let quantile t snap p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg "Histogram.quantile: p must be in [0, 1]";
  if snap.count = 0 then 0.0
  else begin
    let nb = Array.length t.bounds in
    (* Rank in [0, count]; find the bucket holding it cumulatively. *)
    let rank = p *. float_of_int snap.count in
    let i = ref 0 and cum = ref 0 in
    while
      !i <= nb
      && float_of_int (!cum + snap.buckets.(min !i nb)) < rank
    do
      cum := !cum + snap.buckets.(!i);
      incr i
    done;
    if !i >= nb then
      (* Overflow: a rank lands here only when some value exceeded the
         last bound, so the observed max is both finite and above that
         bound.  Reporting it (instead of capping at bounds.(nb-1))
         keeps a 5-minute stall from masquerading as a 50 s p99. *)
      Float.max snap.max t.bounds.(nb - 1)
    else begin
      let lower = if !i = 0 then 0.0 else t.bounds.(!i - 1) in
      let upper = t.bounds.(!i) in
      let inbucket = snap.buckets.(!i) in
      if inbucket = 0 then upper
      else
        let frac = (rank -. float_of_int !cum) /. float_of_int inbucket in
        lower +. ((upper -. lower) *. Float.max 0.0 (Float.min 1.0 frac))
    end
  end
