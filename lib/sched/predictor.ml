module Instance = Suu_core.Instance
module Rng = Suu_prng.Rng

type cls = {
  window : float array; (* ring buffer of the last-k runtimes *)
  mutable filled : int; (* min(observations, window length) *)
  mutable next : int; (* ring write position *)
  sum : float array;
  (* one slot: the sum of the [filled] live entries, kept in a float
     array so that updating it allocates nothing (a mutable float field
     of this mixed record would be boxed at every write) *)
  mutable total : int; (* observations ever *)
  initial : float; (* jittered model estimate, used while empty *)
}

type t = { class_of : int array; (* job -> class (best machine) *)
           classes : cls array }

let ln2 = Float.log 2.0
let e_threshold = 1.0 /. ln2 (* E[-log2 r], r ~ U(0,1) *)

let execution_seed ~digest ~policy rng =
  let h1 = Hashtbl.hash digest and h2 = Hashtbl.hash policy in
  (Int64.to_int (Rng.bits64 rng) lxor (h1 * 0x9e3779b1)
  lxor (h2 * 0x85ebca6b))
  land max_int

type model = {
  mclass_of : int array;
  estimate : float array; (* per class: the model estimate, unjittered *)
  mwindow : int;
  mjitter : float;
}

let check fn ~window ~jitter =
  if window < 1 then invalid_arg (fn ^ ": window must be >= 1");
  if jitter < 0.0 then invalid_arg (fn ^ ": jitter must be >= 0")

let model ?(window = 8) ?(jitter = 0.1) inst =
  check "Predictor.model" ~window ~jitter;
  let n = Instance.n inst and m = Instance.m inst in
  let class_of = Array.init n (fun j -> Instance.best_machine inst j) in
  (* Model estimate per class: expected steps of a threshold-E[w] job
     on its best machine, the mean over member jobs, summed in job
     order.  A zero-failure machine (l = infinity) completes any job
     in one step. *)
  let sum = Array.make m 0.0 and members = Array.make m 0 in
  for j = 0 to n - 1 do
    let i = class_of.(j) in
    let l = Instance.log_failure inst i j in
    let est = if l = infinity then 1.0 else e_threshold /. l in
    sum.(i) <- sum.(i) +. est;
    members.(i) <- members.(i) + 1
  done;
  let estimate =
    Array.init m (fun i ->
        if members.(i) = 0 then 1.0
        else Float.max 1.0 (sum.(i) /. float_of_int members.(i)))
  in
  { mclass_of = class_of; estimate; mwindow = window; mjitter = jitter }

let of_model md ~seed =
  let rng = Rng.create ~seed in
  let jitter = md.mjitter in
  (* One jitter factor per class, drawn in machine order so the stream
     is independent of which classes are inhabited. *)
  let factor =
    Array.map
      (fun _ -> 1.0 +. (jitter *. Rng.range rng ~lo:(-1.0) ~hi:1.0))
      md.estimate
  in
  let classes =
    Array.mapi
      (fun i est ->
        { window = Array.make md.mwindow 0.0; filled = 0; next = 0;
          sum = [| 0.0 |];
          total = 0; initial = Float.max 1.0 (est *. factor.(i)) })
      md.estimate
  in
  { class_of = md.mclass_of; classes }

let create ?(window = 8) ?(jitter = 0.1) inst ~seed =
  check "Predictor.create" ~window ~jitter;
  of_model (model ~window ~jitter inst) ~seed

(* Inlined into [predicted_steps], which so never boxes the float. *)
let[@inline] predict t j =
  let c = t.classes.(t.class_of.(j)) in
  if c.filled = 0 then c.initial
  else Float.max 1.0 (c.sum.(0) /. float_of_int c.filled)

let predicted_steps t j = int_of_float (Float.ceil (predict t j))

let observe t ~job ~runtime =
  let c = t.classes.(t.class_of.(job)) in
  let r = float_of_int (max 1 runtime) in
  let k = Array.length c.window in
  if c.filled = k then c.sum.(0) <- c.sum.(0) -. c.window.(c.next)
  else c.filled <- c.filled + 1;
  c.window.(c.next) <- r;
  c.sum.(0) <- c.sum.(0) +. r;
  c.next <- (c.next + 1) mod k;
  c.total <- c.total + 1

let observed t j = (t.classes.(t.class_of.(j))).total
