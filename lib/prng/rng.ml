(* The xoshiro256** state s0 .. s3, unboxed: four int64 at byte
   offsets 0, 8, 16 and 24.  Mutable int64 record fields would box a
   fresh int64 at every write. *)
type t = Bytes.t

let get t k = Bytes.get_int64_ne t (8 * k) [@@inline]
let set t k v = Bytes.set_int64_ne t (8 * k) v [@@inline]

(* splitmix64: used only to expand a seed into xoshiro state. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    set t k (splitmix_next state)
  done;
  t

let create ~seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline]

(* xoshiro256** next *)
let bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result
[@@inline]

let split t = of_seed64 (bits64 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits for exact uniformity. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let bound = Int64.of_int n in
  let lim = Int64.sub mask (Int64.rem mask bound) in
  let v = ref (Int64.logand (bits64 t) mask) in
  while Int64.unsigned_compare !v lim >= 0 do
    v := Int64.logand (bits64 t) mask
  done;
  Int64.to_int (Int64.rem !v bound)

let float t x =
  (* 53 random bits over [0,1), scaled. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53 *. x

let uniform_open t =
  let u = ref (float t 1.0) in
  while !u <= 0.0 do
    u := float t 1.0
  done;
  !u

let bool t = Int64.logand (bits64 t) 1L = 1L

let range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo +. float t (hi -. lo)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (uniform_open t) /. rate

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 1
  else
    let u = uniform_open t in
    let k = ceil (log u /. log (1.0 -. p)) in
    max 1 (int_of_float k)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
