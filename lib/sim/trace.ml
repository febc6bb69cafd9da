type t = { w : float array }

let draw ~n rng =
  let log2 = log 2.0 in
  let w = Array.make n 0.0 in
  for j = 0 to n - 1 do
    w.(j) <- -.(log (Suu_prng.Rng.uniform_open rng) /. log2)
  done;
  { w }

let of_thresholds w =
  Array.iter
    (fun x ->
      if not (x >= 0.0) then
        invalid_arg "Trace.of_thresholds: negative threshold")
    w;
  { w = Array.copy w }

let n t = Array.length t.w
let threshold t j = t.w.(j)
let thresholds t = t.w
