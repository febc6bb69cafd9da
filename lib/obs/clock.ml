external now_ns : unit -> int64 = "suu_obs_monotonic_ns"

let ns_to_s ns = Int64.to_float ns *. 1e-9
