let types = [| "describe"; "lower_bound"; "plan"; "simulate"; "stats"; "unknown" |]

(* Error codes in the order their counters render, with their keys. *)
let codes =
  [| ("parse", "parse_errors"); ("bad_request", "bad_requests");
     ("overloaded", "rejects"); ("timeout", "timeouts");
     ("internal", "internal_errors") |]

type t = {
  total : int Atomic.t;
  ok : int Atomic.t;
  by_type : int Atomic.t array; (* index-aligned with [types] *)
  by_code : int Atomic.t array; (* index-aligned with [codes] *)
}

let create () =
  { total = Atomic.make 0; ok = Atomic.make 0;
    by_type = Array.map (fun _ -> Atomic.make 0) types;
    by_code = Array.map (fun _ -> Atomic.make 0) codes }

let incr_at cells = Option.iter (fun i -> Atomic.incr cells.(i))

let observe t ~rtype ~code =
  (* [total] before [ok], and [render] reads them in the other order,
     so a scrape racing an observe never sees more ok than total. *)
  Atomic.incr t.total;
  incr_at t.by_type (Array.find_index (String.equal rtype) types);
  match code with
  | None -> Atomic.incr t.ok
  | Some c ->
      incr_at t.by_code (Array.find_index (fun (n, _) -> n = c) codes)

let render t =
  let ok = Atomic.get t.ok in
  let total = Atomic.get t.total in
  let count a = string_of_int (Atomic.get a) in
  (("requests_total", string_of_int total)
   :: Array.to_list
        (Array.mapi (fun i ty -> ("requests_" ^ ty, count t.by_type.(i))) types))
  @ [ ("ok", string_of_int ok); ("errors", string_of_int (total - ok)) ]
  @ Array.to_list
      (Array.mapi (fun i (_, key) -> (key, count t.by_code.(i))) codes)
