(* Rendezvous (highest-random-weight) hashing.

   Every (shard, key) pair gets a pseudo-random score; a key routes to
   the live shard with the highest score.  Compared to a classic
   vnode-based consistent-hash ring this needs no virtual-node tuning,
   gives provably uniform placement, and has the minimal-disruption
   property for free: when a shard goes down only ITS keys move (each
   to its second-ranked shard), and they move straight back when it
   returns, because the scores are a pure function of (shard id, key).
   O(n) per lookup is irrelevant at n <= dozens of shards. *)

type t = { ids : string array }

let create ids =
  if ids = [] then invalid_arg "Ring.create: no shards";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun id ->
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Ring.create: duplicate shard id %S" id);
      Hashtbl.add seen id ())
    ids;
  { ids = Array.of_list ids }

(* First 8 bytes of MD5(shard NUL key) as an int64, compared unsigned.
   MD5 is overkill for load balancing but is already the digest the
   whole system keys caches by, and its avalanche behaviour is beyond
   suspicion.  The NUL separator keeps ("a","bc") and ("ab","c")
   distinct. *)
let score ~shard ~key =
  let d = Digest.string (shard ^ "\x00" ^ key) in
  let b i = Int64.of_int (Char.code d.[i]) in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (b i)
  done;
  !acc

(* Unsigned score order, shard id as a deterministic tie-break (a tie
   needs an MD5 prefix collision, but determinism should not hinge on
   that). *)
let better ~key (s1, id1) (s2, id2) =
  ignore key;
  match Int64.unsigned_compare s1 s2 with
  | 0 -> String.compare id1 id2 < 0
  | c -> c > 0

let route t ~live key =
  let best = ref None in
  Array.iter
    (fun id ->
      if live id then begin
        let s = score ~shard:id ~key in
        match !best with
        | Some b when not (better ~key (s, id) b) -> ()
        | _ -> best := Some (s, id)
      end)
    t.ids;
  Option.map snd !best

let route_ranked t key =
  let scored =
    Array.map (fun id -> (score ~shard:id ~key, id)) t.ids
  in
  Array.sort
    (fun a b -> if better ~key a b then -1 else if a = b then 0 else 1)
    scored;
  Array.to_list (Array.map snd scored)
