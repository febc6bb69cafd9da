type entry = { seq : int; request : string; response : string option }

type t = { log : Record_log.t; response_sync : bool }

let c_requests = Suu_obs.Registry.memo_counter "store.journal.requests"
let c_responses = Suu_obs.Registry.memo_counter "store.journal.responses"

let kind_request = 0
let kind_response = 1

let encode ~kind ~seq bytes =
  let e = Codec.encoder () in
  Codec.add_int e kind;
  Codec.add_int e seq;
  Codec.add_string e bytes;
  Codec.contents e

let decode payload =
  let d = Codec.decoder payload in
  let kind = Codec.int d in
  if kind <> kind_request && kind <> kind_response then
    raise (Codec.Corrupt (Printf.sprintf "unknown journal kind %d" kind));
  let seq = Codec.int d in
  let bytes = Codec.string d in
  if not (Codec.at_end d) then
    raise (Codec.Corrupt "trailing bytes in journal record");
  (kind, seq, bytes)

(* Pair request records with their responses, preserving request
   append order (ascending seq for a well-formed journal).  Responses
   without a journaled request can only come from format skew and are
   dropped. *)
let pair records =
  let requests = ref [] in
  let responses = Hashtbl.create 64 in
  List.iter
    (fun payload ->
      match decode payload with
      | kind, seq, bytes ->
          if kind = kind_request then requests := (seq, bytes) :: !requests
          else Hashtbl.replace responses seq bytes
      | exception Codec.Corrupt _ -> ())
    records;
  List.rev_map
    (fun (seq, request) ->
      { seq; request; response = Hashtbl.find_opt responses seq })
    !requests
  |> List.sort (fun a b -> compare a.seq b.seq)

let read path = pair (Record_log.read path)

let open_journal ?(sync = true) path =
  let log, records = Record_log.open_log ~sync:true path in
  ({ log; response_sync = sync }, pair records)

let next_seq entries =
  List.fold_left (fun acc e -> max acc (e.seq + 1)) 0 entries

let log_request t ~seq bytes =
  Record_log.append ~sync:true t.log (encode ~kind:kind_request ~seq bytes);
  Suu_obs.Counter.incr (c_requests ())

let log_response t ~seq bytes =
  Record_log.append ~sync:t.response_sync t.log
    (encode ~kind:kind_response ~seq bytes);
  Suu_obs.Counter.incr (c_responses ())

let path t = Record_log.path t.log
let close t = Record_log.close t.log
