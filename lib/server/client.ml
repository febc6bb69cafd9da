module P = Protocol

type t = {
  host : string;
  port : int;
  retries : int;
  timeout_ms : int option;
  backoff_ms : int;
  rng : Suu_prng.Rng.t option; (* jitter source; present iff retries > 0 *)
  mutable fd : Unix.file_descr;
  mutable rd : Lineio.reader;
  mutable seq : int; (* auto-attached request ids when retrying *)
  mutable closed : bool;
}

exception Protocol_failure of string

(* Client-side resilience counters.  They live in the client process's
   own registry (the server cannot see a reply the network dropped);
   [suu client stats --full] appends them to the server snapshot. *)
let c_retries = Suu_obs.Registry.memo_counter "client.retries"
let c_timeouts = Suu_obs.Registry.memo_counter "client.timeouts"
let c_reconnects = Suu_obs.Registry.memo_counter "client.reconnects"
let c_giveups = Suu_obs.Registry.memo_counter "client.giveups"

let dial ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  fd

(* Exponential backoff, capped at 2 s, plus up to 50% jitter drawn from
   the client's seeded generator — deterministic per client, decorrelated
   across clients with different seeds.  [attempt >= 1]. *)
let backoff_delay ~backoff_ms ~rng attempt =
  let base =
    Float.min 2.0
      (float_of_int backoff_ms /. 1000.0 *. (2.0 ** float_of_int (attempt - 1)))
  in
  let jitter =
    match rng with
    | Some r when base > 0.0 -> Suu_prng.Rng.float r (base *. 0.5)
    | _ -> 0.0
  in
  Thread.delay (base +. jitter)

let connect ?(host = "127.0.0.1") ?(retries = 0) ?timeout_ms ?(backoff_ms = 25)
    ?(retry_seed = 0) ~port () =
  if retries < 0 then invalid_arg "Client.connect: retries must be >= 0";
  if backoff_ms < 0 then invalid_arg "Client.connect: backoff_ms must be >= 0";
  (match timeout_ms with
  | Some ms when ms <= 0 ->
      invalid_arg "Client.connect: timeout_ms must be positive"
  | _ -> ());
  let rng =
    if retries > 0 then Some (Suu_prng.Rng.create ~seed:retry_seed) else None
  in
  (* The initial dial retries too: a refused connection (server still
     binding, or restarting) is as transient as a dropped reply. *)
  let rec dial_retry attempt =
    match dial ~host ~port with
    | fd -> fd
    | exception (Unix.Unix_error _ as e) ->
        if attempt < retries then begin
          Suu_obs.Counter.incr (c_retries ());
          backoff_delay ~backoff_ms ~rng (attempt + 1);
          dial_retry (attempt + 1)
        end
        else raise e
  in
  let fd = dial_retry 0 in
  { host; port; retries; timeout_ms; backoff_ms; rng; fd;
    rd = Lineio.reader fd; seq = 0; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* A fresh socket after any failed attempt: the old stream may still
   carry a late or torn reply that would otherwise be matched against
   the retried request. *)
let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let fd = dial ~host:t.host ~port:t.port in
  t.fd <- fd;
  t.rd <- Lineio.reader fd;
  Suu_obs.Counter.incr (c_reconnects ())

let resp_id = function P.Ok { id; _ } -> id | P.Err { id; _ } -> id

let call_once t ?id ?deadline_ms body =
  let req = { P.id; deadline_ms; body } in
  Lineio.write_all t.fd (P.request_to_string req);
  (* The timeout covers the whole response read as one absolute
     monotonic deadline, not per-line. *)
  let deadline_ns =
    match t.timeout_ms with
    | None -> None
    | Some ms ->
        Some
          (Int64.add (Suu_obs.Clock.now_ns ())
             (Int64.mul (Int64.of_int ms) 1_000_000L))
  in
  match
    P.read_response ~next_line:(fun () -> Lineio.next_line ?deadline_ns t.rd)
  with
  | Some resp ->
      (match id with
      | Some sent when resp_id resp <> Some sent ->
          raise
            (Protocol_failure
               (Printf.sprintf "response id mismatch (sent %S)" sent))
      | _ -> ());
      resp
  | None -> raise (Protocol_failure "connection closed before response")
  | exception P.Parse_error { line; msg } ->
      raise
        (Protocol_failure
           ("malformed response: " ^ P.parse_error_message ~line ~msg))
  | exception Lineio.Line_too_long ->
      raise (Protocol_failure "malformed response: line too long")

(* What a retry may safely repeat: every request type is idempotent
   (pure computation or a read of stats), so the only correctness
   requirement is that a reply is matched to its own request — the
   per-attempt id check plus the always-fresh socket give that.

   Retriable: transport errors (EPIPE/ECONNRESET/ECONNREFUSED), torn or
   malformed frames (the injected mid-frame kill), read timeouts
   (dropped or delayed replies) and the server-side transient errors
   [Internal] and [Overloaded].  NOT retriable: [Bad_request], [Parse]
   and [Timeout] replies — the request itself is at fault and would
   fail identically again. *)
let call t ?(auto_id = true) ?id ?deadline_ms body =
  if t.closed then raise (Protocol_failure "client is closed");
  let id =
    match id with
    | Some _ -> id
    | None when auto_id && t.retries > 0 ->
        t.seq <- t.seq + 1;
        Some (Printf.sprintf "c%d" t.seq)
    | None -> None
  in
  let rec go attempt =
    let result =
      try
        if attempt > 0 then begin
          Suu_obs.Counter.incr (c_retries ());
          backoff_delay ~backoff_ms:t.backoff_ms ~rng:t.rng attempt;
          reconnect t
        end;
        Result.Ok (call_once t ?id ?deadline_ms body)
      with
      | Lineio.Read_timeout ->
          Suu_obs.Counter.incr (c_timeouts ());
          Result.Error
            (Protocol_failure
               (Printf.sprintf "no response within %dms"
                  (Option.value t.timeout_ms ~default:0)))
      | (Protocol_failure _ | Unix.Unix_error _) as e -> Result.Error e
    in
    match result with
    | Result.Ok (P.Err { code = P.Internal | P.Overloaded; _ } as resp) ->
        if attempt < t.retries then go (attempt + 1)
        else begin
          if t.retries > 0 then Suu_obs.Counter.incr (c_giveups ());
          resp
        end
    | Result.Ok resp -> resp
    | Result.Error e ->
        if attempt < t.retries then go (attempt + 1)
        else begin
          if t.retries > 0 then Suu_obs.Counter.incr (c_giveups ());
          raise e
        end
  in
  go 0

let fields_exn resp =
  match resp with
  | P.Ok { fields; _ } -> fields
  | P.Err { code; message; _ } ->
      raise
        (Protocol_failure
           (Printf.sprintf "server error [%s]: %s"
              (P.error_code_to_string code) message))

let describe t ?deadline_ms inst =
  fields_exn (call t ?deadline_ms (P.Describe inst))

let lower_bound t ?deadline_ms inst =
  fields_exn (call t ?deadline_ms (P.Lower_bound inst))

let plan t ?deadline_ms ?(seed = 0) ~policy inst =
  fields_exn (call t ?deadline_ms (P.Plan { inst; policy; seed }))

let simulate t ?deadline_ms ?(seed = 0) ~policy ~reps inst =
  fields_exn (call t ?deadline_ms (P.Simulate { inst; policy; reps; seed }))

let stats t ?deadline_ms () = fields_exn (call t ?deadline_ms P.Stats)
