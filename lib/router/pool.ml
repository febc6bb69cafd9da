(* Per-shard pool of idle client connections.

   Checkout hands out the most recently returned connection (LIFO keeps
   the working set warm and lets idle extras age out via [clear]);
   checkin returns it unless the pool is full.  A connection that saw
   any failure is destroyed, never returned: after a timeout or a torn
   frame the stream may hold a stale half-response, and a fresh socket
   is the only state we can reason about (the same rule Client's own
   retry loop applies). *)

module Client = Suu_server.Client

type t = {
  host : string;
  port : int;
  retries : int;
  timeout_ms : int option;
  backoff_ms : int;
  retry_seed : int;
  capacity : int;
  lock : Mutex.t;
  mutable idle : Client.t list;
  mutable idle_n : int;
  mutable created : int; (* distinct seeds, decorrelated backoff jitter *)
}

let create ?(capacity = 8) ?(retries = 0) ?timeout_ms ?(backoff_ms = 25)
    ?(retry_seed = 0) ~host ~port () =
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  { host; port; retries; timeout_ms; backoff_ms; retry_seed; capacity;
    lock = Mutex.create (); idle = []; idle_n = 0; created = 0 }

let connect t =
  Mutex.lock t.lock;
  t.created <- t.created + 1;
  let seed = t.retry_seed + t.created in
  Mutex.unlock t.lock;
  Client.connect ~host:t.host ~port:t.port ~retries:t.retries
    ?timeout_ms:t.timeout_ms ~backoff_ms:t.backoff_ms ~retry_seed:seed ()

let checkout t =
  Mutex.lock t.lock;
  let c =
    match t.idle with
    | c :: rest ->
        t.idle <- rest;
        t.idle_n <- t.idle_n - 1;
        Some c
    | [] -> None
  in
  Mutex.unlock t.lock;
  match c with Some c -> c | None -> connect t

let checkin t c =
  Mutex.lock t.lock;
  let keep = t.idle_n < t.capacity in
  if keep then begin
    t.idle <- c :: t.idle;
    t.idle_n <- t.idle_n + 1
  end;
  Mutex.unlock t.lock;
  if not keep then Client.close c

let discard c = try Client.close c with _ -> ()

let with_client t f =
  let c = checkout t in
  match f c with
  | v ->
      checkin t c;
      v
  | exception e ->
      discard c;
      raise e

let clear t =
  Mutex.lock t.lock;
  let cs = t.idle in
  t.idle <- [];
  t.idle_n <- 0;
  Mutex.unlock t.lock;
  List.iter discard cs
