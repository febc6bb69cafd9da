module P = Protocol
module Journal = Suu_store.Journal

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  default_deadline_ms : int;
  sim_jobs : int option;
  solver : Suu_core.Solver_choice.t option;
  faults : Faults.config option;
  journal : string option;
  clock_ns : unit -> int64;
  so_sndbuf : int option;
  outbuf_limit : int;
}

let default_config =
  { host = "127.0.0.1"; port = 0; workers = 4; queue_capacity = 64;
    default_deadline_ms = 30_000; sim_jobs = None; solver = None;
    faults = None; journal = None; clock_ns = Suu_obs.Clock.now_ns;
    so_sndbuf = None; outbuf_limit = 8 * 1024 * 1024 }

let solver_env_var = "SUU_SOLVER"

(* Solver resolution, like [SUU_FAULTS]/[SUU_JOURNAL]: the config field
   wins; then the environment; then the serve-path default (certified
   MWU with automatic simplex fallback) — NOT the library default, which
   stays on the exact simplex for offline work.  A malformed env spec is
   a startup error, not a silently-misconfigured server. *)
let solver config =
  match config.solver with
  | Some s -> s
  | None -> (
      match Sys.getenv_opt solver_env_var with
      | None | Some "" -> Suu_core.Solver_choice.serve_default
      | Some spec -> (
          match Suu_core.Solver_choice.of_string spec with
          | Ok s -> s
          | Error msg ->
              invalid_arg
                (Printf.sprintf "Server.start: bad %s: %s" solver_env_var msg)))

let journal_env_var = "SUU_JOURNAL"

(* Like [SUU_FAULTS]: the config field wins; the environment arms any
   deployment without a flag; empty means off. *)
let journal_path config =
  match config.journal with
  | Some "" -> None
  | Some _ as p -> p
  | None -> (
      match Sys.getenv_opt journal_env_var with
      | Some "" | None -> None
      | Some p -> Some p)

(* --- jobs and completions --- *)

(* Every reply's bookkeeping travels with its bytes: the event loop
   closes the [server.write] child and the [server.request] root when
   the last byte reaches the kernel, not when a worker finishes — the
   write span now measures real socket backpressure. *)
type reply_meta = {
  m_root : Suu_obs.Span.id;
  m_rtype : string;
  m_code : string option;
  m_start_ns : int64; (* first line of the frame (monotonic) *)
  m_post_ns : int64; (* when the reply bytes were handed to the writer *)
}

type job = {
  req : P.request;
  ckey : int; (* connection key — never a raw fd, which the OS reuses *)
  deadline : int64; (* absolute monotonic ns on [cfg.clock_ns] *)
  root : Suu_obs.Span.id;
  start_ns : int64;
  enq_ns : int64; (* when the job entered the queue *)
  jseq : int; (* journal sequence number (0 when no journal is armed) *)
}

(* What a worker hands back to the event loop.  [co_bytes = ""] means
   nothing goes on the wire (an injected drop); [co_kill] cuts the
   connection after the (partial) bytes flush — the torn-frame fault. *)
type completion = {
  co_key : int;
  co_bytes : string;
  co_kill : bool;
  co_meta : reply_meta;
}

(* --- per-connection state machine --- *)

(* Incremental parsing without rewriting the pull-based {!Protocol}
   parsers: each connection runs [read_request] (or [skip_frame]) as an
   effect-handled fiber.  When the parser asks for a line the buffer
   cannot yet supply, it performs {!Need_line} and the fiber suspends;
   the event loop resumes it when more bytes (or EOF) arrive.  The
   parser's semantics — located errors, resource caps, resync — are
   reused verbatim. *)
type _ Effect.t += Need_line : string option Effect.t

type step =
  | Done of P.request option
  | Fail of exn
  | Await of (string option, step) Effect.Deep.continuation

type fiber =
  | Start (* no parse in progress: start one when input arrives *)
  | Awaiting of (string option, step) Effect.Deep.continuation
  | Stopped (* no further frames will be read on this connection *)

type parse_mode = Mode_request | Mode_skip

type segment = {
  data : string;
  mutable off : int;
  meta : reply_meta option; (* None: parse-error reply, no root span *)
  kill : bool;
}

type cstate = {
  c_fd : Unix.file_descr;
  c_key : int;
  c_buf : Lineio.Linebuf.t;
  mutable c_mode : parse_mode;
  mutable c_fiber : fiber;
  c_outq : segment Queue.t;
  mutable c_out_bytes : int;
  mutable c_inflight : int; (* admitted jobs whose reply is still owed *)
  mutable c_frame_start : int64; (* 0L = outside a frame *)
  mutable c_eof : bool;
  mutable c_paused : bool; (* read interest shed: output backlog *)
  mutable c_close_after_flush : bool;
  mutable c_closed : bool;
  mutable c_want_read : bool;
  mutable c_want_write : bool;
}

type handler = deadline:int64 -> P.request -> P.response

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  bound_port : int;
  queue : job Bqueue.t;
  completions : completion Bqueue.t;
  metrics : Metrics.t;
  faults : Faults.t option;
  journal : Journal.t option;
  jseq : int Atomic.t;
  started_ns : int64; (* on [cfg.clock_ns] *)
  stopping : bool Atomic.t;
  finishing : bool Atomic.t;
  reactor : Reactor.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;
  conns_by_fd : (Unix.file_descr, cstate) Hashtbl.t; (* loop thread only *)
  conns_by_key : (int, cstate) Hashtbl.t; (* loop thread only *)
  conn_count : int Atomic.t; (* mirror for [stats], read cross-thread *)
  mutable next_key : int;
  mutable loop_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  mutable listener_open : bool;
  stop_lock : Mutex.t;
  mutable stopped : bool;
}

let port t = t.bound_port

let c_worker_restarts = Suu_obs.Registry.memo_counter "server.worker.restarts"

let c_write_resumed = Suu_obs.Registry.memo_counter "server.writer.resumed"

let c_read_paused = Suu_obs.Registry.memo_counter "server.reader.paused"

(* Close out a request's root span: [server.request] spans (one per
   request, any outcome) carry the end-to-end latency histogram in the
   registry, next to the per-phase children.  [wrote] adds the
   [server.write] child — flush instant minus the moment the reply was
   queued, i.e. the time the bytes spent owned by the writer. *)
let finish_meta ?(wrote = true) m =
  let t_done = Suu_obs.Clock.now_ns () in
  if wrote then
    Suu_obs.Span.record ~parent:m.m_root ~name:"server.write"
      ~start_ns:m.m_post_ns ~stop_ns:t_done ();
  Suu_obs.Span.record ~id:m.m_root
    ~attrs:
      [ ("type", m.m_rtype); ("code", Option.value m.m_code ~default:"ok") ]
    ~name:"server.request" ~start_ns:m.m_start_ns ~stop_ns:t_done ()

(* Journal the response before it goes on the wire: if the record is
   durable, {!Replay} can later hold the server to it; if the process
   dies in between, recovery sees a request without a response — the
   honest statement of what is known. *)
let journal_response t ~jseq resp =
  match t.journal with
  | None -> ()
  | Some j -> (
      (* A response append that fails (disk full, volume gone) degrades
         to a journal entry with no response — replay reports it as
         skipped — rather than costing a worker. *)
      try Journal.log_response j ~seq:jseq (P.response_to_string resp)
      with Sys_error _ | Unix.Unix_error _ -> ())

(* --- waking the event loop --- *)

let wake_byte = Bytes.make 1 '!'

(* One pending byte is enough: the loop drains the whole completion
   queue per wakeup, and [wake_pending] keeps a burst of completions
   from flooding the pipe.  The flag is cleared by the loop BEFORE it
   drains, so a completion posted during the drain re-arms the pipe. *)
let wake t =
  if not (Atomic.exchange t.wake_pending true) then
    try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

(* --- workers --- *)

(* [t0] is when the handler finished (or the queue-expiry check fired):
   the [server.respond] child covers everything between execution and
   the handoff to the loop — response journaling, fault perturbation
   (injected delays show up here, not in [server.write]), serialization
   — so the root span's children account for the full request path. *)
let post t (job : job) ?(kill = false) ~t0 ~rtype ~code bytes =
  let now = Suu_obs.Clock.now_ns () in
  Suu_obs.Span.record ~parent:job.root ~name:"server.respond" ~start_ns:t0
    ~stop_ns:now ();
  let meta =
    { m_root = job.root; m_rtype = rtype; m_code = code;
      m_start_ns = job.start_ns; m_post_ns = now }
  in
  ignore
    (Bqueue.try_push t.completions
       { co_key = job.ckey; co_bytes = bytes; co_kill = kill; co_meta = meta });
  wake t

(* Reply delivery, possibly perturbed by fault injection.  The fast
   path (no injector configured) posts the serialized reply straight to
   the event loop; with an injector armed, a reply can be delayed
   (worker-side, so the writer never sleeps), dropped, replaced by a
   spurious [Internal] error, or cut mid-frame (a partial response line
   followed by a socket shutdown — the torn-frame case retrying clients
   must survive). *)
let deliver t job resp ~t0 ~rtype ~code =
  match t.faults with
  | None -> post t job ~t0 ~rtype ~code (P.response_to_string resp)
  | Some f -> (
      let fate = Faults.reply_fate f in
      (match fate.Faults.delay_s with
      | Some d -> Thread.delay d
      | None -> ());
      match fate.Faults.outcome with
      | Faults.Deliver ->
          post t job ~t0 ~rtype ~code (P.response_to_string resp)
      | Faults.Drop -> post t job ~t0 ~rtype ~code ""
      | Faults.Error ->
          post t job ~t0 ~rtype ~code
            (P.response_to_string
               (P.Err
                  { id = job.req.P.id; code = P.Internal;
                    message = "injected fault" }))
      | Faults.Kill ->
          post t job ~kill:true ~t0 ~rtype ~code "suu-response v1\nstatus ok\n")

let process t handle job =
  let t_pop = Suu_obs.Clock.now_ns () in
  Suu_obs.Span.record ~parent:job.root ~name:"server.queue_wait"
    ~start_ns:job.enq_ns ~stop_ns:t_pop ();
  let id = job.req.P.id in
  let rtype = P.body_type job.req.P.body in
  (* Queue expiry on the monotonic clock: wall time spent queued is
     irrelevant (and steppable); only monotonic elapsed time counts. *)
  if Int64.compare (t.cfg.clock_ns ()) job.deadline > 0 then begin
    Metrics.observe t.metrics ~rtype ~code:(Some "timeout");
    let resp =
      P.Err { id; code = P.Timeout; message = "deadline exceeded in queue" }
    in
    journal_response t ~jseq:job.jseq resp;
    deliver t job resp ~t0:(Suu_obs.Clock.now_ns ()) ~rtype
      ~code:(Some "timeout")
  end
  else begin
    (match t.faults with Some f -> Faults.maybe_crash f | None -> ());
    let resp =
      Suu_obs.Span.with_ambient (Some job.root) (fun () ->
          Suu_obs.Span.with_span "server.execute" (fun () ->
              try handle ~deadline:job.deadline job.req
              with e ->
                P.Err
                  { id; code = P.Internal;
                    message = "unexpected exception: " ^ Printexc.to_string e }))
    in
    let t0 = Suu_obs.Clock.now_ns () in
    let code =
      match resp with
      | P.Ok _ -> None
      | P.Err { code; _ } -> Some (P.error_code_to_string code)
    in
    Metrics.observe t.metrics ~rtype ~code;
    journal_response t ~jseq:job.jseq resp;
    deliver t job resp ~t0 ~rtype ~code
  end

(* Crash isolation: an exception escaping [process] (a handler bug, or
   an injected crash) must cost the client one request, not the server
   one worker.  The thread answers with an [Internal] error, counts the
   restart and keeps draining the queue — a pool-size-preserving
   restart.  The error reply bypasses fault perturbation: a crashed
   worker should not also roll the fault dice. *)
let worker_loop t handle () =
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> () (* closed and drained: graceful exit *)
    | Some job ->
        (try process t handle job
         with e ->
           Suu_obs.Counter.incr (c_worker_restarts ());
           let rtype = P.body_type job.req.P.body in
           Printf.eprintf
             "suu-serve: worker crashed on %s request (%s); restarting\n%!"
             rtype (Printexc.to_string e);
           Metrics.observe t.metrics ~rtype ~code:(Some "internal");
           let resp =
             P.Err
               { id = job.req.P.id; code = P.Internal;
                 message = "worker crashed: " ^ Printexc.to_string e }
           in
           journal_response t ~jseq:job.jseq resp;
           post t job ~t0:(Suu_obs.Clock.now_ns ()) ~rtype
             ~code:(Some "internal")
             (P.response_to_string resp));
        loop ()
  in
  loop ()

(* --- event loop: connection lifecycle --- *)

(* Everything below runs on the single loop thread; cstate and the conn
   tables need no locks. *)

let close_conn t cs =
  if not cs.c_closed then begin
    cs.c_closed <- true;
    (* Replies queued behind a vanished peer still owe their spans. *)
    Queue.iter
      (fun seg -> match seg.meta with Some m -> finish_meta m | None -> ())
      cs.c_outq;
    Queue.clear cs.c_outq;
    cs.c_out_bytes <- 0;
    Reactor.remove t.reactor cs.c_fd;
    (try Unix.close cs.c_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns_by_fd cs.c_fd;
    Hashtbl.remove t.conns_by_key cs.c_key;
    Atomic.decr t.conn_count
  end

let update_interest t cs =
  if not cs.c_closed then begin
    let read = (not cs.c_eof) && (not cs.c_paused) && not cs.c_close_after_flush in
    let write = not (Queue.is_empty cs.c_outq) in
    if read <> cs.c_want_read || write <> cs.c_want_write then begin
      cs.c_want_read <- read;
      cs.c_want_write <- write;
      Reactor.modify t.reactor cs.c_fd ~read ~write
    end
  end

let maybe_close t cs =
  if
    (not cs.c_closed) && cs.c_close_after_flush && cs.c_inflight = 0
    && Queue.is_empty cs.c_outq
  then close_conn t cs

(* Account [n] flushed bytes to the head segments, closing out spans as
   segments complete.  A completed kill segment cuts the connection —
   the injected torn frame. *)
let consume t cs n =
  cs.c_out_bytes <- cs.c_out_bytes - n;
  let rem = ref n in
  let killed = ref false in
  while !rem > 0 && not !killed do
    let head = Queue.peek cs.c_outq in
    let avail = String.length head.data - head.off in
    if !rem >= avail then begin
      rem := !rem - avail;
      ignore (Queue.pop cs.c_outq);
      (match head.meta with Some m -> finish_meta m | None -> ());
      if head.kill then killed := true
    end
    else begin
      head.off <- head.off + !rem;
      rem := 0
    end
  done;
  if !killed then begin
    (try Unix.shutdown cs.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    close_conn t cs
  end

let rec write_retry fd s off len =
  try Unix.write_substring fd s off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd s off len

(* One batched flush per syscall: small pipelined replies coalesce into
   a single write (up to [coalesce_budget]), a large head segment goes
   out directly.  A short write leaves the tail queued with its offset
   advanced; EAGAIN re-arms write interest and the loop resumes the
   partial segment when the socket drains. *)
let coalesce_budget = 256 * 1024

let try_flush t cs =
  if not cs.c_closed then begin
    try
      while not (Queue.is_empty cs.c_outq) do
        let head = Queue.peek cs.c_outq in
        let headlen = String.length head.data - head.off in
        let n =
          if Queue.length cs.c_outq = 1 || head.kill || headlen >= coalesce_budget
          then write_retry cs.c_fd head.data head.off headlen
          else begin
            let b = Buffer.create (min cs.c_out_bytes coalesce_budget) in
            (try
               Queue.iter
                 (fun s ->
                   (* never coalesce past a torn-frame kill: no bytes
                      may follow the cut *)
                   if s.kill || Buffer.length b >= coalesce_budget then
                     raise Exit;
                   Buffer.add_substring b s.data s.off
                     (min
                        (String.length s.data - s.off)
                        (coalesce_budget - Buffer.length b)))
                 cs.c_outq
             with Exit -> ());
            write_retry cs.c_fd (Buffer.contents b) 0 (Buffer.length b)
          end
        in
        consume t cs n
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Suu_obs.Counter.incr (c_write_resumed ())
    | Unix.Unix_error _ ->
        (* Peer gone mid-write: the requests' effects are dropped, their
           spans are closed out by [close_conn]. *)
        close_conn t cs
  end

let after_write t cs =
  if not cs.c_closed then begin
    if cs.c_paused && cs.c_out_bytes <= t.cfg.outbuf_limit / 2 then
      cs.c_paused <- false;
    update_interest t cs;
    maybe_close t cs
  end

let enqueue_out t cs ?(kill = false) ?meta data =
  if cs.c_closed then Option.iter (fun m -> finish_meta m) meta
  else begin
    Queue.push { data; off = 0; meta; kill } cs.c_outq;
    cs.c_out_bytes <- cs.c_out_bytes + String.length data;
    try_flush t cs;
    if not cs.c_closed then begin
      (* Backpressure: a peer that stops reading while pipelining must
         not buy unbounded server memory.  Shed read interest until the
         backlog halves; admission stops with it. *)
      if (not cs.c_paused) && cs.c_out_bytes > t.cfg.outbuf_limit then begin
        cs.c_paused <- true;
        Suu_obs.Counter.incr (c_read_paused ())
      end;
      after_write t cs
    end
  end

(* --- event loop: parsing and admission --- *)

let conn_next_line cs () =
  let line =
    match Lineio.Linebuf.next cs.c_buf with
    | Some _ as l -> l
    | None ->
        if cs.c_eof then Lineio.Linebuf.take_rest cs.c_buf
        else Effect.perform Need_line
  in
  (* A request's wall clock starts when its first line arrives: idle
     time between frames belongs to no request.  The resumed effect
     passes through here too, so pipelined and suspended frames stamp
     identically. *)
  (match line with
  | Some _ when Int64.equal cs.c_frame_start 0L ->
      cs.c_frame_start <- Suu_obs.Clock.now_ns ()
  | _ -> ());
  line

let fiber_handler : (P.request option, step) Effect.Deep.handler =
  { retc = (fun r -> Done r);
    exnc = (fun e -> Fail e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Need_line ->
            Some (fun (k : (a, step) Effect.Deep.continuation) -> Await k)
        | _ -> None) }

let start_fiber cs =
  match cs.c_mode with
  | Mode_request ->
      cs.c_frame_start <- 0L;
      Effect.Deep.match_with
        (fun () -> P.read_request ~next_line:(conn_next_line cs))
        () fiber_handler
  | Mode_skip ->
      Effect.Deep.match_with
        (fun () ->
          P.skip_frame ~next_line:(conn_next_line cs);
          None)
        () fiber_handler

let admit t cs (req : P.request) =
  let t_parsed = Suu_obs.Clock.now_ns () in
  let start_ns =
    if Int64.equal cs.c_frame_start 0L then t_parsed else cs.c_frame_start
  in
  let root = Suu_obs.Span.fresh_id () in
  Suu_obs.Span.record ~parent:root ~name:"server.parse" ~start_ns
    ~stop_ns:t_parsed ();
  let ms =
    match req.P.deadline_ms with
    | Some d -> d
    | None -> t.cfg.default_deadline_ms
  in
  let jseq =
    match t.journal with
    | None -> 0
    | Some _ -> Atomic.fetch_and_add t.jseq 1
  in
  let job =
    { req; ckey = cs.c_key;
      deadline =
        Int64.add (t.cfg.clock_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L);
      root; start_ns; enq_ns = t_parsed; jseq }
  in
  (* Write-ahead: the request is durable before it is offered to the
     queue, so an admitted request survives a [kill -9] even if its
     execution never produced a response.  The frame is re-serialized
     canonically — byte-exact for what replay re-parses and re-sends. *)
  (match t.journal with
  | None -> ()
  | Some j -> Journal.log_request j ~seq:jseq (P.request_to_string req));
  if Bqueue.try_push t.queue job then cs.c_inflight <- cs.c_inflight + 1
  else begin
    let rtype = P.body_type req.P.body in
    Metrics.observe t.metrics ~rtype ~code:(Some "overloaded");
    let message =
      if Atomic.get t.stopping then "server is draining"
      else Printf.sprintf "queue full (capacity %d)" (Bqueue.capacity t.queue)
    in
    let resp = P.Err { id = req.P.id; code = P.Overloaded; message } in
    journal_response t ~jseq resp;
    let meta =
      { m_root = root; m_rtype = rtype; m_code = Some "overloaded";
        m_start_ns = start_ns; m_post_ns = Suu_obs.Clock.now_ns () }
    in
    enqueue_out t cs ~meta (P.response_to_string resp)
  end

(* Drive a connection's parse fiber as far as the buffered input
   allows.  Each completed request is admitted and parsing continues
   immediately — that is request pipelining.  Replies queue in
   completion order (workers finish when they finish); clients match
   responses to requests by id, as they always have. *)
let rec pump t cs =
  if (not cs.c_closed) && not cs.c_close_after_flush then
    match cs.c_fiber with
    | Stopped -> ()
    | Start -> handle_step t cs (start_fiber cs)
    | Awaiting k -> (
        match Lineio.Linebuf.next cs.c_buf with
        | Some l ->
            cs.c_fiber <- Start;
            handle_step t cs (Effect.Deep.continue k (Some l))
        | None ->
            if cs.c_eof then begin
              let l = Lineio.Linebuf.take_rest cs.c_buf in
              cs.c_fiber <- Start;
              handle_step t cs (Effect.Deep.continue k l)
            end)

and handle_step t cs st =
  if not cs.c_closed then
    match st with
    | Await k -> cs.c_fiber <- Awaiting k
    | Done r -> (
        match cs.c_mode with
        | Mode_skip ->
            (* The offending frame is consumed up to its [done]; the
               connection survives. *)
            cs.c_mode <- Mode_request;
            cs.c_fiber <- Start;
            pump t cs
        | Mode_request -> (
            match r with
            | Some req ->
                admit t cs req;
                cs.c_fiber <- Start;
                pump t cs
            | None ->
                (* Clean end of stream.  Replies still owed (pipelined
                   requests in flight, a half-closed peer still reading)
                   flush before the connection closes. *)
                cs.c_fiber <- Stopped;
                cs.c_close_after_flush <- true;
                update_interest t cs;
                maybe_close t cs))
    | Fail (P.Parse_error { line; msg }) ->
        Metrics.observe t.metrics ~rtype:"unknown" ~code:(Some "parse");
        enqueue_out t cs
          (P.response_to_string
             (P.Err
                { id = None; code = P.Parse;
                  message = P.parse_error_message ~line ~msg }));
        cs.c_mode <- Mode_skip;
        cs.c_fiber <- Start;
        pump t cs
    | Fail Lineio.Line_too_long ->
        Metrics.observe t.metrics ~rtype:"unknown" ~code:(Some "parse");
        enqueue_out t cs
          (P.response_to_string
             (P.Err
                { id = None; code = P.Parse;
                  message = "line too long; closing connection" }));
        cs.c_fiber <- Stopped;
        cs.c_close_after_flush <- true;
        update_interest t cs;
        maybe_close t cs
    | Fail _ ->
        (* A parser escape that is neither a protocol nor a framing
           error: drop the connection rather than guess. *)
        cs.c_fiber <- Stopped;
        close_conn t cs

(* Route an exception into the suspended parser so every failure flows
   through one place ([handle_step]'s [Fail] arms). *)
let raise_in_fiber t cs exn =
  match cs.c_fiber with
  | Awaiting k ->
      cs.c_fiber <- Start;
      handle_step t cs (Effect.Deep.discontinue k exn)
  | Start | Stopped -> handle_step t cs (Fail exn)

(* --- event loop: socket events --- *)

let handle_readable t cs rbuf =
  let budget = ref 4 in
  (* a few chunks per event keeps one flooding peer from starving the
     rest; level-triggered readiness re-reports the remainder *)
  while
    !budget > 0 && (not cs.c_closed) && (not cs.c_eof) && not cs.c_paused
  do
    decr budget;
    match Unix.read cs.c_fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> cs.c_eof <- true
    | k -> (
        (try Lineio.Linebuf.feed cs.c_buf rbuf 0 k
         with Lineio.Line_too_long ->
           raise_in_fiber t cs Lineio.Line_too_long);
        if k < Bytes.length rbuf then budget := 0)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        budget := 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* reset peer: treat as end of stream; the partial frame is
           abandoned with it *)
        cs.c_eof <- true
  done;
  pump t cs;
  if not cs.c_closed then begin
    update_interest t cs;
    maybe_close t cs
  end

let handle_accept t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        (match t.cfg.so_sndbuf with
        | Some n -> (
            try Unix.setsockopt_int fd Unix.SO_SNDBUF n
            with Unix.Unix_error _ -> ())
        | None -> ());
        let key = t.next_key in
        t.next_key <- key + 1;
        let cs =
          { c_fd = fd; c_key = key; c_buf = Lineio.Linebuf.create ();
            c_mode = Mode_request; c_fiber = Start; c_outq = Queue.create ();
            c_out_bytes = 0; c_inflight = 0; c_frame_start = 0L;
            c_eof = false; c_paused = false; c_close_after_flush = false;
            c_closed = false; c_want_read = true; c_want_write = false }
        in
        Hashtbl.replace t.conns_by_fd fd cs;
        Hashtbl.replace t.conns_by_key key cs;
        Atomic.incr t.conn_count;
        Reactor.add t.reactor fd ~read:true ~write:false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* ECONNABORTED and friends; a closed listener is handled by the
           [stopping] transition in the main loop *)
        continue := false
  done

let handle_completion t co =
  match Hashtbl.find_opt t.conns_by_key co.co_key with
  | None ->
      (* the connection died first; the request's effect is dropped *)
      finish_meta ~wrote:false co.co_meta
  | Some cs ->
      cs.c_inflight <- cs.c_inflight - 1;
      if co.co_bytes = "" then begin
        finish_meta ~wrote:false co.co_meta;
        maybe_close t cs
      end
      else enqueue_out t cs ~kill:co.co_kill ~meta:co.co_meta co.co_bytes;
      if not cs.c_closed then maybe_close t cs

let drain_wakeups t =
  let b = Bytes.create 64 in
  (try
     while Unix.read t.wake_r b 0 (Bytes.length b) > 0 do
       ()
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> ());
  (* clear BEFORE draining completions: a post racing the drain re-arms
     the pipe instead of being missed *)
  Atomic.set t.wake_pending false

let drain_completions t =
  let rec go () =
    match Bqueue.try_pop t.completions with
    | Some co ->
        handle_completion t co;
        go ()
    | None -> ()
  in
  go ()

let loop_run t () =
  let rbuf = Bytes.create 65536 in
  let finished = ref false in
  let drain_deadline = ref None in
  while not !finished do
    let timeout_ms = match !drain_deadline with None -> -1 | Some _ -> 50 in
    let evs = Reactor.wait t.reactor ~timeout_ms in
    List.iter
      (fun (ev : Reactor.event) ->
        if ev.Reactor.fd = t.wake_r then begin
          if ev.Reactor.readable then drain_wakeups t
        end
        else if t.listener_open && ev.Reactor.fd = t.lfd then handle_accept t
        else
          match Hashtbl.find_opt t.conns_by_fd ev.Reactor.fd with
          | None -> ()
          | Some cs ->
              if ev.Reactor.writable && not cs.c_closed then begin
                try_flush t cs;
                after_write t cs
              end;
              if ev.Reactor.readable && not cs.c_closed then
                handle_readable t cs rbuf)
      evs;
    if Atomic.get t.stopping && t.listener_open then begin
      t.listener_open <- false;
      Reactor.remove t.reactor t.lfd;
      try Unix.close t.lfd with Unix.Unix_error _ -> ()
    end;
    drain_completions t;
    if Atomic.get t.finishing then begin
      (* The workers have exited and every completion is queued; from
         here the loop only flushes.  A peer that will not read its
         replies gets [drain_grace] before the connection is cut. *)
      (match !drain_deadline with
      | None ->
          drain_deadline :=
            Some (Int64.add (Suu_obs.Clock.now_ns ()) 5_000_000_000L)
      | Some _ -> ());
      let pending =
        Hashtbl.fold
          (fun _ cs acc -> acc || not (Queue.is_empty cs.c_outq))
          t.conns_by_fd false
      in
      let expired =
        match !drain_deadline with
        | Some d -> Int64.compare (Suu_obs.Clock.now_ns ()) d > 0
        | None -> false
      in
      if (not pending) || expired then begin
        let all = Hashtbl.fold (fun _ cs acc -> cs :: acc) t.conns_by_fd [] in
        List.iter
          (fun cs ->
            (try Unix.shutdown cs.c_fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            close_conn t cs)
          all;
        finished := true
      end
    end
  done

(* --- lifecycle --- *)

let serve config ~metrics ~warm make_handler =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.outbuf_limit < 1 then
    invalid_arg "Server.start: outbuf_limit must be >= 1";
  (* An explicit [faults] config wins; otherwise consult [SUU_FAULTS]
     (so any deployment can be chaos-tested without a flag).  A
     malformed env spec is a startup error, not a silently-faultless
     server. *)
  let faults =
    let armed fc = if Faults.active fc then Some (Faults.create fc) else None in
    match config.faults with
    | Some fc -> armed fc
    | None -> (
        match Faults.of_env () with
        | None -> None
        | Some (Result.Ok fc) -> armed fc
        | Some (Result.Error msg) ->
            invalid_arg
              (Printf.sprintf "Server.start: bad %s: %s" Faults.env_var msg))
  in
  (match faults with
  | Some f ->
      Printf.eprintf "suu-serve: fault injection ACTIVE (%s)\n%!"
        (Faults.to_spec (Faults.config f))
  | None -> ());
  (* Open (and recover) the journal before binding the socket: recovery
     may truncate a torn tail, and a server that cannot journal must
     fail to start rather than silently run without the write-ahead
     guarantee. *)
  let journal_info =
    match journal_path config with
    | None -> None
    | Some path ->
        let j, entries = Journal.open_journal path in
        Some (j, entries)
  in
  (* The loop writing to a connection whose peer vanished must get
     EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
  in
  (try Unix.bind lfd addr
   with e ->
     Unix.close lfd;
     (match journal_info with Some (j, _) -> Journal.close j | None -> ());
     raise e);
  (* Deep backlog: with one accepting thread, a connection-scale burst
     must queue in the kernel, not get RSTs. *)
  Unix.listen lfd 511;
  Unix.set_nonblock lfd;
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let reactor = Reactor.create () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Reactor.add reactor lfd ~read:true ~write:false;
  Reactor.add reactor wake_r ~read:true ~write:false;
  let queue = Bqueue.create ~capacity:config.queue_capacity in
  let completions = Bqueue.create ~capacity:max_int in
  let started_ns = config.clock_ns () in
  let conn_count = Atomic.make 0 in
  (* Warm-start: replay the recovered journal's request bodies into the
     handler's caches (for {!Service.warm}, instances and policies only
     — nothing executes, so the plan-cache statistics stay untouched). *)
  (match journal_info with
  | None -> ()
  | Some (j, entries) ->
      let loaded =
        List.fold_left
          (fun acc (e : Journal.entry) ->
            match P.request_of_string e.Journal.request with
            | Some req -> if warm req.P.body then acc + 1 else acc
            | None -> acc)
          0 entries
      in
      Printf.eprintf
        "suu-serve: journal %s: recovered %d entries, warmed %d, next seq %d\n%!"
        (Journal.path j) (List.length entries) loaded
        (Journal.next_seq entries));
  let t =
    { cfg = config; lfd; bound_port; queue; completions; metrics;
      faults;
      journal = Option.map fst journal_info;
      jseq =
        Atomic.make
          (match journal_info with
          | Some (_, entries) -> Journal.next_seq entries
          | None -> 0);
      started_ns;
      stopping = Atomic.make false; finishing = Atomic.make false; reactor;
      wake_r; wake_w; wake_pending = Atomic.make false;
      conns_by_fd = Hashtbl.create 64; conns_by_key = Hashtbl.create 64;
      conn_count; next_key = 0; loop_thread = None; worker_threads = [];
      listener_open = true; stop_lock = Mutex.create (); stopped = false }
  in
  let handle = make_handler t in
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create (worker_loop t handle) ());
  t.loop_thread <- Some (Thread.create (loop_run t) ());
  t

let start ?(config = default_config) () =
  (* Resolve the solver and build the service before binding anything:
     a malformed SUU_SOLVER, or a bad simulate fan-out ([sim_jobs], else
     SUU_JOBS), must fail startup without leaking the listener fd rather
     than fail every request. *)
  let solver_choice = solver config in
  let metrics = Metrics.create () in
  (* Set by [serve] before any worker runs, so every [stats] reply has
     the server's figures. *)
  let t_ref = ref None in
  let extra_stats () =
    match !t_ref with
    | None -> []
    | Some t ->
        [ ("queue_depth", string_of_int (Bqueue.length t.queue));
          ("queue_capacity", string_of_int t.cfg.queue_capacity);
          ("workers", string_of_int t.cfg.workers);
          ("connections", string_of_int (Atomic.get t.conn_count));
          ("reactor", Reactor.backend t.reactor);
          ("uptime_ms",
           Int64.to_string
             (Int64.div (Int64.sub (t.cfg.clock_ns ()) t.started_ns)
                1_000_000L))
        ]
  in
  let service =
    Service.create ?sim_jobs:config.sim_jobs ~solver:solver_choice
      ~extra_stats ~clock_ns:config.clock_ns ~metrics ()
  in
  let handle ~deadline (req : P.request) =
    let id = req.P.id in
    match Service.handle service ~deadline req.P.body with
    | Result.Ok fields -> P.Ok { id; rtype = P.body_type req.P.body; fields }
    | Result.Error (code, message) -> P.Err { id; code; message }
  in
  serve config ~metrics ~warm:(Service.warm service) (fun t ->
      t_ref := Some t;
      handle)

let stop t =
  Mutex.lock t.stop_lock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_lock;
  if not already then begin
    (* 1. Stop accepting: the loop closes the listener; admissions that
       find the queue closed answer [overloaded] "server is draining". *)
    Atomic.set t.stopping true;
    wake t;
    (* 2. Drain: workers finish every admitted request, post the
       completions, then exit. *)
    Bqueue.close t.queue;
    List.iter Thread.join t.worker_threads;
    (* 3. Flush: the loop writes every owed reply, then hangs up. *)
    Atomic.set t.finishing true;
    wake t;
    (match t.loop_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    (* 4. Every admitted request has been answered and journaled. *)
    match t.journal with Some j -> Journal.close j | None -> ()
  end

let run ?config () =
  (* Block INT/TERM before spawning anything: every thread started by
     [start] inherits the mask, so a signal that lands mid-startup
     (journal recovery, cache warm) stays pending at the process level
     instead of racing handler installation — [wait_signal] then picks
     it up deterministically once the server is live. *)
  let stop_signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  let t = start ?config () in
  Printf.printf "suu-serve listening on %s:%d (workers=%d queue=%d %s)\n%!"
    t.cfg.host t.bound_port t.cfg.workers t.cfg.queue_capacity
    (Reactor.backend t.reactor);
  ignore (Thread.wait_signal stop_signals);
  prerr_endline "suu-serve: signal received, draining";
  stop t;
  prerr_endline "suu-serve: drained, bye"
