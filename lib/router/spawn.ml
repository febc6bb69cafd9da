(* Spawn a server process and wait for its printed readiness line.

   This is the one implementation of the "start on port 0, parse the
   printed port, poll until ready" dance that used to be hand-rolled in
   every CI smoke (and would otherwise be hand-rolled again in the
   router, the tests and the chaos bench).  The child's stdout is
   piped; we scan it line by line for `listening on HOST:PORT` with a
   deadline, failing fast when the child dies instead of waiting out
   the timeout. *)

module Lineio = Suu_server.Lineio

type child = {
  pid : int;
  out_fd : Unix.file_descr;
  rd : Lineio.reader;
  mutable reaped : bool;
}

let pid c = c.pid

(* "suu-serve listening on 127.0.0.1:45123 (workers=4 queue=64)"
   -> Some ("127.0.0.1", 45123).  Tolerates any prefix/suffix so the
   same parser serves suu-serve, suu-router and the shell smokes. *)
let addr_of_ready_line line =
  let marker = " listening on " in
  let mlen = String.length marker in
  let llen = String.length line in
  let rec find i =
    if i + mlen > llen then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < llen
        && (match line.[!stop] with
           | '0' .. '9' | '.' | ':' -> true
           | _ -> false)
      do
        incr stop
      done;
      let addr = String.sub line start (!stop - start) in
      (match String.rindex_opt addr ':' with
      | None -> None
      | Some colon -> (
          let host = String.sub addr 0 colon in
          let ports =
            String.sub addr (colon + 1) (String.length addr - colon - 1)
          in
          match int_of_string_opt ports with
          | Some p when p > 0 && p < 65536 && host <> "" -> Some (host, p)
          | _ -> None))

(* [extra_env] entries ("VAR", "value") are appended to (and shadow)
   the inherited environment — how the router gives each shard its own
   SUU_JOURNAL/SUU_STORE without touching its own. *)
let spawn ?(extra_env = []) ~prog ~args () =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let argv = Array.of_list (prog :: args) in
  let pid =
    match extra_env with
    | [] -> Unix.create_process prog argv Unix.stdin out_w Unix.stderr
    | kvs ->
        let keys = List.map fst kvs in
        let base =
          Array.to_list (Unix.environment ())
          |> List.filter (fun kv ->
                 match String.index_opt kv '=' with
                 | None -> true
                 | Some i -> not (List.mem (String.sub kv 0 i) keys))
        in
        let env =
          Array.of_list
            (base @ List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        in
        Unix.create_process_env prog argv env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  { pid; out_fd = out_r; rd = Lineio.reader out_r; reaped = false }

let alive c =
  if c.reaped then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ -> true
    | _ ->
        c.reaped <- true;
        false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        c.reaped <- true;
        false

let wait_ready ?(timeout_s = 10.0) c =
  let deadline_ns =
    Int64.add (Suu_obs.Clock.now_ns ())
      (Int64.of_float (timeout_s *. 1e9))
  in
  let rec scan () =
    if not (alive c) then
      Result.Error
        (Printf.sprintf "child %d exited before becoming ready" c.pid)
    else
      match Lineio.next_line ~deadline_ns c.rd with
      | None ->
          Result.Error
            (Printf.sprintf "child %d closed stdout before becoming ready"
               c.pid)
      | Some line -> (
          match addr_of_ready_line line with
          | Some addr -> Result.Ok addr
          | None -> scan ())
      | exception Lineio.Read_timeout ->
          Result.Error
            (Printf.sprintf "child %d not ready within %.1fs" c.pid timeout_s)
      | exception Lineio.Line_too_long -> scan ()
  in
  scan ()

(* After readiness the child keeps writing (stats lines, shutdown
   notices).  Someone must drain the pipe or the child blocks on a full
   buffer mid-print; the drain thread forwards each line to [echo]
   (typically a prefixed eprintf) until EOF. *)
let drain ?echo c =
  Thread.create
    (fun () ->
      let rec loop () =
        match Lineio.next_line c.rd with
        | Some line ->
            (match echo with Some f -> f line | None -> ());
            loop ()
        | None -> ()
        | exception Lineio.Line_too_long -> loop ()
        | exception Unix.Unix_error _ -> ()
      in
      loop ())
    ()

let signal c sg = if not c.reaped then try Unix.kill c.pid sg with _ -> ()

(* Poll [waitpid] until the child is reaped or [timeout_s] has passed
   on the monotonic clock.  A stopping server exits within about a
   millisecond of its SIGTERM, so the first sleep is 1 ms, doubling to
   at most 20 ms for a child that takes longer. *)
let reap ?(timeout_s = 5.0) c =
  let deadline =
    Int64.add (Suu_obs.Clock.now_ns ()) (Int64.of_float (timeout_s *. 1e9))
  in
  let rec wait delay =
    if c.reaped then true
    else
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ ->
          if Int64.compare (Suu_obs.Clock.now_ns ()) deadline > 0 then false
          else begin
            Thread.delay delay;
            wait (Float.min 0.02 (2.0 *. delay))
          end
      | _ ->
          c.reaped <- true;
          true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          c.reaped <- true;
          true
  in
  wait 0.001

let terminate ?(timeout_s = 5.0) c =
  signal c Sys.sigterm;
  if not (reap ~timeout_s c) then begin
    signal c Sys.sigkill;
    ignore (reap ~timeout_s:1.0 c)
  end;
  try Unix.close c.out_fd with Unix.Unix_error _ -> ()
