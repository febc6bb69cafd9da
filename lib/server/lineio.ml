exception Line_too_long

exception Read_timeout

let max_line = 8 * 1024 * 1024

let strip_cr l =
  let k = String.length l in
  if k > 0 && l.[k - 1] = '\r' then String.sub l 0 (k - 1) else l

module Linebuf = struct
  type t = {
    lines : string Queue.t;
    partial : Buffer.t; (* tail with no '\n' yet *)
  }

  let create () = { lines = Queue.create (); partial = Buffer.create 256 }

  (* Split at feed time so [next] never rescans: each byte is examined
     exactly once no matter how finely the peer fragments its writes.
     The bug the old reader had — an interrupted read discarding the
     partial tail — cannot recur here because the tail only ever leaves
     [partial] by completing into a line or via [take_rest]. *)
  let feed t buf off len =
    let start = ref off in
    let limit = off + len in
    for i = off to limit - 1 do
      if Bytes.unsafe_get buf i = '\n' then begin
        Buffer.add_subbytes t.partial buf !start (i - !start);
        Queue.push (strip_cr (Buffer.contents t.partial)) t.lines;
        Buffer.clear t.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes t.partial buf !start (limit - !start);
    if Buffer.length t.partial > max_line then raise Line_too_long

  let next t = Queue.take_opt t.lines

  let take_rest t =
    if Buffer.length t.partial = 0 then None
    else begin
      let l = Buffer.contents t.partial in
      Buffer.clear t.partial;
      Some (strip_cr l)
    end
end

type src = Fd of Unix.file_descr | Fn of (bytes -> int -> int -> int)

type reader = {
  src : src;
  buf : Linebuf.t;
  chunk : bytes;
  mutable eof : bool;
}

let reader fd =
  { src = Fd fd; buf = Linebuf.create (); chunk = Bytes.create 65536; eof = false }

let reader_of_fn fn =
  { src = Fn fn; buf = Linebuf.create (); chunk = Bytes.create 65536; eof = false }

(* Block until [rfd] is readable or the absolute monotonic deadline
   passes.  Raised BEFORE the read, so the [Unix_error -> eof] catch
   around the read cannot swallow a timeout into a silent EOF. *)
let wait_readable rfd deadline_ns =
  let rec wait () =
    let remaining =
      Int64.to_float (Int64.sub deadline_ns (Suu_obs.Clock.now_ns ())) /. 1e9
    in
    if remaining <= 0.0 then raise Read_timeout
    else
      match Unix.select [ rfd ] [] [] remaining with
      | [], _, _ -> raise Read_timeout
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let rec next_line ?deadline_ns rd =
  match Linebuf.next rd.buf with
  | Some _ as l -> l
  | None ->
      if rd.eof then Linebuf.take_rest rd.buf
      else begin
        (match (deadline_ns, rd.src) with
        | Some d, Fd fd -> wait_readable fd d
        | _ -> ());
        let do_read buf off len =
          match rd.src with Fd fd -> Unix.read fd buf off len | Fn f -> f buf off len
        in
        match do_read rd.chunk 0 (Bytes.length rd.chunk) with
        | 0 ->
            rd.eof <- true;
            next_line ?deadline_ns rd
        | k ->
            Linebuf.feed rd.buf rd.chunk 0 k;
            next_line ?deadline_ns rd
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            (* Transient: retry without touching buffered input — a
               frame split across the interrupted read must reassemble,
               not surface as a truncated-stream parse error. *)
            next_line ?deadline_ns rd
        | exception Unix.Unix_error _ ->
            (* Concurrent shutdown during drain, or a reset peer.  Any
               buffered partial tail is an abandoned frame; drop it so
               the caller sees a clean end of stream. *)
            rd.eof <- true;
            ignore (Linebuf.take_rest rd.buf);
            None
      end

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd s !pos (len - !pos)
  done
