let header = "suu-record-log v1\n"
let header_len = String.length header
let max_record_bytes = 64 * 1024 * 1024

let c_recovered = Suu_obs.Registry.memo_counter "store.recovered"
let c_truncated = Suu_obs.Registry.memo_counter "store.truncated"

type t = {
  fpath : string;
  fd : Unix.file_descr;
  default_sync : bool;
  lock : Mutex.t;
  mutable closed : bool;
}

let path t = t.fpath

(* --- framing --- *)

let frame payload =
  let len = String.length payload in
  if len > max_record_bytes then
    invalid_arg "Record_log.append: record exceeds max_record_bytes";
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Suu_util.Crc32.string payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

(* Scan [data] (the whole file) and return the committed records plus
   the byte offset where the committed prefix ends.  Anything between
   that offset and the end of [data] is a torn tail. *)
let scan data =
  let total = String.length data in
  let records = ref [] in
  let pos = ref header_len in
  let torn = ref false in
  while (not !torn) && !pos + 8 <= total do
    let len = Int32.to_int (String.get_int32_le data !pos) in
    let crc = String.get_int32_le data (!pos + 4) in
    if len < 0 || len > max_record_bytes || !pos + 8 > total - len then
      torn := true
    else
      let payload = String.sub data (!pos + 8) len in
      if Suu_util.Crc32.string payload <> crc then torn := true
      else begin
        records := payload :: !records;
        pos := !pos + 8 + len
      end
  done;
  if !pos < total then torn := true;
  (List.rev !records, !pos, !torn)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_header path data =
  if
    String.length data < header_len
    || String.sub data 0 header_len <> header
  then
    failwith
      (Printf.sprintf "Record_log: %s is not a suu record log" path)

let read path =
  if not (Sys.file_exists path) then []
  else
    let data = read_file path in
    if data = "" then []
    else begin
      check_header path data;
      let records, _, _ = scan data in
      records
    end

(* --- durable writes --- *)

let fsync_dir dir =
  (* Directory fsync makes the rename itself durable.  Some filesystems
     refuse fsync on a directory fd; that only weakens the guarantee to
     what those filesystems can give, so errors are ignored. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let rewrite path records =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     write_all fd header;
     List.iter (fun r -> write_all fd (frame r)) records;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path;
  fsync_dir dir

let open_log ?(sync = true) path =
  if not (Sys.file_exists path) then rewrite path [];
  let data = read_file path in
  (* A pre-existing empty file (0 bytes) counts as a fresh log: an
     interrupted external `touch`-style creation, not foreign data. *)
  if data <> "" then check_header path data
  else rewrite path [];
  let records, good_end, torn =
    if data = "" then ([], header_len, false) else scan data
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  (try
     if torn then begin
       Unix.ftruncate fd good_end;
       Unix.fsync fd;
       Suu_obs.Counter.incr (c_truncated ())
     end;
     ignore (Unix.lseek fd 0 Unix.SEEK_END : int)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Suu_obs.Counter.add (c_recovered ()) (List.length records);
  ( { fpath = path; fd; default_sync = sync; lock = Mutex.create ();
      closed = false },
    records )

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append ?sync t payload =
  let fr = frame payload in
  with_lock t (fun () ->
      if t.closed then failwith "Record_log.append: log is closed";
      write_all t.fd fr;
      if Option.value sync ~default:t.default_sync then Unix.fsync t.fd)

let sync t =
  with_lock t (fun () ->
      if t.closed then failwith "Record_log.sync: log is closed";
      Unix.fsync t.fd)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
