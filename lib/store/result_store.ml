type key = {
  digest : string;
  policy : string;
  seed : int;
  cap : int option;
}

type stats = { keys : int; records : int; reps : int; file_bytes : int }

(* Per-key state: committed chunks, kept as (start, values) sorted by
   start.  The contiguous prefix is derived on demand — chunk counts
   per key are small (one per batch). *)
type entry = { mutable chunks : (int * float array) list }

type t = {
  log : Record_log.t;
  lock : Mutex.t;
  index : (key, entry) Hashtbl.t;
  mutable records : int;
}

let log_name = "results.log"

let record_kind_chunk = 0

let encode_chunk key ~start values =
  let e = Codec.encoder () in
  Codec.add_int e record_kind_chunk;
  Codec.add_string e key.digest;
  Codec.add_string e key.policy;
  Codec.add_int e key.seed;
  Codec.add_int e (match key.cap with Some c -> c | None -> -1);
  Codec.add_int e start;
  Codec.add_float_array e values;
  Codec.contents e

let decode_chunk payload =
  let d = Codec.decoder payload in
  let kind = Codec.int d in
  if kind <> record_kind_chunk then
    raise (Codec.Corrupt (Printf.sprintf "unknown record kind %d" kind));
  let digest = Codec.string d in
  let policy = Codec.string d in
  let seed = Codec.int d in
  let cap = Codec.int d in
  let start = Codec.int d in
  let values = Codec.float_array d in
  if not (Codec.at_end d) then
    raise (Codec.Corrupt "trailing bytes in chunk record");
  if start < 0 then raise (Codec.Corrupt "negative chunk start");
  ( { digest; policy; seed; cap = (if cap < 0 then None else Some cap) },
    start, values )

let add_chunk t key ~start values =
  let e =
    match Hashtbl.find_opt t.index key with
    | Some e -> e
    | None ->
        let e = { chunks = [] } in
        Hashtbl.add t.index key e;
        e
  in
  e.chunks <-
    List.merge
      (fun (a, _) (b, _) -> compare a b)
      e.chunks [ (start, values) ];
  t.records <- t.records + 1

let open_store ?(sync = true) dirpath =
  if not (Sys.file_exists dirpath) then Unix.mkdir dirpath 0o755
  else if not (Sys.is_directory dirpath) then
    failwith (Printf.sprintf "Result_store: %s is not a directory" dirpath);
  let log, recovered =
    Record_log.open_log ~sync (Filename.concat dirpath log_name)
  in
  let t =
    { log; lock = Mutex.create ();
      index = Hashtbl.create 64; records = 0 }
  in
  List.iter
    (fun payload ->
      (* A record that the CRC accepted but the codec rejects means a
         format skew (old binary, new log); skipping it keeps the rest
         of the store usable and the skipped batch is simply recomputed. *)
      match decode_chunk payload with
      | key, start, values -> add_chunk t key ~start values
      | exception Codec.Corrupt _ -> ())
    recovered;
  t

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let committed t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.index key with
      | None -> [||]
      | Some e ->
          (* Walk the sorted chunks, extending the contiguous prefix. *)
          let n =
            List.fold_left
              (fun n (start, values) ->
                if start <= n then max n (start + Array.length values) else n)
              0 e.chunks
          in
          let out = Array.make n 0.0 in
          List.iter
            (fun (start, values) ->
              let len = min (Array.length values) (n - start) in
              if start < n && len > 0 then
                Array.blit values 0 out start len)
            e.chunks;
          out)

let append t key ~start values =
  if start < 0 then invalid_arg "Result_store.append: negative start";
  let payload = encode_chunk key ~start values in
  with_lock t (fun () ->
      Record_log.append t.log payload;
      add_chunk t key ~start (Array.copy values))

let stats t =
  with_lock t (fun () ->
      let reps =
        Hashtbl.fold
          (fun _ e acc ->
            List.fold_left
              (fun acc (_, values) -> acc + Array.length values)
              acc e.chunks)
          t.index 0
      in
      let file_bytes =
        match Unix.stat (Record_log.path t.log) with
        | st -> st.Unix.st_size
        | exception Unix.Unix_error _ -> 0
      in
      { keys = Hashtbl.length t.index; records = t.records; reps; file_bytes })

let close t = Record_log.close t.log
