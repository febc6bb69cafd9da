(* The primitive [Printf]'s [%g] conversions end in.  Calling it
   directly skips the format interpretation and the per-call rebuild of
   the C format string, about a third of the cost of a cell. *)
external format_float : string -> float -> string = "caml_format_float"

let float17 x = format_float "%.17g" x

let to_string inst =
  let m = Instance.m inst and n = Instance.n inst in
  let buf = Buffer.create (64 + (m * n * 12)) in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  line "suu-instance v1";
  line ("name " ^ Instance.name inst);
  line ("machines " ^ string_of_int m);
  line ("jobs " ^ string_of_int n);
  line "q";
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if j > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (float17 (Instance.q inst i j))
    done;
    Buffer.add_char buf '\n'
  done;
  let edges = Suu_dag.Dag.edges (Instance.dag inst) in
  line ("edges " ^ string_of_int (List.length edges));
  List.iter
    (fun (a, b) -> line (string_of_int a ^ " " ^ string_of_int b))
    edges;
  line "end";
  Buffer.contents buf

(* [to_string] plus [Digest.string] walk the whole instance, and the
   same value is digested over and over: the server keys its instance
   cache by it on every request, and every policy value that solves
   LPs builds a plan-cache handle from it.  The digest is therefore
   memoized by physical identity.  Structural hashing is capped by
   [Hashtbl.hash] (a bounded prefix walk), equality is [==], and the
   memo is reset when it outgrows the server's instance cache rather
   than kept weak: worst case it re-digests, never leaks unboundedly. *)
module Id_tbl = Hashtbl.Make (struct
  type t = Instance.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let digest_lock = Mutex.create ()
let digest_memo : Digest.t Id_tbl.t = Id_tbl.create 16
let digest_memo_cap = 128

let digest inst =
  Mutex.lock digest_lock;
  match Id_tbl.find_opt digest_memo inst with
  | Some d ->
      Mutex.unlock digest_lock;
      d
  | None ->
      Mutex.unlock digest_lock;
      let d = Digest.string (to_string inst) in
      Mutex.lock digest_lock;
      if Id_tbl.length digest_memo >= digest_memo_cap then
        Id_tbl.reset digest_memo;
      Id_tbl.replace digest_memo inst d;
      Mutex.unlock digest_lock;
      d

(* A tiny line cursor with located error messages. *)
type cursor = { lines : string array; mutable pos : int }

let fail_at line msg =
  failwith (Printf.sprintf "Instance_io: line %d: %s" line msg)

(* [next] advances [pos] past the line it returns, so when a caller
   rejects that line the 1-based offender is [pos] itself. *)
let fail cur msg = fail_at cur.pos msg

let next cur =
  if cur.pos >= Array.length cur.lines then
    fail_at (cur.pos + 1) "unexpected end of input";
  let l = String.trim cur.lines.(cur.pos) in
  cur.pos <- cur.pos + 1;
  l

let expect_prefix cur prefix =
  let l = next cur in
  if not (String.length l >= String.length prefix
          && String.sub l 0 (String.length prefix) = prefix)
  then fail cur (Printf.sprintf "expected %S" prefix);
  String.trim
    (String.sub l (String.length prefix)
       (String.length l - String.length prefix))

let parse_int cur s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail cur (Printf.sprintf "expected an integer, got %S" s)

let of_string text =
  let cur = { lines = Array.of_list (String.split_on_char '\n' text); pos = 0 } in
  let header = next cur in
  if header <> "suu-instance v1" then
    failwith "Instance_io: not a suu-instance v1 file";
  let name = expect_prefix cur "name" in
  let m = parse_int cur (expect_prefix cur "machines") in
  let n = parse_int cur (expect_prefix cur "jobs") in
  if m <= 0 || n <= 0 then failwith "Instance_io: non-positive dimensions";
  let (_ : string) = expect_prefix cur "q" in
  let q =
    Array.init m (fun _ ->
        let row = next cur in
        let cells =
          String.split_on_char ' ' row |> List.filter (fun s -> s <> "")
        in
        if List.length cells <> n then fail cur "wrong number of q entries";
        Array.of_list
          (List.map
             (fun s ->
               match float_of_string_opt s with
               | Some v -> v
               | None -> fail cur (Printf.sprintf "bad float %S" s))
             cells))
  in
  let k = parse_int cur (expect_prefix cur "edges") in
  if k < 0 then failwith "Instance_io: negative edge count";
  let edges =
    List.init k (fun _ ->
        let l = next cur in
        match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
        | [ a; b ] -> (parse_int cur a, parse_int cur b)
        | _ -> fail cur "expected two node indices")
  in
  let final = next cur in
  if final <> "end" then failwith "Instance_io: missing trailing 'end'";
  Instance.make ~name ~dag:(Suu_dag.Dag.of_edges ~n edges) q

(* Crash-safe save: write to a tempfile in the destination directory
   (rename is atomic only within one filesystem), fsync, then rename
   over the target and fsync the directory.  An interruption at any
   point leaves either the previous file or the complete new one —
   never a truncated hybrid — plus at worst an orphaned [.TARGET.tmp.PID]
   to sweep up. *)
let save_file path inst =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  let write () =
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let s = to_string inst in
        let n = String.length s in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write_substring fd s !off (n - !off)
        done;
        Unix.fsync fd)
  in
  (try
     write ();
     Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* Make the rename itself durable; filesystems that refuse directory
     fsync just give a weaker guarantee. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd
  | exception Unix.Unix_error _ -> ()

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
