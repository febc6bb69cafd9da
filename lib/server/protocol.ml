module Instance_io = Suu_core.Instance_io
module Instance = Suu_core.Instance

type body =
  | Describe of Suu_core.Instance.t
  | Lower_bound of Suu_core.Instance.t
  | Plan of { inst : Suu_core.Instance.t; policy : string; seed : int }
  | Simulate of {
      inst : Suu_core.Instance.t;
      policy : string;
      reps : int;
      seed : int;
    }
  | Stats

type request = { id : string option; deadline_ms : int option; body : body }

type error_code = Parse | Bad_request | Overloaded | Timeout | Internal

type response =
  | Ok of {
      id : string option;
      rtype : string;
      fields : (string * string) list;
    }
  | Err of { id : string option; code : error_code; message : string }

exception Parse_error of { line : int; msg : string }

(* Parse-time resource caps: the parser is the network-facing surface,
   so a hostile frame must not be able to commit us to unbounded
   allocation before validation. *)
let max_reps = 1_000_000
let max_machines = 1024
let max_jobs = 65536
let max_cells = 1_000_000
let max_instance_lines = 300_000

let body_type = function
  | Describe _ -> "describe"
  | Lower_bound _ -> "lower_bound"
  | Plan _ -> "plan"
  | Simulate _ -> "simulate"
  | Stats -> "stats"

let error_code_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Internal -> "internal"

let error_code_of_string = function
  | "parse" -> Some Parse
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "internal" -> Some Internal
  | _ -> None

let parse_error_message ~line ~msg = Printf.sprintf "line %d: %s" line msg

let fail ~line msg = raise (Parse_error { line; msg })

(* One-line sanitization: field values and error messages must not be
   able to smuggle frame structure. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* --- writing --- *)

let request_header = "suu-request v1"
let response_header = "suu-response v1"

let add_field buf key value =
  Buffer.add_string buf key;
  if value <> "" then begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf (one_line value)
  end;
  Buffer.add_char buf '\n'

let request_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf request_header;
  Buffer.add_char buf '\n';
  (match r.id with Some id -> add_field buf "id" id | None -> ());
  (match r.deadline_ms with
  | Some d -> add_field buf "deadline-ms" (string_of_int d)
  | None -> ());
  add_field buf "type" (body_type r.body);
  (match r.body with
  | Plan { policy; seed; _ } ->
      add_field buf "policy" policy;
      add_field buf "seed" (string_of_int seed)
  | Simulate { policy; reps; seed; _ } ->
      add_field buf "policy" policy;
      add_field buf "reps" (string_of_int reps);
      add_field buf "seed" (string_of_int seed)
  | Describe _ | Lower_bound _ | Stats -> ());
  (match r.body with
  | Describe inst | Lower_bound inst
  | Plan { inst; _ } | Simulate { inst; _ } ->
      Buffer.add_string buf "instance\n";
      Buffer.add_string buf (Instance_io.to_string inst)
  | Stats -> ());
  Buffer.add_string buf "done\n";
  Buffer.contents buf

let response_to_string = function
  | Ok { id; rtype; fields } ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf response_header;
      Buffer.add_char buf '\n';
      (match id with Some id -> add_field buf "id" id | None -> ());
      add_field buf "status" "ok";
      add_field buf "type" rtype;
      List.iter (fun (k, v) -> add_field buf k v) fields;
      Buffer.add_string buf "done\n";
      Buffer.contents buf
  | Err { id; code; message } ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf response_header;
      Buffer.add_char buf '\n';
      (match id with Some id -> add_field buf "id" id | None -> ());
      add_field buf "status" "error";
      add_field buf "code" (error_code_to_string code);
      add_field buf "message" message;
      Buffer.add_string buf "done\n";
      Buffer.contents buf

(* --- reading --- *)

(* Split a frame line into its key and the rest ("" when absent). *)
let split1 line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

type cursor = { next_line : unit -> string option; mutable line : int }

let next cur =
  match cur.next_line () with
  | None -> None
  | Some l ->
      cur.line <- cur.line + 1;
      Some l

let next_or_fail cur what =
  match next cur with
  | Some l -> l
  | None -> fail ~line:(cur.line + 1) ("unexpected end of stream " ^ what)

let parse_int cur s what =
  match int_of_string_opt (String.trim s) with
  | Some v -> v
  | None ->
      fail ~line:cur.line
        (Printf.sprintf "%s: expected an integer, got %S" what s)

(* The parse memo: a resident server sees the same instance blocks over
   and over, and parsing one costs a [float_of_string] per q cell.  Keys
   are the raw block bytes compared by string equality, never a digest
   of them (MD5 collisions can be constructed, and the bytes are
   untrusted); only blocks that parsed and passed the caps are entered,
   so errors always take the parse below and keep their locations.  A
   hit returns the shared, immutable instance value, whose canonical
   digest is then memoized by identity too ({!Instance_io.digest}).
   Bounded by FIFO eviction over the bytes of the keys; a parsed q cell
   takes 16 bytes against at least 2 of text, so the instances held
   stay within about 8 times the budget. *)
let instance_memo_budget = 4 * 1024 * 1024

type instance_memo = {
  mlock : Mutex.t;
  table : (string, Instance.t) Hashtbl.t;
  order : string Queue.t; (* insertion order, FIFO eviction *)
  mutable bytes : int; (* total length of the keys in [table] *)
}

let memo =
  { mlock = Mutex.create (); table = Hashtbl.create 64;
    order = Queue.create (); bytes = 0 }

let c_memo_hits = Suu_obs.Registry.memo_counter "protocol.instance_memo.hits"

let c_memo_misses =
  Suu_obs.Registry.memo_counter "protocol.instance_memo.misses"

let c_memo_evictions =
  Suu_obs.Registry.memo_counter "protocol.instance_memo.evictions"

let memo_find block =
  let r =
    Mutex.protect memo.mlock (fun () -> Hashtbl.find_opt memo.table block)
  in
  Suu_obs.Counter.incr
    (match r with Some _ -> c_memo_hits () | None -> c_memo_misses ());
  r

(* Returns the value to hand out: the one already entered when another
   parse of the same block won the race, so equal blocks stay shared. *)
let memo_add block inst =
  let len = String.length block in
  if len > instance_memo_budget then inst
  else
    Mutex.protect memo.mlock (fun () ->
        match Hashtbl.find_opt memo.table block with
        | Some shared -> shared
        | None ->
            while memo.bytes + len > instance_memo_budget do
              let old = Queue.take memo.order in
              Hashtbl.remove memo.table old;
              memo.bytes <- memo.bytes - String.length old;
              Suu_obs.Counter.incr (c_memo_evictions ())
            done;
            Hashtbl.add memo.table block inst;
            Queue.add block memo.order;
            memo.bytes <- memo.bytes + len;
            inst)

let reset_instance_memo_for_testing () =
  Mutex.protect memo.mlock (fun () ->
      Hashtbl.reset memo.table;
      Queue.clear memo.order;
      memo.bytes <- 0)

(* Parse one embedded Instance_io block whose [instance] marker was
   frame line [marker], so block line [k] is frame line [marker + k].
   Failures inside {!Instance_io.of_string} carry their own
   block-relative line, which we relocate into the frame. *)
let parse_block ~marker block =
  let relocate msg =
    let prefix = "Instance_io: line " in
    let plen = String.length prefix in
    let located =
      if String.length msg > plen && String.sub msg 0 plen = prefix then
        match String.index_from_opt msg plen ':' with
        | Some colon -> (
            match
              int_of_string_opt (String.sub msg plen (colon - plen))
            with
            | Some k ->
                let rest =
                  String.trim
                    (String.sub msg (colon + 1)
                       (String.length msg - colon - 1))
                in
                Some (marker + k, rest)
            | None -> None)
        | None -> None
      else None
    in
    match located with
    | Some (line, rest) -> fail ~line rest
    | None -> fail ~line:(marker + 1) msg
  in
  let inst =
    match Instance_io.of_string block with
    | inst -> inst
    | exception Failure msg -> relocate msg
    | exception Invalid_argument msg -> relocate msg
  in
  let m = Instance.m inst and n = Instance.n inst in
  if m > max_machines || n > max_jobs || m * n > max_cells then
    fail ~line:(marker + 1)
      (Printf.sprintf "instance too large (m=%d n=%d; caps: m<=%d n<=%d m*n<=%d)"
         m n max_machines max_jobs max_cells);
  inst

(* Read the embedded block; the [instance] marker was just consumed. *)
let read_instance cur =
  let marker = cur.line in
  let buf = Buffer.create 512 in
  let lines = ref 0 in
  let rec collect () =
    let l = next_or_fail cur "inside instance block (missing 'end')" in
    incr lines;
    if !lines > max_instance_lines then
      fail ~line:cur.line "instance block too large";
    Buffer.add_string buf l;
    Buffer.add_char buf '\n';
    if String.trim l <> "end" then collect ()
  in
  collect ();
  let block = Buffer.contents buf in
  match memo_find block with
  | Some inst -> inst
  | None -> memo_add block (parse_block ~marker block)

let request_types =
  [ "describe"; "lower_bound"; "plan"; "simulate"; "stats" ]

let read_request ~next_line =
  let cur = { next_line; line = 0 } in
  match next cur with
  | None -> None
  | Some header ->
      if String.trim header <> request_header then
        fail ~line:cur.line
          (Printf.sprintf "expected %S" request_header);
      let id = ref None
      and deadline = ref None
      and rtype = ref None
      and policy = ref None
      and reps = ref None
      and seed = ref None
      and inst = ref None in
      let set what r v =
        match !r with
        | Some _ -> fail ~line:cur.line ("duplicate field " ^ what)
        | None -> r := Some v
      in
      let rec loop () =
        let l = next_or_fail cur "inside request (missing 'done')" in
        match split1 l with
        | "done", "" -> ()
        | "id", v when v <> "" ->
            set "id" id v;
            loop ()
        | "deadline-ms", v ->
            let d = parse_int cur v "deadline-ms" in
            if d < 1 then fail ~line:cur.line "deadline-ms must be >= 1";
            set "deadline-ms" deadline d;
            loop ()
        | "type", v ->
            if not (List.mem v request_types) then
              fail ~line:cur.line
                (Printf.sprintf "unknown request type %S (have: %s)" v
                   (String.concat ", " request_types));
            set "type" rtype v;
            loop ()
        | "policy", v when v <> "" ->
            set "policy" policy v;
            loop ()
        | "reps", v ->
            let k = parse_int cur v "reps" in
            if k < 1 || k > max_reps then
              fail ~line:cur.line
                (Printf.sprintf "reps must be in [1, %d]" max_reps);
            set "reps" reps k;
            loop ()
        | "seed", v ->
            set "seed" seed (parse_int cur v "seed");
            loop ()
        | "instance", "" ->
            if !inst <> None then
              fail ~line:cur.line "duplicate field instance";
            inst := Some (read_instance cur);
            loop ()
        | key, _ ->
            fail ~line:cur.line
              (Printf.sprintf "unknown or malformed field %S" key)
      in
      loop ();
      let done_line = cur.line in
      let require what r =
        match !r with
        | Some v -> v
        | None ->
            fail ~line:done_line
              (Printf.sprintf "missing required field %s" what)
      in
      let require_inst ty =
        match !inst with
        | Some i -> i
        | None ->
            fail ~line:done_line
              (Printf.sprintf "%s requires an instance block" ty)
      in
      let body =
        match require "'type'" rtype with
        | "describe" -> Describe (require_inst "describe")
        | "lower_bound" -> Lower_bound (require_inst "lower_bound")
        | "plan" ->
            Plan
              {
                inst = require_inst "plan";
                policy = require "policy" policy;
                seed = Option.value !seed ~default:0;
              }
        | "simulate" ->
            Simulate
              {
                inst = require_inst "simulate";
                policy = require "policy" policy;
                reps = require "reps" reps;
                seed = Option.value !seed ~default:0;
              }
        | "stats" ->
            if !inst <> None then
              fail ~line:done_line "stats takes no instance block";
            Stats
        | _ -> assert false
      in
      Some { id = !id; deadline_ms = !deadline; body }

let read_response ~next_line =
  let cur = { next_line; line = 0 } in
  match next cur with
  | None -> None
  | Some header ->
      if String.trim header <> response_header then
        fail ~line:cur.line
          (Printf.sprintf "expected %S" response_header);
      let id = ref None in
      (* Header keys (id, status) come first; after [status ok] + [type]
         every line before [done] is a data field. *)
      let rec before_status () =
        let l = next_or_fail cur "inside response (missing 'status')" in
        match split1 l with
        | "id", v when v <> "" ->
            id := Some v;
            before_status ()
        | "status", "ok" -> ok_body ()
        | "status", "error" -> err_body None None
        | "status", v ->
            fail ~line:cur.line (Printf.sprintf "unknown status %S" v)
        | key, _ ->
            fail ~line:cur.line
              (Printf.sprintf "expected 'status', got %S" key)
      and ok_body () =
        let l = next_or_fail cur "inside response (missing 'type')" in
        match split1 l with
        | "type", v when v <> "" ->
            let rec fields acc =
              let l = next_or_fail cur "inside response (missing 'done')" in
              match split1 l with
              | "done", "" -> List.rev acc
              | k, v -> fields ((k, v) :: acc)
            in
            Ok { id = !id; rtype = v; fields = fields [] }
        | key, _ ->
            fail ~line:cur.line
              (Printf.sprintf "expected 'type', got %S" key)
      and err_body code message =
        let l = next_or_fail cur "inside response (missing 'done')" in
        match split1 l with
        | "done", "" -> (
            match (code, message) with
            | Some code, Some message -> Err { id = !id; code; message }
            | _ ->
                fail ~line:cur.line
                  "error response missing 'code' or 'message'")
        | "code", v -> (
            match error_code_of_string v with
            | Some c -> err_body (Some c) message
            | None ->
                fail ~line:cur.line
                  (Printf.sprintf "unknown error code %S" v))
        | "message", v -> err_body code (Some v)
        | key, _ ->
            fail ~line:cur.line
              (Printf.sprintf "unexpected field %S in error response" key)
      in
      Some (before_status ())

let skip_frame ~next_line =
  let rec loop () =
    match next_line () with
    | None -> ()
    | Some l -> if String.trim l <> "done" then loop ()
  in
  loop ()

(* --- whole-frame string parsing (journal recovery and replay) --- *)

let string_lines s =
  let lines = String.split_on_char '\n' s in
  (* A frame ends with "done\n"; split_on_char leaves one trailing ""
     for that final newline — drop it so it is not read as a line. *)
  let lines =
    match List.rev lines with "" :: tl -> List.rev tl | _ -> lines
  in
  let rem = ref lines in
  fun () ->
    match !rem with
    | [] -> None
    | l :: tl ->
        rem := tl;
        Some l

let request_of_string s =
  match read_request ~next_line:(string_lines s) with
  | r -> r
  | exception Parse_error _ -> None

let response_of_string s =
  match read_response ~next_line:(string_lines s) with
  | r -> r
  | exception Parse_error _ -> None

(* --- digest affinity --- *)

let instance_of_body = function
  | Describe inst | Lower_bound inst
  | Plan { inst; _ } | Simulate { inst; _ } -> Some inst
  | Stats -> None

let instance_digest body =
  match instance_of_body body with
  | None -> None
  | Some inst ->
      (* The canonical Instance_io rendering, not the raw wire bytes:
         two textually different frames describing the same instance
         hash alike, which is what keys the plan cache, the result
         store and shard routing consistently. *)
      Some (Instance_io.digest inst)
