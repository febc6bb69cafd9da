type sink = Disabled | Channel of out_channel | Test_buffer of Buffer.t

let lock = Mutex.create ()

let sink_of_env () =
  match Sys.getenv_opt "SUU_TRACE" with
  | Some ("1" | "true" | "on") ->
      let path =
        match Sys.getenv_opt "SUU_TRACE_FILE" with
        | Some p when p <> "" -> p
        | _ -> "suu-trace.jsonl"
      in
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path
      in
      at_exit (fun () -> try close_out oc with Sys_error _ -> ());
      Channel oc
  | _ -> Disabled

let sink = ref None (* None = not yet initialized from the env *)

let current_sink () =
  match !sink with
  | Some s -> s
  | None ->
      let s = sink_of_env () in
      sink := Some s;
      s

let enabled () =
  match current_sink () with Disabled -> false | _ -> true

(* Span names and attribute strings are ours (short identifiers), but
   attrs may carry policy names etc., so escape properly anyway. *)
let escape = Suu_util.Json.escape

let emit ~name ~id ~parent ~start_ns ~dur_ns ~attrs =
  match current_sink () with
  | Disabled -> ()
  | s ->
      let buf = Buffer.create 160 in
      Buffer.add_string buf "{\"name\":\"";
      escape buf name;
      Buffer.add_string buf (Printf.sprintf "\",\"id\":%d" id);
      (match parent with
      | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent\":%d" p)
      | None -> ());
      Buffer.add_string buf
        (Printf.sprintf ",\"thread\":%d" (Thread.id (Thread.self ())));
      Buffer.add_string buf
        (Printf.sprintf ",\"start_ns\":%Ld,\"dur_ns\":%Ld" start_ns dur_ns);
      if attrs <> [] then begin
        Buffer.add_string buf ",\"attrs\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":\"";
            escape buf v;
            Buffer.add_char buf '"')
          attrs;
        Buffer.add_char buf '}'
      end;
      Buffer.add_string buf "}\n";
      let line = Buffer.contents buf in
      Mutex.lock lock;
      (match s with
      | Channel oc ->
          (try
             output_string oc line;
             flush oc
           with Sys_error _ -> ())
      | Test_buffer b -> Buffer.add_string b line
      | Disabled -> ());
      Mutex.unlock lock

let use_buffer_for_testing b =
  Mutex.lock lock;
  (match b with
  | Some b -> sink := Some (Test_buffer b)
  | None -> sink := None);
  Mutex.unlock lock
