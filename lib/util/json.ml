(* Minimal dependency-free JSON: the writer behind every BENCH_*.json
   artifact and SUU_TRACE's string escaping, and a recursive-descent
   reader for the bench gate.  Integers surface as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected %C at %d, got %C" c st.pos c'
  | None -> fail "expected %C at %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n > String.length st.s || String.sub st.s st.pos n <> word then
    fail "bad literal at %d" st.pos;
  st.pos <- st.pos + n;
  v

let parse_string st =
  let len = String.length st.s in
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> Buffer.add_char b '\n'; advance st; go ()
        | Some 't' -> Buffer.add_char b '\t'; advance st; go ()
        | Some 'r' -> Buffer.add_char b '\r'; advance st; go ()
        | Some 'b' -> Buffer.add_char b '\b'; advance st; go ()
        | Some 'f' -> Buffer.add_char b '\012'; advance st; go ()
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c; advance st; go ()
        | Some 'u' ->
            (* The writer escapes only bytes below 0x20, which decode back
               to the byte; other code points are stored as UTF-8
               (surrogate pairs are not supported). *)
            let h = String.sub st.s (st.pos + 1) (min 4 (len - st.pos - 1)) in
            let hex = function
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
              | _ -> false
            in
            let c =
              if String.length h = 4 && String.for_all hex h then
                int_of_string ("0x" ^ h)
              else -1
            in
            if not (Uchar.is_valid c) then fail "bad \\u escape at %d" st.pos;
            Buffer.add_utf_8_uchar b (Uchar.of_int c);
            st.pos <- st.pos + 5;
            go ()
        | _ -> fail "bad escape at %d" st.pos)
    | Some c ->
        Buffer.add_char b c;
        advance st;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> num_char c | None -> false) do
    advance st
  done;
  let tok = String.sub st.s start (st.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Float f
  | None -> fail "bad number %S at %d" tok start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '{' ->
      Obj
        (parse_items st '}' (fun () ->
             skip_ws st;
             let k = parse_string st in
             skip_ws st;
             expect st ':';
             (k, parse_value st)))
  | Some '[' -> List (parse_items st ']' (fun () -> parse_value st))
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

(* The comma-separated items after an opening bracket, up to [close]. *)
and parse_items : 'a. state -> char -> (unit -> 'a) -> 'a list =
 fun st close item ->
  advance st;
  skip_ws st;
  if peek st = Some close then (advance st; [])
  else
    let rec go acc =
      let x = item () in
      skip_ws st;
      match peek st with
      | Some ',' -> advance st; go (x :: acc)
      | Some c when c = close -> advance st; List.rev (x :: acc)
      | _ -> fail "expected ',' or %C at %d" close st.pos
    in
    go []

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail "trailing garbage at %d" st.pos;
  v

let of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s

(* --- writer --- *)

let escape buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

(* Shortest of %.15g/%.16g/%.17g that reads back as the same float;
   integral values print without a fraction. *)
let float_repr f =
  List.find
    (fun s -> float_of_string s = f)
    Printf.[ sprintf "%.15g" f; sprintf "%.16g" f; sprintf "%.17g" f ]

let quote buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* The top level, and a second-level container whose items are all
   non-empty containers (table rows, the phase map), break one item per
   line; everything else stays on one line. *)
let rec write buf depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Float f when Float.is_finite f -> Buffer.add_string buf (float_repr f)
  | Float _ -> Buffer.add_string buf "null"
  | String s -> quote buf s
  | List vs -> items buf depth "[]" (List.map (fun v -> (None, v)) vs)
  | Obj kvs -> items buf depth "{}" (List.map (fun (k, v) -> (Some k, v)) kvs)

and items buf depth brackets kvs =
  let nested = function
    | _, (List (_ :: _) | Obj (_ :: _)) -> true
    | _ -> false
  in
  let broken =
    kvs <> [] && (depth = 0 || (depth = 1 && List.for_all nested kvs))
  in
  let indent d =
    if broken then Buffer.add_string buf ("\n" ^ String.make (2 * d) ' ')
  in
  Buffer.add_char buf brackets.[0];
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf (if broken then "," else ", ");
      indent (depth + 1);
      Option.iter (fun k -> quote buf k; Buffer.add_string buf ": ") k;
      write buf (depth + 1) v)
    kvs;
  indent depth;
  Buffer.add_char buf brackets.[1]

let render v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.contents buf

let to_file path v =
  Out_channel.with_open_bin path (fun oc -> output_string oc (render v ^ "\n"))

(* --- accessors --- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let rec path keys j =
  match keys with
  | [] -> Some j
  | k :: rest -> ( match member k j with Some v -> path rest v | None -> None)

let to_float = function
  | Some (Float f) -> Some f
  | Some (Bool b) -> Some (if b then 1.0 else 0.0)
  | _ -> None

let to_bool = function Some (Bool b) -> Some b | _ -> None

let to_string = function Some (String s) -> Some s | _ -> None

let to_list = function Some (List l) -> Some l | _ -> None
