(* Tests for the ASCII table renderer used by the bench harness. *)

module Table = Suu_util.Table

let render_lines t =
  String.split_on_char '\n' (Table.render t)
  |> List.filter (fun l -> l <> "")

let test_basic_layout () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let lines = render_lines t in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all lines share the same width *)
  let widths = List.map String.length lines in
  List.iter
    (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w)
    widths

let test_right_alignment () =
  let t = Table.create ~header:[ "k"; "v" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "y"; "100" ];
  let lines = render_lines t in
  let last = List.nth lines 3 in
  (* numeric column is right-aligned: "1" sits at the end on row x *)
  let row_x = List.nth lines 2 in
  Alcotest.(check bool) "right aligned" true
    (String.length row_x = String.length last
    && row_x.[String.length row_x - 1] = '1')

let test_short_rows_padded () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  let lines = render_lines t in
  Alcotest.(check int) "renders" 3 (List.length lines)

let test_too_long_row () =
  let t = Table.create ~header:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than columns") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_float_row () =
  let t = Table.create ~header:[ "label"; "x"; "y" ] in
  Table.add_float_row t "r" [ 1.5; Float.nan ];
  let s = Table.render t in
  Alcotest.(check bool) "formats nan as dash" true
    (String.length s > 0
    && String.index_opt s '-' <> None)

let test_fmt_g () =
  Alcotest.(check string) "integer" "42" (Table.fmt_g 42.0);
  Alcotest.(check string) "nan" "-" (Table.fmt_g Float.nan);
  Alcotest.(check string) "4 sig figs" "3.142" (Table.fmt_g 3.14159);
  Alcotest.(check string) "small" "0.001234" (Table.fmt_g 0.0012341)

let prop_render_row_count =
  QCheck.Test.make ~count:100 ~name:"render emits one line per row + 2"
    QCheck.(list_of_size Gen.(0 -- 20) (list_of_size Gen.(1 -- 3) string))
    (fun rows ->
      let t = Table.create ~header:[ "a"; "b"; "c" ] in
      let clean s =
        String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s
      in
      List.iter (fun row -> Table.add_row t (List.map clean row)) rows;
      List.length (render_lines t) >= List.length rows + 2)

(* --- JSON writer and reader --- *)

module J = Suu_util.Json

(* The escaping SUU_TRACE lines have always used (the private copy in
   trace_sink.ml before it called [Json.escape]): the oracle that keeps
   trace lines byte-identical. *)
let trace_escape_oracle s =
  let buf = Buffer.create 16 in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Strings heavy in quotes, backslashes and control bytes. *)
let gen_json_string =
  QCheck.Gen.(
    string_size (0 -- 12)
      ~gen:
        (frequency
           [ (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '/' ]);
             (3, char_range '\001' '\031'); (6, printable); (1, char) ]))

(* Finite floats: small integers, short decimals and arbitrary bit
   patterns (subnormals and 17-digit values included). *)
let gen_finite_float =
  QCheck.Gen.(
    frequency
      [ (2, map float_of_int (-1000 -- 1000));
        (2, map (fun i -> float_of_int i /. 1000.0) (-100000 -- 100000));
        ( 3,
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_finite f then f else 0.5)
            ui64 ) ])

let gen_json =
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ return J.Null; map (fun b -> J.Bool b) bool;
                 map (fun f -> J.Float f) gen_finite_float;
                 map (fun s -> J.String s) gen_json_string ]
           in
           if depth = 0 then leaf
           else
             let sub = self (depth - 1) in
             frequency
               [ (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (0 -- 4) sub));
                 ( 1,
                   map (fun kvs -> J.Obj kvs)
                     (list_size (0 -- 4) (pair gen_json_string sub)) ) ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"json of_string (render j) = j"
    (QCheck.make ~print:J.render gen_json)
    (fun j -> J.of_string (J.render j) = j)

let prop_json_float_exact =
  QCheck.Test.make ~count:2000 ~name:"json finite floats round-trip exactly"
    (QCheck.make ~print:string_of_float gen_finite_float)
    (fun f ->
      match J.of_string (J.render (J.Float f)) with
      | J.Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> false)

let prop_json_escape_oracle =
  QCheck.Test.make ~count:1000 ~name:"json escape = trace escape"
    (QCheck.make ~print:String.escaped gen_json_string)
    (fun s ->
      let buf = Buffer.create 16 in
      J.escape buf s;
      String.equal (Buffer.contents buf) (trace_escape_oracle s))

let test_json_non_finite () =
  let j =
    J.List (List.map (fun f -> J.Float f) Float.[ nan; infinity; neg_infinity ])
  in
  Alcotest.(check string) "written as null" "[\n  null,\n  null,\n  null\n]"
    (J.render j);
  Alcotest.(check bool) "read back as Null" true
    (J.of_string (J.render j) = J.List [ J.Null; J.Null; J.Null ])

let test_json_unicode_escapes () =
  let s j = J.to_string (Some (J.of_string j)) in
  Alcotest.(check (option string)) "\\u00XX" (Some "a\001\031b")
    (s {|"a\u0001\u001Fb"|});
  Alcotest.(check (option string)) "above 0x7f is UTF-8" (Some "\xc3\xa9")
    (s {|"\u00e9"|});
  List.iter
    (fun bad ->
      match J.of_string bad with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s should not parse" bad)
    [ {|"\u12"|}; {|"\u00g1"|}; {|"\ud800"|} ]

(* The layout the bench smoke scripts grep: members of the top level and
   lists of rows one per line, other sections on one line. *)
let test_json_layout () =
  let j =
    J.Obj
      [ ("experiment", J.String "serve"); ("n", J.Float 20.0);
        ( "workload",
          J.Obj
            [ ("arrivals", J.Float 20.0); ("completed", J.Float 20.0);
              ("lat", J.Obj [ ("p50", J.Float 1.5) ]) ] );
        ("rows", J.List [ J.Obj [ ("a", J.Bool true) ]; J.Obj [] ]);
        ("empty", J.List []) ]
  in
  Alcotest.(check string) "layout"
    {|{
  "experiment": "serve",
  "n": 20,
  "workload": {"arrivals": 20, "completed": 20, "lat": {"p50": 1.5}},
  "rows": [{"a": true}, {}],
  "empty": []
}|}
    (J.render j);
  Alcotest.(check string) "rows of containers break"
    "[\n  [1],\n  {\"k\": 0.1}\n]"
    (J.render (J.List [ J.List [ J.Float 1.0 ]; J.Obj [ ("k", J.Float 0.1) ] ]))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "table",
        [
          Alcotest.test_case "layout" `Quick test_basic_layout;
          Alcotest.test_case "alignment" `Quick test_right_alignment;
          Alcotest.test_case "short rows" `Quick test_short_rows_padded;
          Alcotest.test_case "too long" `Quick test_too_long_row;
          Alcotest.test_case "float rows" `Quick test_float_row;
          Alcotest.test_case "fmt_g" `Quick test_fmt_g;
        ] );
      ("properties", [ q prop_render_row_count ]);
      ( "json",
        [
          q prop_json_roundtrip;
          q prop_json_float_exact;
          q prop_json_escape_oracle;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "layout" `Quick test_json_layout;
        ] );
    ]
