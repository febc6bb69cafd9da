(** Minimal dependency-free JSON: the writer behind every bench
    artifact (BENCH_*.json) and SUU_TRACE's string escaping, and a
    reader for the bench gate.

    The reader parses the JSON this repo itself emits (bench artifacts,
    bench/baseline.json, SUU_TRACE JSONL lines).  All numbers surface
    as [Float]; [\uXXXX] escapes decode to UTF-8 (surrogate pairs are
    rejected).  Not a validating general-purpose parser — do not feed
    it hostile input. *)

type t =
  | Null
  | Bool of bool
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
val of_file : string -> t

val render : t -> string
(** Floats print in the shortest of [%.15g]/[%.16g]/[%.17g] that reads
    back as the same float (so integral values carry no fraction), and
    non-finite floats as [null].  The top-level container, and a
    second-level one whose items are all non-empty containers, break
    one item per line; everything else is written on one line as
    [{"k": v, "k2": v2}] — the layout the bench smoke scripts grep.
    [of_string (render j) = j] for every [j] without non-finite
    floats. *)

val to_file : string -> t -> unit
(** [to_file path j] writes [render j] and a newline. *)

val escape : Buffer.t -> string -> unit
(** Appends [s] escaped for the inside of a JSON string literal: quote,
    backslash, [\n], [\r], [\t], other bytes below 0x20 as [\u00XX];
    every other byte verbatim. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val path : string list -> t -> t option
(** Nested lookup: [path ["a"; "b"] j] is [j.a.b]. *)

val to_float : t option -> float option
(** A number, or a bool as 0/1. *)

val to_bool : t option -> bool option
val to_string : t option -> string option
val to_list : t option -> t list option
