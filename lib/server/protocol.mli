(** The [suu-serve] wire protocol, v1: newline-framed text.

    Both directions exchange {e frames}: a versioned header line, one
    [key value] line per field, and a terminating [done] line.  Requests
    that operate on an instance embed it verbatim in the
    {!Suu_core.Instance_io} v1 format (the block is self-terminating —
    its last line is [end]) after a bare [instance] marker line:

    {v
    suu-request v1
    id r42                     (optional, echoed in the response)
    deadline-ms 5000           (optional)
    type simulate
    policy suu-i-sem
    reps 20
    seed 1
    instance
    suu-instance v1
    ...
    end
    done
    v}

    Responses mirror the shape; [status] is [ok] (followed by the
    request type and result fields) or [error] (followed by a code and
    a one-line message):

    {v
    suu-response v1            |  suu-response v1
    id r42                     |  status error
    status ok                  |  code overloaded
    type simulate              |  message queue full (capacity 64)
    mean 37.299999999999997    |  done
    ...                        |
    done                       |
    v}

    Parsing is strict and {e located}: malformed input raises
    {!Parse_error} carrying the 1-based line number relative to the
    frame's header line, including for errors inside the embedded
    instance block.  A parse error consumes only the offending frame —
    the caller can resync to the next [done] and keep the connection.

    Floats in responses are printed with round-trip precision
    ([%.17g]), so a response is a deterministic function of the request
    — the determinism-over-the-wire contract for [simulate] reduces to
    {!Suu_sim.Runner}'s replication determinism. *)

type body =
  | Describe of Suu_core.Instance.t
  | Lower_bound of Suu_core.Instance.t
  | Plan of { inst : Suu_core.Instance.t; policy : string; seed : int }
      (** Materialize the policy's schedule on one deterministic trace
          and summarize it.  [seed] defaults to 0 on the wire. *)
  | Simulate of {
      inst : Suu_core.Instance.t;
      policy : string;
      reps : int;
      seed : int; (** defaults to 0 on the wire *)
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
(** [line] is 1-based from the frame's header line.  The rendered
    message is ["line N: ..."]. *)

val body_type : body -> string
val error_code_to_string : error_code -> string
val parse_error_message : line:int -> msg:string -> string
(** The canonical ["line N: msg"] rendering used in [parse] replies. *)

val request_to_string : request -> string
val response_to_string : response -> string

val read_request : next_line:(unit -> string option) -> request option
(** Read one request frame.  [next_line] yields lines without their
    newline; [None] means end of stream.  Returns [None] on a clean end
    of stream before any line of a frame; raises {!Parse_error} on
    malformed input (including a stream truncated mid-frame).
    Oversized payloads are rejected at parse time: [reps] above
    [1_000_000], instances beyond [1024] machines, [65536] jobs or
    [1_000_000] matrix entries.  Byte-identical instance blocks parse
    to one shared instance value (see {!instance_memo_budget}). *)

val instance_memo_budget : int
(** Bytes of instance-block text (4 MiB) the parse memo behind
    {!read_request} holds.  Requests whose embedded blocks are
    byte-identical get the {e same} {!Suu_core.Instance.t} value: the
    memo is keyed by the raw block bytes (compared by string equality,
    not by a hash), maps them to the parsed instance, and evicts the
    oldest blocks first once their total size would pass this budget.
    A block larger than the budget is never memoized.  Only blocks that
    parsed and passed the caps are entered, so malformed blocks always
    fail with their located error.  Hits, misses and evictions count
    into [protocol.instance_memo.{hits,misses,evictions}] in the obs
    registry. *)

val reset_instance_memo_for_testing : unit -> unit
(** Forget every memoized block, so the next parse of any block is a
    cold one.  Tests only. *)

val read_response : next_line:(unit -> string option) -> response option
(** Read one response frame; same conventions as {!read_request}. *)

val skip_frame : next_line:(unit -> string option) -> unit
(** Consume lines up to and including the next [done] (or end of
    stream) — resynchronization after a {!Parse_error}. *)

val request_of_string : string -> request option
(** Parse a whole request frame held in a string — journal recovery and
    replay.  [None] on an empty or malformed frame (a journaled frame
    that fails to parse indicates journal-format skew, not a client
    error, so the {!Parse_error} location is not surfaced). *)

val response_of_string : string -> response option
(** Parse a whole response frame held in a string; same conventions as
    {!request_of_string}. *)

val instance_digest : body -> string option
(** {!Suu_core.Instance_io.digest} of the embedded instance: MD5 of its
    canonical rendering; [None] for [Stats].  This is the digest the
    service keys its instance cache by and the router hashes onto the
    shard ring, so "same digest" means "same cache entry" means "same
    shard". *)
