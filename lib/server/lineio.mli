(** Buffered, capped line IO — shared by the event-loop server's
    per-connection parse buffers and the blocking client.

    [input_line] on a channel would almost do, but it neither caps line
    length (a hostile peer could grow one line without bound) nor
    survives a concurrent [shutdown] cleanly, and mixing channels with
    raw descriptors on one socket invites buffering bugs. *)

exception Line_too_long
(** A line exceeded the 8 MiB cap (larger than any legal frame line). *)

exception Read_timeout
(** The deadline passed with no complete line available (see
    {!next_line}'s [deadline_ns]). *)

(** Incremental line splitter: bytes in, complete lines out.  This is
    the non-blocking half of the module — the reactor feeds it whatever
    a socket read returned and drains lines as they complete, so a
    frame split across arbitrary read boundaries reassembles exactly as
    it would from one contiguous read. *)
module Linebuf : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit
  (** [feed t buf off len] appends a chunk.  Raises {!Line_too_long} as
      soon as the unterminated tail exceeds the 8 MiB cap — before
      buffering more of it. *)

  val next : t -> string option
  (** The next complete line, terminator removed and a trailing [\r]
      stripped; [None] when no full line is buffered (amortised O(1) —
      lines are split once, at {!feed} time). *)

  val take_rest : t -> string option
  (** The unterminated tail, if any, consumed — what a final line
      missing its [\n] looks like at EOF.  Call only after {!next}
      returns [None] at end of stream. *)
end

type reader

val reader : Unix.file_descr -> reader

val reader_of_fn : (bytes -> int -> int -> int) -> reader
(** A reader over an arbitrary read function with [Unix.read]'s
    contract (fill [buf.[off..off+len)], return bytes read, 0 at EOF,
    may raise [Unix.Unix_error]).  Test hook: lets tests script exact
    read-boundary splits and transient errors such as [EINTR] without a
    socket.  [deadline_ns] is ignored for function-backed readers. *)

val next_line : ?deadline_ns:int64 -> reader -> string option
(** The next [\n]-terminated line, without the terminator (a trailing
    [\r] is stripped).  [None] at end of stream — including when a
    concurrent [shutdown] aborts a blocked read.  Interrupted reads
    ([EINTR]) are retried; they do not discard buffered input.  When
    [deadline_ns] (an absolute {!Suu_obs.Clock.now_ns} instant) is
    given, each read first waits for readability with [select] and
    raises {!Read_timeout} once the deadline passes — the client's
    per-request timeout.  Raises {!Line_too_long}. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string (looping over partial writes).  Raises
    [Unix.Unix_error] like [Unix.write]. *)
