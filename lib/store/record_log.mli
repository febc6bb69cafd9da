(** Crash-safe append-only record log.

    The one durable primitive under the result store and the request
    journal.  A log file is a fixed header line followed by framed
    records:

    {v
    [len : u32 LE] [crc32(payload) : u32 LE] [payload bytes]
    v}

    Durability discipline:

    - {b Appends} write one whole frame and (by default) [fsync] before
      returning, so a record that {!append} returned for survives a
      [kill -9] or power cut.
    - {b Recovery} ({!open_log}) scans the file front to back and stops
      at the first frame that is short, oversized, or fails its CRC —
      everything before it is the recovered prefix, everything after is
      a torn tail from an interrupted append and is truncated away.
      Recovered record and truncation counts land in the Obs registry
      as [store.recovered] / [store.truncated].
    - {b Rewrites} ({!rewrite}) go through a tempfile in the
      destination directory, [fsync], [rename], directory [fsync]: a
      crash leaves either the old file or the new one, never a blend.

    Readers never trust a length field further than the bytes actually
    present, and a per-record size cap (64 MiB) keeps a corrupt length from
    committing the scanner to an absurd allocation. *)

type t

val read : string -> string list
(** Read-only recovery scan: the committed records of the log at
    [path], in append order, ignoring (without modifying) any torn
    tail.  A missing file is the empty log.  Raises [Failure] when the
    file exists but does not start with the log header (it is not a
    record log — refusing beats silently truncating someone's data). *)

val open_log : ?sync:bool -> string -> t * string list
(** Recover the log at [path] — truncating a torn tail in place — and
    open it for appending; returns the recovered records in append
    order.  Creates the file (atomically, header only) when missing.
    [sync] (default [true]) is the default durability of each
    {!append}.  Raises [Failure] on a foreign file, [Unix.Unix_error]
    on IO errors. *)

val append : ?sync:bool -> t -> string -> unit
(** Append one record; on return with [sync = true] (the default, or
    the log's default) the record is on disk.  Raises
    [Invalid_argument] past the 64 MiB per-record cap, [Failure] if
    closed. *)

val sync : t -> unit
(** [fsync] now — pairs with [append ~sync:false] batching. *)

val path : t -> string

val close : t -> unit
(** Syncs pending writes, then closes.  Idempotent. *)

val rewrite : string -> string list -> unit
(** Replace the log at [path] with exactly [records], atomically:
    tempfile in the same directory, [fsync], [rename] over [path],
    directory [fsync].  Used for compaction and for creating fresh
    logs; concurrent appenders to the old file must be quiesced by the
    caller. *)
