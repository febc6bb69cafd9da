(** Process-wide metric registry with consistent snapshots.

    One registry per process: counters and histograms are interned by
    name, so the engine, LP layer, plan cache and server all publish
    into the same namespace and a single {!snapshot} describes the whole
    process.

    Consistency model: the registry owns ONE mutex.  Every registered
    histogram is created with that mutex as its lock, {!observe} updates
    a counter/histogram pair inside one critical section of it, and
    {!snapshot} reads everything inside the same critical section.  A
    snapshot therefore can never witness a histogram total that
    disagrees with a counter updated in the same [observe] — the
    seqlock-style fix for the stats race.  Plain {!Counter.incr} on a
    registered counter remains lock-free (single-cell atomicity needs no
    lock).

    Recording can be disabled process-wide ({!set_enabled}); the bench
    harness uses this to measure instrumentation overhead.  Disabling
    stops {!Span} recording; counters and direct histogram records are
    so cheap they are left unconditional. *)

val counter : string -> Counter.t
(** Intern: the counter named [name], created at zero on first use. *)

val memo_counter : string -> unit -> Counter.t
(** [memo_counter name] returns a function that yields [counter name],
    interning it on its first call and reusing it after: a counter that
    appears in {!snapshot} only once it is used.  Safe to call first from
    several domains at once, unlike a module-level
    [lazy (counter name)]. *)

val histogram : ?bounds:float array -> string -> Histogram.t
(** Intern: the histogram named [name], sharing the registry mutex.
    [bounds] applies only on first creation. *)

val observe : Counter.t -> Histogram.t -> float -> unit
(** Bump the counter and record into the histogram as one atomic step
    with respect to {!snapshot}.  The histogram must be registered (or
    share the registry mutex). *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * Histogram.t * Histogram.snapshot) list;
      (** sorted by name; the histogram is included for
          {!Histogram.quantile} *)
}

val snapshot : unit -> snapshot
(** One consistent cut across every registered metric, deterministic
    order. *)

val render : ?prefix:string -> unit -> (string * string) list
(** Flatten a snapshot for text transport: each counter as
    [<prefix>counter.<name>], each histogram as
    [<prefix>phase.<name>.{count,mean_ms,p50_ms,p95_ms,p99_ms,raw}]
    (quantiles in milliseconds, [%.3f]; [raw] is
    {!Histogram.raw_of_snapshot} for lossless downstream merging).
    Default prefix ["obs."]. *)

val set_enabled : bool -> unit
(** Master switch consulted by {!Span}; on by default, overridable at
    startup with [SUU_OBS=0]. *)

val enabled : unit -> bool

val reset_for_testing : unit -> unit
(** Drop every registered metric.  Tests only. *)
