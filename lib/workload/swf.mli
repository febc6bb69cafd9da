(** Standard Workload Format (SWF) ingestion.

    SWF is the replay format of the Parallel Workloads Archive — the
    trace format real HPC schedulers (Maui, Slurm converters, the pyss
    EASY/EASY++ simulators) exchange.  A trace is a text file of

    - header/comment lines starting with [';'].  Header {e directives}
      have the shape [; Key: value] (e.g. [; MaxProcs: 128]) and are
      preserved; other [';'] lines are plain comments;
    - one job per line, exactly 18 whitespace-separated fields:
      job number, submit time, wait time, run time, allocated
      processors, average CPU time, used memory, requested processors,
      requested time, requested memory, status, user id, group id,
      executable, queue, partition, preceding job, think time.
      Unknown values are [-1] by convention.

    Parsing is strict and located: malformed input raises [Failure]
    with a 1-based line number (["Swf: line N: ..."]), in the style of
    {!Suu_core.Instance_io}.  The parser is streaming — {!fold} reads
    line by line and never materializes the file — so multi-year
    archive traces ingest in constant memory.

    The second half of this module maps trace jobs onto SUU instances,
    giving the paper's policies a trace-driven workload axis:

    - {b runtime → hazard calibration}: per-machine speed factors are
      drawn once per trace as in the [Product] hazard model, and a
      job's failure probabilities are [q_ij = base^(speed_i * ease_j)]
      with [ease_j] shrinking in the recorded runtime — longer jobs
      carry more failure mass per step on every machine, so recorded
      runtimes set the number of repetitions the SUU policies must
      plan for;
    - {b processor count → width}: a job allocated [p] processors
      becomes an SUU instance of [min p max_width] sub-jobs;
    - {b user id → DAG template}: users are classified by their mean
      allocated width across the trace — sequential users (mean width
      below the trace median) submit chain-structured instances,
      wide users submit MapReduce fan-in instances (all but one
      sub-job feeding a final reducer), and width-1 jobs are single
      independent jobs regardless of user.

    Every mapping is a deterministic function of [(trace, seed)]. *)

type job = {
  id : int;  (** field 1, job number *)
  submit : float;  (** field 2, seconds since trace start *)
  wait : float;  (** field 3, seconds in queue; [-1.] unknown *)
  runtime : float;  (** field 4, seconds of execution; [-1.] unknown *)
  procs : int;  (** field 5, allocated processors; [-1] unknown *)
  cpu_used : float;  (** field 6 *)
  mem_used : float;  (** field 7 *)
  req_procs : int;  (** field 8 *)
  req_time : float;  (** field 9 *)
  req_mem : float;  (** field 10 *)
  status : int;  (** field 11: 1 completed, 0 failed, 5 cancelled, ... *)
  user : int;  (** field 12 *)
  group : int;  (** field 13 *)
  executable : int;  (** field 14 *)
  queue : int;  (** field 15 *)
  partition : int;  (** field 16 *)
  prec_job : int;  (** field 17, preceding job number *)
  think_time : float;  (** field 18 *)
}

type t = {
  directives : (string * string) list;
      (** header [; Key: value] lines, in file order *)
  jobs : job array;  (** job lines, in file order *)
}

val parse_line : lineno:int -> string -> job option
(** Parse one line.  [None] for blank and [';'] lines; raises [Failure
    "Swf: line N: ..."] on a job line with a wrong field count or an
    unparseable field (the message names the offending field). *)

val fold :
  next_line:(unit -> string option) -> init:'a -> f:('a -> job -> 'a) -> 'a
(** Streaming parse: [next_line] yields lines without their newline
    ([None] at end of stream); [f] is applied to each job line in
    order.  Comments and directives are skipped.  Line numbers in
    errors count from 1 at the first line [next_line] returned. *)

val of_string : string -> t
val load_file : string -> t
(** [load_file path] streams [path] through {!fold}, collecting
    directives and jobs.  Raises [Failure] on parse errors (located)
    and [Sys_error] on I/O failure. *)

val job_to_line : job -> string
(** The canonical 18-field rendering (no trailing newline).  Floats
    that hold integral values print as integers, so archive-style
    lines round-trip byte-identically; fractional values print with
    round-trip precision. *)

val to_string : t -> string
(** Directives (as [; Key: value]) followed by {!job_to_line} per job,
    one per line.  [of_string (to_string t)] equals [t]. *)

(** {1 Trace statistics} *)

type stats = {
  n_jobs : int;
  n_users : int;
  span : float;  (** last submit - first submit, seconds *)
  max_procs : int;
  mean_procs : float;
  mean_runtime : float;  (** over jobs with a known runtime *)
  max_runtime : float;
}

val stats : t -> stats
(** Raises [Invalid_argument] on an empty trace. *)

(** {1 Mapping onto SUU instances} *)

type mapping = {
  m : int;  (** machines per generated instance *)
  max_width : int;  (** cap on sub-jobs per instance *)
  seed : int;  (** master seed; everything derives from it *)
  runtime_ref : float;
      (** reference runtime: a job of this length gets ease 1 (the
          mid-range of the Product model); shorter jobs are easier,
          longer jobs harder.  Non-positive picks the trace mean. *)
}

val default_mapping : mapping
(** [m = 4], [max_width = 12], [seed = 0], [runtime_ref = 0.] *)

val instances : ?mapping:mapping -> t -> (job * Suu_core.Instance.t) array
(** Map the whole trace, one instance per job in submit order.  One
    set of per-machine speed factors ([mapping.m] of them, in
    [[0.3, 2.0]] as in the [Product] hazard) serves every instance of
    the trace — one machine pool, many jobs, as in the archive systems
    the traces come from.  Users are classified by mean allocated
    width: at or below the per-user median, a multi-processor job maps
    to the sequential chain template, above it to the mapreduce
    fan-in.  The instance name encodes job id, user, width and
    template, and each failure matrix depends only on
    [(mapping, job)], so a job maps identically across runs and
    processes.  Deterministic in [(trace, mapping)]. *)

val arrival_times : t -> float array
(** Submit times normalized to start at 0, clamped to be
    non-decreasing (archive traces occasionally carry out-of-order
    submit stamps) — the replay clock for open-loop serving. *)
