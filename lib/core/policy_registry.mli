(** One registry for every scheduling policy the system can serve.

    Policy dispatch used to be string matching repeated across the
    server ([Service]), the CLI, and the bench harness, each with its
    own spelling of the shape checks and its own error message.  The
    registry centralizes name → constructor + metadata: the server, the
    CLI's [policies_for], the bench tables and the docs all read the
    same table, and an unknown name produces one located, exhaustive
    error everywhere.

    The core (LP/paper) policies are registered at module
    initialization.  Out-of-tree families — [Suu_sched]'s online
    policies — call {!register} from an explicit [ensure] hook (module
    initializers of unreferenced units are dropped by the linker, so
    side-effect registration alone is not reliable; see
    [Suu_sched.Register]).

    Thread-safe: registration and lookup take one mutex; lookups after
    startup are read-mostly. *)

type shape_req =
  | Any_shape  (** applicable to every dag *)
  | Independent_only  (** requires an edgeless dag *)
  | Chains_only  (** requires disjoint chains *)
  | Forest_only  (** requires a directed forest *)

type entry = {
  name : string;  (** wire/CLI spelling, unique *)
  summary : string;  (** one-line description for [suu policies] *)
  guarantee : string;
      (** approximation guarantee as stated in the source, e.g.
          ["O(log n)"] or ["0.8531-approximate"]; ["heuristic"] when
          none is proven *)
  lp_free : bool;
      (** [true] when the policy never touches the LP pipeline or the
          plan cache — the server counts such requests as plan-cache
          bypasses rather than letting them dilute the hit rate *)
  shape : shape_req;
  build : solver:Solver_choice.t option -> Instance.t -> Policy.t;
}

val register : entry -> unit
(** [register e] adds [e] to the registry.  Raises [Invalid_argument]
    on a duplicate name. *)

val names : unit -> string list
(** Registered names, in registration order (core policies first). *)

val entries : unit -> entry list
(** All entries, in registration order. *)

val find : string -> entry option

val mem : string -> bool

val lp_free : string -> bool
(** [lp_free name] is the entry's flag, or [false] for unknown names. *)

val describe_requirement : shape_req -> string
(** Human spelling of the requirement: ["independent jobs"], .... *)

val build :
  ?solver:Solver_choice.t -> string -> Instance.t ->
  (Policy.t, [ `Unknown of string | `Inapplicable of string ]) result
(** [build name inst] constructs the named policy after validating the
    instance shape.  [`Unknown] lists every registered name;
    [`Inapplicable] names the requirement and the instance's actual
    shape. *)

val applicable : Instance.t -> string list
(** Names whose shape requirement the instance satisfies, in
    registration order. *)
