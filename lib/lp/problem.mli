(** Linear-program builder.

    A problem is a minimization over variables [x >= 0] subject to sparse
    linear constraints.  The SUU relaxations (LP1), (LP2) and the
    Lawler–Labetoulle LP are all of this form.  Maximization can be
    expressed by negating the objective. *)

type t
(** A mutable problem under construction. *)

type var = int
(** Variable handle: the index of the variable, also its position in
    solution vectors. *)

type sense = Le | Ge | Eq
(** Constraint sense: [row <= b], [row >= b], [row = b]. *)

val create : ?name:string -> unit -> t
(** [create ()] is an empty minimization problem. *)

val name : t -> string

val add_var : ?name:string -> ?obj:float -> t -> var
(** [add_var t] adds a variable with lower bound 0 and objective
    coefficient [obj] (default 0). *)

val add_constraint :
  ?name:string -> t -> (var * float) list -> sense -> float -> unit
(** [add_constraint t terms sense b] adds [sum terms sense b].  Terms may
    repeat a variable; coefficients are summed.  Raises [Invalid_argument]
    on an out-of-range variable. *)

val num_vars : t -> int
val num_constraints : t -> int

val objective_value : t -> float array -> float
(** [objective_value t x] evaluates the objective at [x]. *)

val constraint_violation : t -> float array -> float
(** [constraint_violation t x] is the largest violation of any constraint
    at [x] (0 when [x] is feasible), including negativity of [x]. *)

val iter_constraints :
  t -> ((var * float) array -> sense -> float -> unit) -> unit
(** [iter_constraints t f] applies [f] to each constraint in insertion
    order. *)

val objective : t -> float array
(** [objective t] is a copy of the dense objective vector. *)
