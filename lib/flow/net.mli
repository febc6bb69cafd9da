(** Capacitated directed networks with integral capacities.

    The rounding step of the paper's Lemma 2 (and Lemma 6) needs an
    *integral* maximum flow — Ford–Fulkerson's integrality theorem is what
    makes the rounded assignment integral.  This module stores a residual
    graph; {!Dinic.max_flow} operates on it in place (so does the test
    suite's Edmonds–Karp oracle). *)

type t
(** A flow network over nodes [0 .. num_nodes - 1]. *)

type edge
(** Handle to a forward edge, for reading its flow after a computation. *)

val infinite : int
(** A capacity treated as unbounded ([max_int / 4], safe to sum). *)

val create : int -> t
(** [create n] is an empty network on [n] nodes. *)

val num_nodes : t -> int

val add_edge : t -> src:int -> dst:int -> cap:int -> edge
(** [add_edge t ~src ~dst ~cap] adds a directed edge with capacity
    [cap >= 0] and its zero-capacity reverse residual edge.  Raises
    [Invalid_argument] on bad nodes or negative capacity. *)

val flow_on : t -> edge -> int
(** [flow_on t e] is the flow currently routed through [e] (capacity
    consumed), valid after a max-flow computation. *)

val capacity : t -> edge -> int
(** [capacity t e] is the original capacity of [e]. *)

val copy : t -> t
(** Deep copy (for cross-checking two solvers on one instance). *)

val reset : t -> unit
(** [reset t] restores all capacities, erasing any computed flow. *)

(**/**)

(* Internal representation shared with the solver modules. *)
val internal :
  t -> int array array * int array * int array
(* [internal t] is [(adj, dst, residual_cap)]: [adj.(v)] lists arc ids out
   of [v]; arc [a] points to [dst.(a)] with remaining capacity
   [residual_cap.(a)]; arc [a lxor 1] is its reverse. *)
