(** Directed acyclic graphs of precedence constraints.

    Nodes are jobs [0 .. size - 1]; an edge [(a, b)] means job [a] must
    complete before job [b] becomes eligible (the paper's dag [G]). *)

type t

val empty : int -> t
(** [empty n] is the edgeless dag on [n] jobs (independent jobs). *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a dag.  Duplicate edges are collapsed.
    Raises [Invalid_argument] if a node is out of range, an edge is a
    self-loop, or the graph has a cycle. *)

val size : t -> int
(** Number of jobs. *)

val num_edges : t -> int

val preds : t -> int -> int list
(** Direct predecessors, ascending. *)

val succs : t -> int -> int list
(** Direct successors, ascending. *)

val in_degree : t -> int -> int
val out_degree : t -> int -> int

val pred_csr : t -> int array * int array
(** [(off, tgt) = pred_csr t]: packed predecessor adjacency.  Node [j]'s
    predecessors are [tgt.(off.(j)) .. tgt.(off.(j + 1) - 1)], ascending —
    the same contents as {!preds} without per-node list cells, for
    allocation-free traversal on hot paths.  The arrays are owned by [t]:
    treat as read-only. *)

val succ_csr : t -> int array * int array
(** Packed successor adjacency; see {!pred_csr}. *)

val iter_preds : t -> int -> (int -> unit) -> unit
(** [iter_preds t j f] applies [f] to each direct predecessor of [j],
    ascending, without allocating. *)

val iter_succs : t -> int -> (int -> unit) -> unit
(** [iter_succs t j f] applies [f] to each direct successor of [j],
    ascending, without allocating. *)

val edges : t -> (int * int) list
(** All edges, in lexicographic order. *)

val is_edgeless : t -> bool

val topological_order : t -> int array
(** A topological order of the jobs (Kahn's algorithm; deterministic:
    smallest-index-first). *)

val sources : t -> int list
(** Jobs with no predecessors (initially eligible jobs), ascending. *)

val eligible : t -> completed:bool array -> int -> bool
(** [eligible t ~completed j] is true when every predecessor of [j] is
    completed (direct predecessors suffice: their own eligibility chains
    the rest). *)

val components : t -> int array
(** Weakly-connected component label per node (labels are dense from 0). *)
