(** SUU-T: directed-forest precedence constraints (paper Appendix B).

    The forest is decomposed into at most [floor(log2 n) + 1] blocks of
    vertex-disjoint chains ({!Suu_dag.Forest.decompose}); every
    predecessor of a block-[k] chain lives in an earlier block, so running
    SUU-C once per block, in order, is a valid schedule — giving the
    O(log n log(n+m) loglog min(m,n)) bound of Theorem 12. *)

val blocks : Instance.t -> int array list array
(** [blocks inst] is the chain-block decomposition of the instance's dag.
    Raises [Invalid_argument] when the dag is not a directed forest. *)

val policy :
  ?solver:Solver_choice.t -> ?top_machines:int -> Instance.t -> Policy.t
(** [policy inst] prepares one SUU-C stage per block (LPs solved at
    creation) and executes the stages sequentially, advancing when the
    current block's jobs are all complete.  A cursor over the block's
    jobs tells when: it skips finished jobs and never moves back, since
    [remaining] only goes from true to false. *)
