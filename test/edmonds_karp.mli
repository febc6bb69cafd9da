(** Edmonds–Karp maximum flow (BFS augmenting paths).

    A second, independent implementation of Ford–Fulkerson used to
    cross-check {!Suu_flow.Dinic} in tests, exactly because the paper's
    rounding correctness leans on Ford–Fulkerson's integrality theorem. *)

val max_flow : Suu_flow.Net.t -> s:int -> t:int -> int
(** [max_flow net ~s ~t] computes a maximum flow, mutating [net] into its
    residual graph. *)
