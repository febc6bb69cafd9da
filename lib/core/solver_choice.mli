(** Choice of fractional-LP backend for the (LP1)-shaped relaxations. *)

type t =
  | Simplex
      (** exact two-phase tableau simplex ({!Suu_lp.Simplex}), the only
          exact backend *)
  | Mwu of float
      (** Garg–Könemann multiplicative weights with the given [eps]
          ({!Suu_lp.Mwu}); value within [1 + O(eps)] of optimal, and
          every solution carries a weak-duality certificate that {!Lp1}
          checks before trusting it (falling back to the simplex when
          the certified gap exceeds {!guarantee}).  Use for large
          instances where the tableau would be slow. *)

val default : t
(** [Simplex] — the exact backend, for offline experiments and as the
    reference the others are validated against. *)

val serve_default : t
(** [Mwu 0.1] — what a server uses when no solver is configured: the
    cheap certified backend, with automatic simplex fallback for tiny
    instances and failed certificates. *)

val guarantee : t -> float
(** [guarantee s] is an upper bound on [value / optimum] for solutions
    produced by [s]: [1.0] for the simplex, [1 + 5 eps] for MWU.  For
    MWU the bound is enforced per solve: {!Lp1} accepts an MWU solution
    only when its certified duality gap is within this constant (and
    debug-asserts the comparison), so a future MWU change cannot
    silently degrade the ratio. *)

val name : t -> string
(** Short label for telemetry and the CLI: ["simplex"], ["mwu-0.1"],
    ...; inverse of {!of_string} for every [t]. *)

val of_string : string -> (t, string) result
(** Parse a wire/CLI spelling: ["simplex"], ["mwu"]
    (meaning {!serve_default}) or ["mwu-EPS"] with [EPS] in (0, 0.5].
    [Error] carries a human-readable message. *)
