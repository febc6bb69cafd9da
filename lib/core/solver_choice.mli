(** Choice of fractional-LP backend for the (LP1)-shaped relaxations. *)

type t =
  | Simplex  (** exact two-phase tableau simplex ({!Suu_lp.Simplex}) *)
  | Revised
      (** exact revised simplex ({!Suu_lp.Revised_simplex}) with
          warm-started restarts: across a doubling sequence the optimal
          basis of round [k] seeds round [k+1] (see {!Plan_cache}),
          skipping phase 1 when the basis survives the target change. *)
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
    produced by [s]: [1.0] for both simplex backends, [1 + 5 eps] for
    MWU.  For MWU the bound is enforced per solve: {!Lp1} accepts an
    MWU solution only when its certified duality gap is within this
    constant (and debug-asserts the comparison), so a future MWU change
    cannot silently degrade the ratio. *)

val name : t -> string
(** Short label for telemetry: ["simplex"], ["revised"], ["mwu-0.1"], ... *)

val to_string : t -> string
(** Alias of {!name}; inverse of {!of_string} for every [t]. *)

val of_string : string -> (t, string) result
(** Parse a wire/CLI spelling: ["simplex"], ["revised"], ["mwu"]
    (meaning {!serve_default}) or ["mwu-EPS"] with [EPS] in (0, 0.5].
    [Error] carries a human-readable message. *)
