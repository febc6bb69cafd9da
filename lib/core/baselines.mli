(** Baseline schedules the experiments compare against.

    None of these carries the paper's guarantees; they calibrate how much
    of SUU-I-SEM's and SUU-C's performance comes from the LP machinery
    versus generic replication. *)

val greedy_completion : Instance.t -> Policy.t
(** Per step, machines (in index order) each pick the eligible remaining
    job whose expected completion gain [s_j * (1 - q_ij)] is largest,
    where [s_j] is the job's survival probability under the machines
    already committed this step — the natural greedy maximizing the
    expected number of completions per step, in the spirit of
    Lin–Rajaraman's greedy for independent jobs.

    Ties: a strictly larger gain wins, equal gains go to the lower job
    index, and a machine idles when no job has positive gain.  A job no
    machine has picked yet this step has [s_j = 1], so its gain is
    exactly [1 - q_ij]; the stepper therefore ranks each machine's
    positive-gain jobs once by [1 - q_ij] descending then index, takes
    the first eligible remaining unpicked entry, and compares it with
    the (at most [m]) jobs already picked this step.  That is the same
    choice, bit for bit, as scanning every eligible job. *)

val round_robin : Instance.t -> Policy.t
(** Per step, machine [i] takes the [(t + i) mod e]-th eligible job —
    uniform replication with no use of the [q_ij] at all. *)

val serial : Instance.t -> Policy.t
(** All machines gang up on the lowest-index eligible remaining job — the
    trivial O(n)-approximation the paper falls back on in its tail
    phases. *)

val greedy_oblivious : ?target:float -> Instance.t -> Policy.t
(** An LP-free analogue of SUU-I-OBL in the spirit of Lin–Rajaraman's
    greedy: construct a finite oblivious assignment giving every job
    clipped log mass [target] (default 1/2) by doubling a per-machine
    step budget and greedily feeding each step of the strongest available
    machine to the neediest job; repeat the schedule until all jobs
    complete.  Isolates how much of SUU-I-OBL's behaviour comes from the
    LP versus from plain repetition (bench ablation in E1). *)

val greedy_oblivious_assignment : ?target:float -> Instance.t -> Assignment.t
(** The assignment {!greedy_oblivious} repeats (exposed for the A1-style
    load comparison against the LP + Lemma-2 pipeline). *)

(** Note on the paper's concluding open question ("could a greedy
    heuristic achieve the same bounds?"): {!greedy_completion} already
    maximizes the per-step decrease of the SUU* potential
    [sum_remaining 2^(-mass_j)] — by memorylessness of geometric
    completion, weighting by accrued mass changes nothing.  Ablation A3
    in the bench harness answers the question empirically: greedy matches
    SUU-I-SEM on random hazards but starves rare-machine jobs on an
    adversarial family, where its ratio grows linearly while SEM's stays
    bounded. *)
