(** Candidate-selection policies for the KK skeleton.

    The heart of KKβ's [compNext] action is {e which} element of
    FREE \ TRY a process picks as its next candidate.  The paper's
    rule splits the free jobs into [m] intervals and sends process [p]
    to the head of the [p]-th one, which is what drives both the
    collision bound (Lemma 5.1: far-apart processes meet only after
    many jobs complete) and, through it, the work bound.

    Keeping the rule as a pluggable policy lets the benches run exact
    ablations: the [Random] policy below replaces only this choice
    (every other line of the algorithm is shared) with a uniformly
    random free job, in the spirit of the randomized solutions of
    Censor-Hillel [22]; [Lowest_free] is the natural greedy rule whose
    collision behaviour the paper's rule is designed to avoid.

    The rule reads FREE and TRY only through their cardinalities and
    [rank(FREE, TRY, i)], so it is written once over {!Freeset}, the
    sets both KKβ bodies ({!Kk} and {!Kk_direct}) keep. *)

type t =
  | Rank_split  (** the paper's rule (Fig. 2, [compNextp]) *)
  | Random of Util.Prng.t
      (** uniform over FREE \ TRY — the randomized ablation *)
  | Lowest_free  (** always the smallest free job — maximal contention *)

val name : t -> string

val choose : t -> p:int -> m:int -> Freeset.t -> int
(** [choose pol ~p ~m sets] returns the candidate job from the FREE
    and TRY held in [sets].

    Precondition: [FREE \ TRY] is non-empty (the algorithm only
    calls this when its cardinality is at least β ≥ 1).

    For [Rank_split] this computes, with [nf = |FREE|]:
    - if [(nf − (m−1)) / m >= 1]: rank [⌊(p−1)·(nf−m+1)/m⌋ + 1];
    - otherwise: rank [p],
    over FREE \ TRY, exactly as in the paper.  In the paper's
    regime (β ≥ m) the rank is always in range; in the experimental
    β < m regime termination is not guaranteed (§3) and the rank is
    clamped to the available range so that correctness is
    preserved. *)

val work_cost : try_cardinal:int -> log_n:int -> int
(** The work units Theorem 5.6 charges for one [compNext]: the
    [rank(FREE, TRY, i)] call costs O(|TRY| · log n); we charge
    [(try_cardinal + 1) · log_n]. *)
