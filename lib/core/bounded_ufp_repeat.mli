(** Algorithm 3 of the paper: [Bounded-UFP-Repeat(eps)] for the
    unsplittable flow {e with repetitions} problem (Section 5).

    Identical primal-dual loop to {!Bounded_ufp} except that a selected
    request is not removed — it may be satisfied again, possibly along
    a different path, and the profit accumulates. The dual program
    (Figure 5) has no [z] variables, and the algorithm achieves a
    [(1 + 6 eps)] approximation (Theorem 5.1) — a sharp contrast with
    the [e/(e-1)] barrier of the no-repetition problem.

    The iteration count is bounded by [m * c_max / d_min]
    (each selection inflates some edge dual by at least
    [exp(eps B d_min / c_max)]; see the proof of Theorem 5.1), so the
    running time is polynomial in [m] and [c_max / d_min]. *)

type run = {
  solution : Ufp_instance.Solution.t;  (** may repeat request indices *)
  final_y : float array;
  certified_upper_bound : float;  (** Claim 5.2 certificate: min over iterations of [D(i)/alpha(i)], an upper bound on the with-repetitions OPT *)
  iterations : int;
}

val run :
  ?eps:float ->
  ?selector:Selector.kind ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  run
(** Same preconditions as {!Bounded_ufp.run}: normalised instance,
    [B >= 1], [eps] in (0, 1] (default [0.1]). [selector] picks the
    {!Selector} engine (default [`Incremental]; both engines make
    identical decisions); [pool] (default [`Seq]) fans stale-tree
    rebuilds out with bitwise-identical decisions. *)

val solve :
  ?eps:float ->
  ?selector:Selector.kind ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  Ufp_instance.Solution.t

val theorem_ratio : eps:float -> float
(** The Theorem 5.1 guarantee [(1 + 6 eps)] (Lemma 5.3). *)
