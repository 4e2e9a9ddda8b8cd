(** Algorithm 1 of the paper: [Bounded-UFP(eps)].

    A deterministic primal-dual algorithm for the B-bounded
    unsplittable flow problem. It maintains dual edge weights
    [y_e] (initially [1/c_e]); while requests remain and the dual
    budget [sum_e c_e y_e <= exp(eps (B - 1))] holds, it selects the
    pending request minimising the normalised shortest-path length
    [(d_r / v_r) * sum_{e in p_r} y_e], routes it on that path, and
    inflates the duals along the path by [exp(eps B d_r / c_e)].

    Guarantees (Theorem 3.1): for instances with
    [B >= ln m / eps^2], the output is feasible, the value is within
    [(1 + 6 eps) e/(e-1)] of optimal, and the allocation is monotone
    and exact in every request's (demand, value) — hence it induces a
    truthful mechanism (Theorem 2.3, implemented in [Ufp_mech]).

    Ties in the request selection are broken towards the smallest
    request index, which keeps the algorithm deterministic (any fixed
    rule preserves monotonicity for the {e strict} improvements of
    Definition 2.1). *)

type trace_entry = {
  iteration : int;  (** 1-based iteration number *)
  selected : int;  (** request chosen in this iteration *)
  path : int list;  (** path the request was routed on *)
  alpha : float;  (** normalised length [(d/v)|p|] at selection time — the paper's [alpha(i)] *)
  d1 : float;  (** [sum_e c_e y_e] after the dual update *)
  dual_bound : float;  (** the Claim 3.6 certificate [D1/alpha + D2] valid at selection time *)
}

type run = {
  solution : Ufp_instance.Solution.t;
  trace : trace_entry list;  (** in iteration order *)
  final_y : float array;  (** dual edge weights at termination *)
  final_z : float array;  (** [z_r = v_r] for selected requests, else 0 *)
  budget_exhausted : bool;  (** [true] when the loop stopped on the dual budget, [false] when every request was allocated *)
  certified_upper_bound : float;  (** an upper bound on OPT: min over iterations of [dual_bound], or the solution value when all requests were allocated *)
  iterations : int;
}

val budget : eps:float -> b:float -> float
(** The stopping threshold [exp(eps (B - 1))]. *)

val run :
  ?eps:float ->
  ?selector:Selector.kind ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  run
(** Execute the algorithm. [eps] defaults to [0.1] and must lie in
    (0, 1]. The instance must be normalised (all demands in (0, 1],
    see {!Ufp_instance.Instance.normalize}) and have [B = min_e c_e >= 1];
    raises [Invalid_argument] otherwise.

    [selector] picks the selection engine (default [`Incremental]);
    the two engines produce byte-identical traces (see {!Selector}),
    so the switch only affects running time. With [`Naive] the cost is
    [O(|R| * (|R| + sources * (m + n log n)))] — one Dijkstra per
    distinct pending source per iteration; with [`Incremental] only
    the trees invalidated by the previous dual update are recomputed,
    and only when a stale candidate surfaces at the heap top.

    [pool] (default [`Seq]) fans the selector's stale-tree rebuilds
    out across an {!Ufp_par.Pool}; decisions are bitwise identical
    either way (see {!Selector}). *)

val solve :
  ?eps:float ->
  ?selector:Selector.kind ->
  ?pool:Ufp_par.Pool.choice ->
  Ufp_instance.Instance.t ->
  Ufp_instance.Solution.t
(** Just the allocation of {!run}. *)

val theorem_ratio : eps:float -> float
(** The Theorem 3.1 guarantee for accuracy [eps] as used by [run]
    directly: [(1 + 6 eps) * e / (e - 1)] (Lemma 3.8). *)
