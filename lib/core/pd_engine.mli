(** A configurable primal-dual iterative path minimizer — the design
    space that Algorithm 1, Algorithm 3 and the BKV-style threshold
    rule all live in.

    Each iteration selects the pending request minimising the
    normalised shortest-path length [(d_r/v_r) sum_{e in p} y_e] under
    the current duals, routes it, and inflates the duals along the
    path; the {!config} decides the inflation factor, the stopping
    rule, whether a selected request leaves the pool (no-repetitions)
    and whether paths are filtered by residual capacity.

    Purpose: (1) a differential-testing oracle — the test suite checks
    that instantiating the paper's parameters reproduces
    {!Bounded_ufp} and {!Bounded_ufp_repeat} decision-for-decision
    (those modules remain literal transcriptions of the paper's
    pseudo-code); (2) an API for exploring variants (the EXP-ABLATION
    experiments are points of this space). *)

type stop_rule =
  | Budget of float
      (** stop when [sum_e c_e y_e] exceeds the bound — Algorithm 1
          uses [exp(eps (B-1))] *)
  | Threshold of float
      (** stop when the minimum normalised length exceeds the bound —
          the acceptance-threshold (BKV-style) rule uses [1.0] *)

type config = {
  eps : float;  (** accuracy parameter, in (0, 1] *)
  inflation : b:float -> demand:float -> capacity:float -> float;
      (** multiplicative dual update for an edge on the selected path;
          Algorithm 1 uses [exp (eps * b * demand / capacity)] *)
  stop : stop_rule;
  remove_selected : bool;  (** [false] = the with-repetitions problem *)
  respect_residual : bool;
      (** filter candidate paths by residual capacity; Algorithm 1
          relies on the budget instead and sets this [false] *)
}

val algorithm_1 : eps:float -> b:float -> config
(** The exact parameters of [Bounded-UFP(eps)]. *)

val algorithm_3 : eps:float -> b:float -> config
(** The exact parameters of [Bounded-UFP-Repeat(eps)]. *)

val threshold_rule : eps:float -> b:float -> config
(** The BKV-style acceptance-threshold rule of
    {!Baselines.threshold_pd}. *)

type run = {
  solution : Ufp_instance.Solution.t;
  iterations : int;
  final_y : float array;
}

exception
  Iteration_limit of { iterations : int; d1 : float; stop : stop_rule }
(** Raised by {!execute} when the defensive iteration budget is
    exceeded (a non-terminating configuration, e.g. a repetitions run
    whose duals never reach the budget). Carries the iteration count,
    the dual mass [sum_e c_e y_e] reached, and the stop rule in force
    so the failure is diagnosable without a re-run. A printer is
    registered with [Printexc]. *)

val capacity_slack : float
(** The absolute slack used when comparing residual capacity against a
    demand ({!Ufp_prelude.Float_tol.capacity_slack}, shared with
    {!Audit} and {!Baselines}). *)

val execute :
  ?max_iterations:int ->
  ?selector:Selector.kind ->
  ?pool:Ufp_par.Pool.choice ->
  config ->
  Ufp_instance.Instance.t ->
  run
(** Run the engine. Requires a normalised instance with [B >= 1]
    (raises [Invalid_argument] otherwise). [max_iterations] (default
    [1_000_000]) guards non-terminating configurations; exceeding it
    raises {!Iteration_limit} with the loop state. Ties break towards
    the lowest request index, matching {!Bounded_ufp}.

    [selector] picks the {!Selector} engine (default [`Incremental];
    both engines make identical decisions); [pool] (default [`Seq])
    fans the selector's stale-tree rebuilds out across an
    {!Ufp_par.Pool} with bitwise-identical decisions. Residual
    bookkeeping is only maintained when [respect_residual] is set —
    Budget-mode runs carry no residual state at all.

    Work accounting: each run increments the [pd.*] metrics of
    {!Ufp_obs.Metrics} (iterations, per-edge dual updates, [D1]
    growth, a path-length histogram) and, when {!Ufp_obs.Trace} is
    enabled, emits a [pd.execute] span with one [pd.select] instant
    per iteration. The [pd.*] values are pure functions of the
    selection trace, hence identical across selector engines, pool
    modes, and repeated runs (see docs/OBSERVABILITY.md); residual
    rejections are counted per snapshot build under
    [selector.residual_rejections] — cache economics, not pd.*. *)
