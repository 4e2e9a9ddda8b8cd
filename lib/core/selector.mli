(** The request-selection engine shared by every primal-dual loop.

    Each iteration of Algorithm 1, Algorithm 3, the BKV-style threshold
    rule and the {!Pd_engine} design space performs the same step:
    among the pending requests, find the one minimising the normalised
    shortest-path length [alpha(r) = (d_r / v_r) sum_{e in p} w_e]
    under the current edge weights, ties towards the lowest request
    index. Recomputing one Dijkstra per pending source on every
    iteration makes a solve
    [O(iterations x sources x (m + n log n))] even though a dual update
    only inflates the few edges of the selected path. This module
    offers that selection step behind a common interface with two
    implementations:

    - [`Naive] — the literal recompute-everything reference.
    - [`Incremental] — cached shortest-path trees with
      edge -> dependent-group invalidation, plus a lazy-deletion
      candidate heap.

    {b Contract: weights must be nondecreasing over time} (duals only
    inflate, residuals only shrink — true for every rule in this
    repository). Under that contract the two implementations produce
    {e byte-identical} selection sequences; the argument:

    + {!Ufp_graph.Dijkstra} settles vertices in [(dist, vertex id)]
      order, so a tree is a pure function of the weight vector, and a
      tree none of whose {e own} edges changed is still exactly the
      tree a fresh run would return (non-tree weights can only grow,
      which cannot create shorter or tie-winning paths).
      Invalidating the groups whose cached tree uses an updated edge —
      the edge->dependents index — is therefore lossless.
    + Heap keys are scores computed at earlier (hence pointwise lower)
      weights, so a popped entry whose score is current is the true
      minimum; a popped stale entry is re-scored against a fresh tree
      and re-pushed, never skipped.
    + Both orders break ties by [(Float.compare alpha, request index)],
      so equal-alpha candidates resolve identically.

    The equivalence is enforced by a QCheck law in [test/test_laws.ml]
    (identical (request, path, alpha) traces on random instances), so
    the Theorem 3.1 approximation and the Lemma 3.4 monotonicity /
    truthfulness guarantees — which are statements about the selection
    order — carry over to the incremental engine unchanged.

    {b Weight snapshots.} Tree (re)computations run over the
    {!Ufp_graph.Graph.csr} view with a {!Ufp_graph.Weight_snapshot}
    materialised once per {e weight epoch} (an epoch ends at each
    {!update_path} announcement): Uniform weights share one snapshot
    across all groups, Per_demand weights cache one per group. The
    snapshot is invalidated by the same announcement that invalidates
    the trees, so stale weights can never leak into a rebuild.

    {b Parallel rebuilds.} With [?pool:(`Pool p)], the candidate heap
    drives batches of tree rebuilds. When [`Incremental] selection
    pops a stale entry whose group's tree is stale, it keeps popping
    stale entries until it holds up to [Pool.size p] distinct stale
    groups (stopping early at an empty heap or at a top entry that is
    fresh and current), rebuilds them together on the {!Ufp_par.Pool}
    (each task with a private Dijkstra workspace; version bumps and
    edge->dependents registration stay on the calling domain, in pop
    order), re-scores every popped entry and pushes it back. Under
    [`Seq] the batch is the one group the pop needs, rebuilt inline:
    the lazy sequential loop. Every rebuild of one {!select} sees the
    same weight epoch and Dijkstra is a pure function of (CSR view,
    snapshot, source), so each re-scored key is the entry's current
    score — still a lower bound on its later ones — and the selection
    trace is the sequential one; the QCheck laws check every kind x
    pool combination on pools of 2 and 3 domains. For [`Naive] the
    pooled run performs {e exactly} the rebuilds the sequential run
    would. For [`Incremental], [selector.tree_rebuilds] may exceed
    the [`Seq] count: [selector.speculative_rebuilds] counts batch
    members beyond the group the triggering pop needed, and
    [selector.wasted_rebuilds] the speculative trees a dual update
    invalidated before any selection used them. Batched rebuilds are
    counted by [selector.par_rebuilds]. With [`Delta] the pool works
    inside each tree instead, and batches hold one group. *)

type kind = [ `Naive | `Incremental ]

type sssp = [ `Dijkstra | `Delta ]
(** Which shortest-path-tree kernel rebuilds use: the sequential
    binary-heap {!Ufp_graph.Dijkstra} (default) or the bucketed
    {!Ufp_graph.Delta_stepping}, which parallelises {e inside} each
    tree. The two return byte-identical trees (a QCheck law), so the
    selection trace — and everything the truthfulness argument rests
    on — is independent of the choice. With [`Delta] and a pool,
    groups rebuild sequentially and the pool accelerates each kernel's
    relaxation phases instead (nested pool submission is illegal);
    with [`Dijkstra] the pool fans distinct groups out as before. *)

type weights =
  | Uniform of (int -> float)
      (** request-independent weights (Algorithm 1 / 3: [fun e -> y.(e)]);
          one cached tree per distinct source *)
  | Per_demand of (demand:float -> int -> float)
      (** weights that read the request's demand (residual-capacity
          filtering); one cached tree per distinct (source, demand) *)

type choice = {
  request : int;  (** the selected request index *)
  path : int list;  (** its minimum-weight path, as edge ids *)
  alpha : float;  (** its normalised length [(d/v) |p|_w] *)
}

type t

val create :
  ?kind:kind ->
  ?pool:Ufp_par.Pool.choice ->
  ?sssp:sssp ->
  weights:weights ->
  Ufp_instance.Instance.t ->
  t
(** A selector over all requests of the instance, all initially
    pending. [kind] defaults to [`Incremental]; [pool] (default
    [`Seq]) batches stale-tree rebuilds across domains, with
    bitwise-identical trees (see the module preamble); [sssp]
    (default [`Dijkstra]) picks the tree kernel. The weight
    functions are read lazily at (re)computation time — materialised
    into a {!Ufp_graph.Weight_snapshot} once per weight epoch — so
    passing closures over the solver's mutable dual array is the
    intended usage; but every weight change must be announced through
    {!update_path}. Weight functions must be safe to call from worker
    domains when a pool is attached (the repo's closures only read
    solver arrays that are quiescent during selection). *)

val select : t -> choice option
(** The pending request minimising [(alpha, index)] lexicographically
    (NaN-safe via [Float.compare]; NaN weights themselves are rejected
    by Dijkstra), or [None] when no pending request is routable.
    Does not remove the winner: call {!remove} to consume it. *)

val update_path : t -> int list -> unit
(** [update_path t p] announces that the weights of the edges of [p]
    changed (grew). Invalidates exactly the cached trees that used one
    of those edges, and ends the current weight epoch (all cached
    weight snapshots). Must be called after every dual/residual update
    and before the next {!select}. *)

val remove : t -> int -> unit
(** Remove a request from the pending pool. Removing an
    already-removed request is a no-op — the pending count only
    decrements on an actual removal. Raises [Invalid_argument] on an
    out-of-range index. *)

val n_pending : t -> int
(** Number of requests still pending. *)

val is_empty : t -> bool
(** [n_pending t = 0]. *)
