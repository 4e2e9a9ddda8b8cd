(** Bucketed delta-stepping single-source shortest paths (Meyer &
    Sanders), a parallel alternative to {!Dijkstra}. The solvers do
    not use it (it never beat sequential Dijkstra end to end); it is
    kept for the per-layer benchmark replay, which times it against
    Dijkstra tree by tree.

    Tentative distances are kept in an array of buckets of width
    [delta]; each round settles the lowest nonempty bucket by repeated
    {e light}-edge relaxation phases (weight [<= delta]) followed by
    one {e heavy}-edge phase (weight [> delta]). Each phase fans its
    frontier out over {!Ufp_par.Pool.parallel_for_dynamic} in fixed
    contiguous chunks; chunk [j] writes relaxation requests only into
    its private buffer [j], and the buffers are merged sequentially in
    chunk order on the submitting domain. Since concatenating the
    chunk buffers in order reproduces the frontier's own iteration
    order for {e any} chunk count, the merged insertion sequence — and
    with it every bucket, counter, and the final tree — is identical
    across [`Seq], any pool size, and both CSR layouts.

    {b Determinism / Dijkstra equivalence.} Relaxation uses the same
    float [+.] as {!Dijkstra}, and the distance array converges to the
    least fixpoint of [d v = min over in-edges (u,v) of d u +. w] —
    a quantity independent of relaxation order, hence bit-identical
    to Dijkstra's distances. Parents are then resolved by a final
    sequential pass implementing Dijkstra's documented tie-break: the
    parent of [v] is its first achieving in-neighbour in settle order
    (lowest row slot among that neighbour's parallel edges). The pass
    replays the settle order over the known distances with a
    [(dist, id)] heap — zero-weight edges make equal-distance vertices
    settle in propagation order, so a static per-vertex minimum would
    not match. The returned [(dist, parent_edge)] pair is byte-identical to
    {!Dijkstra.shortest_tree_snapshot_into} on the same snapshot.
    [delta] (and the pool) affect only the relaxation schedule, never
    the result.

    {b Pool discipline.} The kernel submits phases to the pool itself,
    so callers must not invoke it from inside another pool job (nested
    submission raises — see {!Ufp_par.Pool}). *)

type workspace
(** Reusable scratch state (bucket slots, frontier sets, per-chunk
    relaxation buffers, parent-resolution scratch) for repeated
    single-source computations on one graph. Not thread-safe; thread
    it through a solver loop so repeated solves reuse the grown
    buffers. *)

val create_workspace : Graph.t -> workspace
(** Allocate scratch state sized for [g]. Tied to the vertex count of
    [g]; using it with a graph of a different size raises
    [Invalid_argument]. *)

val shortest_tree_snapshot_into :
  ?pool:Ufp_par.Pool.choice ->
  ?delta:float ->
  ?view:Graph.Csr.view ->
  workspace ->
  Graph.t ->
  snapshot:Weight_snapshot.t ->
  src:int ->
  dist:float array ->
  parent_edge:int array ->
  unit
(** [shortest_tree_snapshot_into ws g ~snapshot ~src ~dist
    ~parent_edge] overwrites [dist]/[parent_edge] (both length
    [n_vertices g]) with the tree byte-identical to
    {!Dijkstra.shortest_tree_snapshot_into} on the same [snapshot].

    [?pool] (default [`Seq]) executes the relaxation phases; [?view]
    overrides the graph's cached {!Graph.csr_view} layout (for
    layout-equivalence tests and packed-vs-wide benchmarks). [?delta]
    is a performance hint only: by default the bucket width is the
    smallest positive finite snapshot weight — no positive edge is
    then light ([w < delta]), so buckets settle in one heavy scan per
    vertex, Dial-style — and any value (supplied or tuned) is floored
    at [wmax / 4096] to bound the bucket window; it must be positive
    and finite. Edges of weight [infinity] never produce finite
    candidates and behave as absent, matching Dijkstra.

    Parents come from the deterministic candidate merge whenever every
    vertex's final distance has a unique achieving edge (the merge
    tracks exact ties); only graphs where some distance is achieved by
    two or more edges — equal-weight alternatives, zero-weight cycles,
    parallel edges — pay for the settle-order replay pass.

    Counters: [sssp.buckets] per settled bucket round,
    [sssp.phase_relaxations] per light/heavy edge examined in a phase.

    Raises [Invalid_argument] on a bad [src], mis-sized arrays, a
    snapshot or workspace or view built for another graph, or a
    non-positive/non-finite [delta]. *)

val shortest_tree_into :
  ?pool:Ufp_par.Pool.choice ->
  ?delta:float ->
  ?view:Graph.Csr.view ->
  workspace ->
  Graph.t ->
  weight:(int -> float) ->
  src:int ->
  dist:float array ->
  parent_edge:int array ->
  unit
(** Builds a fresh {!Weight_snapshot} from [weight] and runs
    {!shortest_tree_snapshot_into} (validation as in
    {!Dijkstra.shortest_tree_into}). *)
