module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Delta_stepping = Ufp_graph.Delta_stepping
module Weight_snapshot = Ufp_graph.Weight_snapshot
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Pool = Ufp_par.Pool

type kind = [ `Naive | `Incremental ]

type sssp = [ `Dijkstra | `Delta ]

(* Cache-economics accounting (docs/OBSERVABILITY.md): the naive engine
   shows up as pure tree_rebuilds, the incremental one as a mix of
   cache_hits / stale_pops / rebuilds plus heap traffic — the two are
   directly comparable because the algorithm-level counters (owned by
   the callers) are identical across engines. *)
let m_rebuilds = Ufp_obs.Metrics.counter "selector.tree_rebuilds"

let m_par_rebuilds = Ufp_obs.Metrics.counter "selector.par_rebuilds"

let m_speculative_rebuilds =
  Ufp_obs.Metrics.counter "selector.speculative_rebuilds"

let m_wasted_rebuilds = Ufp_obs.Metrics.counter "selector.wasted_rebuilds"

let m_cache_hits = Ufp_obs.Metrics.counter "selector.cache_hits"

let m_cache_misses = Ufp_obs.Metrics.counter "selector.cache_misses"

let m_heap_pushes = Ufp_obs.Metrics.counter "selector.heap_pushes"

let m_heap_pops = Ufp_obs.Metrics.counter "selector.heap_pops"

let m_stale_pops = Ufp_obs.Metrics.counter "selector.stale_pops"

let m_scores = Ufp_obs.Metrics.counter "selector.scores"

type weights =
  | Uniform of (int -> float)
  | Per_demand of (demand:float -> int -> float)

type choice = { request : int; path : int list; alpha : float }

(* One shortest-path-tree cache group: the pending requests that share
   a source and (for demand-dependent weights) a demand, i.e. one
   Dijkstra serves the whole group. *)
type group = {
  src : int;
  weight : int -> float;
  mutable version : int;  (* bumped on every rebuild *)
  mutable fresh : bool;  (* dist/parent_edge reflect the current weights *)
  (* Rebuilt speculatively (a batch member other than the triggering
     group) and no heap entry carrying this version popped yet. *)
  mutable speculative : bool;
  dist : float array;
  parent_edge : int array;
  mutable members : int list;  (* pending request indices, increasing *)
  (* Per-group snapshot cache for Per_demand weights (each demand sees
     its own residual filtering). Valid while [snap_epoch] matches the
     selector's weight epoch. *)
  mutable snap : Weight_snapshot.t option;
  mutable snap_epoch : int;
}

type t = {
  graph : Graph.t;
  inst : Instance.t;
  kind : kind;
  pool : Pool.choice;
  sssp : sssp;
  (* Scratch for one incremental refresh: the stale groups rebuilt
     together (length = the batch width: the pool size when trees fan
     out across domains, 1 under `Seq or `Delta, whose pool works
     inside each tree) and the requests whose heap entries it popped
     (one under a width of 1, else at most one entry per request). *)
  batch : group array;
  popped : int array;
  (* Scratch for the delta-stepping kernel (allocated eagerly — it is
     a handful of length-n arrays — so the [`Delta] hot path never
     branches on an option). *)
  dws : Delta_stepping.workspace;
  uniform : bool;  (* all groups share one weight function *)
  groups : group array;  (* in order of first appearance by request *)
  group_of : group array;  (* request index -> its group *)
  pending : bool array;
  mutable n_pending : int;
  (* Weight epoch: bumped by every update_path announcement. A cached
     Weight_snapshot is valid exactly while its build epoch matches. *)
  mutable epoch : int;
  (* Shared snapshot cache for Uniform weights (one weight vector
     serves every group in an epoch). *)
  mutable uniform_snap : Weight_snapshot.t option;
  mutable uniform_snap_epoch : int;
  (* edge id -> groups whose cached tree used the edge, tagged with the
     group version at registration (stale tags are dropped lazily). *)
  deps : (group * int) list array;
  ws : Dijkstra.workspace;
  (* Candidate min-heap over (alpha, request, group version), ordered
     lexicographically by (Float.compare alpha, request index). Lazy
     deletion: entries for removed requests or outdated versions are
     discarded / re-scored at pop time. *)
  mutable hk : float array;
  mutable hr : int array;
  mutable hv : int array;
  mutable hsize : int;
}

(* --- candidate heap --- *)

let entry_less t i j =
  let c = Float.compare t.hk.(i) t.hk.(j) in
  c < 0 || (c = 0 && t.hr.(i) < t.hr.(j))

let entry_swap t i j =
  let k = t.hk.(i) and r = t.hr.(i) and v = t.hv.(i) in
  t.hk.(i) <- t.hk.(j);
  t.hr.(i) <- t.hr.(j);
  t.hv.(i) <- t.hv.(j);
  t.hk.(j) <- k;
  t.hr.(j) <- r;
  t.hv.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_less t i parent then begin
      entry_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.hsize && entry_less t l !smallest then smallest := l;
  if r < t.hsize && entry_less t r !smallest then smallest := r;
  if !smallest <> i then begin
    entry_swap t i !smallest;
    sift_down t !smallest
  end

let heap_push t key request version =
  Ufp_obs.Metrics.incr m_heap_pushes;
  if t.hsize = Array.length t.hk then begin
    let cap = max 16 (2 * t.hsize) in
    let hk' = Array.make cap 0.0
    and hr' = Array.make cap 0
    and hv' = Array.make cap 0 in
    Array.blit t.hk 0 hk' 0 t.hsize;
    Array.blit t.hr 0 hr' 0 t.hsize;
    Array.blit t.hv 0 hv' 0 t.hsize;
    t.hk <- hk';
    t.hr <- hr';
    t.hv <- hv'
  end;
  t.hk.(t.hsize) <- key;
  t.hr.(t.hsize) <- request;
  t.hv.(t.hsize) <- version;
  t.hsize <- t.hsize + 1;
  sift_up t (t.hsize - 1)

let heap_pop t =
  if t.hsize = 0 then None
  else begin
    Ufp_obs.Metrics.incr m_heap_pops;
    let k = t.hk.(0) and r = t.hr.(0) and v = t.hv.(0) in
    t.hsize <- t.hsize - 1;
    if t.hsize > 0 then begin
      t.hk.(0) <- t.hk.(t.hsize);
      t.hr.(0) <- t.hr.(t.hsize);
      t.hv.(0) <- t.hv.(t.hsize);
      sift_down t 0
    end;
    Some (k, r, v)
  end

(* --- construction --- *)

let create ?(kind = `Incremental) ?(pool = `Seq) ?(sssp = `Dijkstra) ~weights
    inst =
  let graph = Instance.graph inst in
  let n = Graph.n_vertices graph in
  let m = Graph.n_edges graph in
  let n_req = Instance.n_requests inst in
  let tbl : (int * float, group) Hashtbl.t = Hashtbl.create 16 in
  let rev_order = ref [] in
  for i = 0 to n_req - 1 do
    let r = Instance.request inst i in
    (* Demand only discriminates when the weight function reads it;
       demands are positive, so 0.0 is a safe uniform sentinel. *)
    let key =
      ( r.Request.src,
        match weights with
        | Uniform _ -> 0.0
        | Per_demand _ -> r.Request.demand )
    in
    match Hashtbl.find_opt tbl key with
    | Some grp -> grp.members <- i :: grp.members
    | None ->
      let weight =
        match weights with
        | Uniform w -> w
        | Per_demand w -> w ~demand:r.Request.demand
      in
      let grp =
        {
          src = r.Request.src;
          weight;
          version = 0;
          fresh = false;
          speculative = false;
          dist = Array.make n infinity;
          parent_edge = Array.make n (-1);
          members = [ i ];
          snap = None;
          snap_epoch = -1;
        }
      in
      Hashtbl.add tbl key grp;
      rev_order := grp :: !rev_order
  done;
  let groups = Array.of_list (List.rev !rev_order) in
  Array.iter (fun grp -> grp.members <- List.rev grp.members) groups;
  let group_of =
    if n_req = 0 then [||]
    else begin
      let arr = Array.make n_req groups.(0) in
      Array.iter
        (fun grp -> List.iter (fun i -> arr.(i) <- grp) grp.members)
        groups;
      arr
    end
  in
  (* Force the CSR build and the layout view on this domain now:
     pooled rebuilds (and delta-stepping phase workers) must only ever
     read the frozen view, and the graph.csr_builds /
     graph.packed_builds counts stay the same whether or not a pool is
     attached. *)
  ignore (Graph.csr_view graph);
  let width =
    match (pool, sssp) with
    | `Pool p, `Dijkstra -> Pool.size p
    | `Pool _, `Delta | `Seq, _ -> 1
  in
  let t =
    {
      graph;
      inst;
      kind;
      pool;
      sssp;
      batch = (if n_req = 0 then [||] else Array.make width groups.(0));
      popped = Array.make (if width = 1 then 1 else n_req) 0;
      dws = Delta_stepping.create_workspace graph;
      uniform = (match weights with Uniform _ -> true | Per_demand _ -> false);
      groups;
      group_of;
      pending = Array.make (max n_req 1) true;
      n_pending = n_req;
      epoch = 0;
      uniform_snap = None;
      uniform_snap_epoch = -1;
      deps = Array.make (max m 1) [];
      ws = Dijkstra.create_workspace graph;
      hk = Array.make (max 16 n_req) 0.0;
      hr = Array.make (max 16 n_req) 0;
      hv = Array.make (max 16 n_req) 0;
      hsize = 0;
    }
  in
  (* Seed the lazy heap: every request re-scores on its first pop
     (neg_infinity sorts before any real score; version -1 never
     matches, forcing the re-score). *)
  if kind = `Incremental then
    for i = 0 to n_req - 1 do
      heap_push t neg_infinity i (-1)
    done;
  t

let n_pending t = t.n_pending

let is_empty t = t.n_pending = 0

(* --- snapshot cache --- *)

(* The snapshot for [grp] in the current weight epoch. Uniform weights
   share one snapshot across all groups; Per_demand weights get one per
   group (slot writes are race-free under the pool: each group is
   rebuilt by exactly one task). *)
let snapshot_for t grp =
  if t.uniform then begin
    match t.uniform_snap with
    | Some s when t.uniform_snap_epoch = t.epoch -> s
    | _ ->
      let s = Weight_snapshot.build t.graph ~weight:grp.weight in
      t.uniform_snap <- Some s;
      t.uniform_snap_epoch <- t.epoch;
      s
  end
  else begin
    match grp.snap with
    | Some s when grp.snap_epoch = t.epoch -> s
    | _ ->
      let s = Weight_snapshot.build t.graph ~weight:grp.weight in
      grp.snap <- Some s;
      grp.snap_epoch <- t.epoch;
      s
  end

(* --- tree maintenance --- *)

(* A rebuild is split in two: [rebuild_tree] (the Dijkstra — pure
   w.r.t. shared state, safe to fan out across domains with a private
   workspace) and [commit_rebuild] (version bump + edge->dependents
   registration — always on the calling domain, in deterministic group
   order). *)
let rebuild_tree t grp ws =
  (* A profiler phase (docs/OBSERVABILITY.md): rebuilds dominate the
     selector's cost, and the span records on whichever domain runs
     the rebuild — the tracer is domain-safe. *)
  Ufp_obs.Trace.with_span "selector.rebuild" @@ fun () ->
  let snapshot = snapshot_for t grp in
  match t.sssp with
  | `Dijkstra ->
    Dijkstra.shortest_tree_snapshot_into ws t.graph ~snapshot ~src:grp.src
      ~dist:grp.dist ~parent_edge:grp.parent_edge
  | `Delta ->
    (* The delta kernel is byte-equivalent to Dijkstra (see
       Ufp_graph.Delta_stepping) and parallelises {e inside} the tree,
       so it gets the selector's pool directly — it always runs on the
       submitting domain (never from rebuild_parallel's closures,
       which would nest pool submissions). *)
    Delta_stepping.shortest_tree_snapshot_into ~pool:t.pool t.dws t.graph
      ~snapshot ~src:grp.src ~dist:grp.dist ~parent_edge:grp.parent_edge

let commit_rebuild t grp =
  Ufp_obs.Metrics.incr m_rebuilds;
  grp.version <- grp.version + 1;
  grp.fresh <- true;
  grp.speculative <- false;
  (* Index every tree edge so a dual update on it invalidates this
     tree. Only the incremental kind consults the index. *)
  if t.kind = `Incremental then
    Array.iter
      (fun e -> if e >= 0 then t.deps.(e) <- (grp, grp.version) :: t.deps.(e))
      grp.parent_edge

let rebuild t grp =
  rebuild_tree t grp t.ws;
  commit_rebuild t grp

(* Rebuild every group in [stale] on the pool, then commit on this
   domain in array order. The trees are bitwise identical to
   sequential rebuilds: each Dijkstra writes only its own group's
   arrays (plus its private workspace) from one snapshot built for
   this epoch, and Dijkstra itself is a pure function of (CSR,
   snapshot, src) — see docs/PARALLELISM.md. That purity obligation
   is also machine-checked: ufp-lint's whole-program phase (R7/R8)
   traces this closure's call graph for shared-state writes and
   domain-unsafe calls. *)
let rebuild_parallel t p stale =
  let n = Array.length stale in
  if n > 0 then begin
    if t.uniform then ignore (snapshot_for t stale.(0));
    (match t.sssp with
    | `Delta ->
      (* The delta kernel submits its own phase jobs to the pool, and
         nested submission is illegal (Ufp_par.Pool): groups rebuild
         sequentially here, each tree parallelised internally. *)
      Array.iter (fun grp -> rebuild_tree t grp t.ws) stale
    | `Dijkstra ->
      (* grain 1: stale-tree costs are skewed (hub sources carry far
         larger frontiers), so every tree should be stealable on its
         own rather than riding a range with a hub. *)
      Pool.parallel_for_dynamic ~pool:(`Pool p) ~grain:1 ~n (fun i ->
          let grp = stale.(i) in
          let ws = Dijkstra.create_workspace t.graph in
          rebuild_tree t grp ws));
    Array.iter
      (fun grp ->
        Ufp_obs.Metrics.incr m_par_rebuilds;
        commit_rebuild t grp)
      stale
  end

let update_path t path =
  t.epoch <- t.epoch + 1;
  List.iter
    (fun e ->
      match t.deps.(e) with
      | [] -> ()
      | l ->
        t.deps.(e) <- [];
        List.iter
          (fun (grp, ver) ->
            if ver = grp.version && grp.fresh then begin
              grp.fresh <- false;
              if grp.speculative then begin
                Ufp_obs.Metrics.incr m_wasted_rebuilds;
                grp.speculative <- false
              end
            end)
          l)
    path

let remove t i =
  if i < 0 || i >= Instance.n_requests t.inst then
    invalid_arg "Selector.remove: request index out of range";
  (* A second removal of the same request is a no-op: the pending count
     only moves on an actual state change. *)
  if t.pending.(i) then begin
    t.pending.(i) <- false;
    t.n_pending <- t.n_pending - 1;
    let grp = t.group_of.(i) in
    grp.members <- List.filter (fun j -> j <> i) grp.members
  end

(* --- scoring and selection --- *)

let score t grp i =
  Ufp_obs.Metrics.incr m_scores;
  let r = Instance.request t.inst i in
  let d = grp.dist.(r.Request.dst) in
  if Float.equal d infinity then infinity else Request.density r *. d

let path_for t grp i =
  let r = Instance.request t.inst i in
  Option.get
    (Dijkstra.path_of_tree t.graph
       { Dijkstra.dist = grp.dist; parent_edge = grp.parent_edge }
       ~src:grp.src ~dst:r.Request.dst)

(* Recompute every group with a pending member, scan every pending
   request — the reference implementation the incremental selector is
   proven (and property-tested) equivalent to. With a pool, the same
   set of rebuilds runs fanned out (scheduling changes, counts and
   trees do not). *)
let select_naive t =
  (match t.pool with
  | `Seq -> Array.iter (fun grp -> if grp.members <> [] then rebuild t grp) t.groups
  | `Pool p ->
    let live =
      Array.of_list
        (List.filter
           (fun grp -> grp.members <> [])
           (Array.to_list t.groups))
    in
    rebuild_parallel t p live);
  let best = ref None in
  Array.iter
    (fun grp ->
      if grp.members <> [] then
        List.iter
          (fun i ->
            let alpha = score t grp i in
            if alpha < infinity then begin
              let better =
                match !best with
                | None -> true
                | Some (a, j, _) ->
                  let c = Float.compare alpha a in
                  c < 0 || (c = 0 && i < j)
              in
              if better then best := Some (alpha, i, grp)
            end)
          grp.members)
    t.groups;
  match !best with
  | None -> None
  | Some (alpha, i, grp) -> Some { request = i; path = path_for t grp i; alpha }

(* Re-score a popped pending entry against its (fresh) group's tree
   and push it back. An unroutable request stays unroutable under
   nondecreasing weights: it leaves the heap entirely. *)
let rescore t grp i =
  let alpha = score t grp i in
  if alpha < infinity then heap_push t alpha i grp.version

(* A popped stale entry [i] found its group [grp] stale: rebuild it,
   plus up to [Array.length t.batch - 1] further stale groups the heap
   would reach next, then re-score every popped entry. The lookahead keeps
   popping while it meets stale entries, and stops at an empty heap, at
   a full batch, or at a top entry that is fresh and current (the next
   selection, left in place). Under a batch width of 1 nothing beyond
   [i] is popped and the single rebuild runs inline: this is exactly
   the sequential lazy loop.

   Speculation cannot move a selection: every rebuild of one [select]
   sees the same weight epoch, a tree is a pure function of those
   weights, and a re-scored key is the entry's current score — still a
   lower bound on every later one. (alpha, index) is a strict order on
   the heap's entries (one per request), so the pop sequence does not
   depend on the order entries are pushed back. *)
let refresh t grp i =
  let batch = t.batch and popped = t.popped in
  batch.(0) <- grp;
  popped.(0) <- i;
  let n_batch = ref 1 and n_popped = ref 1 and stop = ref false in
  while (not !stop) && !n_batch < Array.length batch && t.hsize > 0 do
    let j = t.hr.(0) in
    let g = t.group_of.(j) in
    if t.pending.(j) && g.fresh && t.hv.(0) = g.version then stop := true
    else begin
      ignore (heap_pop t);
      if t.pending.(j) then begin
        Ufp_obs.Metrics.incr m_stale_pops;
        if g.fresh then rescore t g j
        else begin
          let k = ref 0 in
          while !k < !n_batch && batch.(!k) != g do incr k done;
          if !k = !n_batch then begin
            batch.(!k) <- g;
            incr n_batch
          end;
          popped.(!n_popped) <- j;
          incr n_popped
        end
      end
    end
  done;
  (match t.pool with
  | `Pool p when !n_batch > 1 ->
    rebuild_parallel t p (Array.sub batch 0 !n_batch)
  | _ -> rebuild t grp);
  Ufp_obs.Metrics.incr m_cache_misses;
  for k = 1 to !n_batch - 1 do
    Ufp_obs.Metrics.incr m_cache_misses;
    Ufp_obs.Metrics.incr m_speculative_rebuilds;
    batch.(k).speculative <- true
  done;
  for k = 0 to !n_popped - 1 do
    let j = popped.(k) in
    rescore t t.group_of.(j) j
  done

let select_incremental t =
  let rec loop () =
    match heap_pop t with
    | None -> None
    | Some (a, i, ver) ->
      if not t.pending.(i) then loop ()
      else begin
        let grp = t.group_of.(i) in
        if grp.fresh && ver = grp.version then begin
          (* The popped entry's score is current. Weights only grow, so
             every other pending entry's key is a lower bound on its
             current score: this is the true (alpha, index) minimum.
             Re-push so the request stays a candidate (it is removed
             separately when selection consumes it). *)
          Ufp_obs.Metrics.incr m_cache_hits;
          grp.speculative <- false;
          heap_push t a i ver;
          Some { request = i; path = path_for t grp i; alpha = a }
        end
        else begin
          Ufp_obs.Metrics.incr m_stale_pops;
          if grp.fresh then rescore t grp i else refresh t grp i;
          loop ()
        end
      end
  in
  loop ()

let select t =
  match t.kind with
  | `Naive -> select_naive t
  | `Incremental -> select_incremental t
