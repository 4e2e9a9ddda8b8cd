module Pool = Ufp_par.Pool

(* Work accounting (docs/OBSERVABILITY.md): bucket rounds and the
   edges examined by the parallel relaxation phases.  Increments from
   inside phase closures land on the running domain's metrics shard,
   like dijkstra.relaxations under pooled rebuilds. *)
let m_buckets = Ufp_obs.Metrics.counter "sssp.buckets"

let m_phase_relaxations = Ufp_obs.Metrics.counter "sssp.phase_relaxations"

(* How far delta may be pushed below the largest finite weight: caps
   the cyclic bucket window (hence the kernel's memory) at
   [max_window + 3] slots and keeps every bucket index within native
   int range whatever the weight spread. *)
let max_window = 4096

(* Smallest frontier chunk worth a pool submission: below ~512
   vertices the wake/steal/quiesce cost of a job exceeds the phase
   itself, so small buckets relax inline on the calling domain.  The
   chunk count never changes the result — the merge drains chunk
   buffers in frontier order for any split. *)
let min_chunk = 512

(* A tiny growable int vector — bucket slots and frontier sets. *)
type vec = { mutable data : int array; mutable len : int }

let vec_make () = { data = [||]; len = 0 }

let vec_clear v = v.len <- 0

let vec_push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let data' = Array.make (max 16 (2 * cap)) 0 in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* Per-chunk relaxation request buffers: parallel int/float/int
   arrays carrying (head vertex, candidate distance, edge id).  Chunk
   [j] of a phase writes only [buf j], so phases share nothing
   mutable; the sequential merge drains them in chunk order, which
   reproduces the frontier's own iteration order whatever the chunk
   count or scheduling. *)
type buf = {
  mutable bv : int array;
  mutable bd : float array;
  mutable be : int array;
  mutable blen : int;
}

let buf_make () = { bv = [||]; bd = [||]; be = [||]; blen = 0 }

let buf_push b v d e =
  let cap = Array.length b.bv in
  if b.blen = cap then begin
    let cap' = max 64 (2 * cap) in
    let bv' = Array.make cap' 0
    and bd' = Array.make cap' 0.0
    and be' = Array.make cap' 0 in
    Array.blit b.bv 0 bv' 0 b.blen;
    Array.blit b.bd 0 bd' 0 b.blen;
    Array.blit b.be 0 be' 0 b.blen;
    b.bv <- bv';
    b.bd <- bd';
    b.be <- be'
  end;
  Array.unsafe_set b.bv b.blen v;
  Array.unsafe_set b.bd b.blen d;
  Array.unsafe_set b.be b.blen e;
  b.blen <- b.blen + 1

type workspace = {
  dn : int;
  (* Cyclic bucket array (lazy deletion: an entry is live iff it is
     its vertex's latest insert, i.e. [bkt.(v)] names the bucket being
     taken). *)
  mutable slots : vec array;
  (* Global bucket index of each vertex's latest insert, -1 when it
     has none outstanding (never inserted, or already taken).  Sized
     on first use, like [slots], so an idle workspace stays small. *)
  mutable bkt : int array;
  (* The bucket being settled: its accumulated vertex set [r] (heavy
     phase input, deduplicated through [in_r]) and the current light
     frontier [s]. *)
  r : vec;
  s : vec;
  in_r : bool array;
  (* Deterministic parent resolution scratch: settled/present marks
     and the (dist, vertex) replay heap. *)
  present : bool array;
  mutable hk : float array;
  mutable hv : int array;
  mutable hsize : int;
  mutable bufs : buf array;
}

let create_workspace g =
  let n = Graph.n_vertices g in
  {
    dn = n;
    slots = [||];
    bkt = [||];
    r = vec_make ();
    s = vec_make ();
    in_r = Array.make (max n 1) false;
    present = Array.make (max n 1) false;
    hk = Array.make 16 0.0;
    hv = Array.make 16 0;
    hsize = 0;
    bufs = [||];
  }

(* A minimal (key, vertex)-lexicographic binary heap for the parent
   replay — same order as Dijkstra's workspace heap. *)
let heap_less ws i j =
  let c = Float.compare ws.hk.(i) ws.hk.(j) in
  c < 0 || (c = 0 && ws.hv.(i) < ws.hv.(j))

let heap_swap ws i j =
  let k = ws.hk.(i) and v = ws.hv.(i) in
  ws.hk.(i) <- ws.hk.(j);
  ws.hv.(i) <- ws.hv.(j);
  ws.hk.(j) <- k;
  ws.hv.(j) <- v

let rec sift_up ws i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less ws i parent then begin
      heap_swap ws i parent;
      sift_up ws parent
    end
  end

let rec sift_down ws i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < ws.hsize && heap_less ws l !smallest then smallest := l;
  if r < ws.hsize && heap_less ws r !smallest then smallest := r;
  if !smallest <> i then begin
    heap_swap ws i !smallest;
    sift_down ws !smallest
  end

let heap_push ws key v =
  if ws.hsize = Array.length ws.hk then begin
    let cap = 2 * ws.hsize in
    let hk' = Array.make cap 0.0 and hv' = Array.make cap 0 in
    Array.blit ws.hk 0 hk' 0 ws.hsize;
    Array.blit ws.hv 0 hv' 0 ws.hsize;
    ws.hk <- hk';
    ws.hv <- hv'
  end;
  ws.hk.(ws.hsize) <- key;
  ws.hv.(ws.hsize) <- v;
  ws.hsize <- ws.hsize + 1;
  sift_up ws (ws.hsize - 1)

let heap_pop ws =
  let k = ws.hk.(0) and v = ws.hv.(0) in
  ws.hsize <- ws.hsize - 1;
  if ws.hsize > 0 then begin
    ws.hk.(0) <- ws.hk.(ws.hsize);
    ws.hv.(0) <- ws.hv.(ws.hsize);
    sift_down ws 0
  end;
  (k, v)

let ensure_slots ws w =
  if Array.length ws.slots < w then
    ws.slots <- Array.init w (fun _ -> vec_make ())
  else Array.iter vec_clear ws.slots

let ensure_bufs ws k =
  if Array.length ws.bufs < k then
    ws.bufs <- Array.init k (fun i ->
        if i < Array.length ws.bufs then ws.bufs.(i) else buf_make ())

(* Auto-tuned delta (the .mli contract): the smallest positive finite
   snapshot weight, floored at [wmax / max_window] so the bucket
   window stays bounded.  At that width no positive edge is light
   ([w < delta]), so buckets settle in a single heavy scan per vertex
   — Dial-style — which measures faster than wider mean-anchored
   buckets on every RMAT configuration we bench: re-relaxation of
   light edges costs more than the extra (cheap) bucket rounds save.
   Returns [(delta, wmax)]; degenerate snapshots (no finite positive
   mass) get delta 1.0 — the tree does not depend on delta, only the
   bucket schedule does. *)
let tune_delta snapshot ~delta =
  let m = Weight_snapshot.length snapshot in
  let wmin_pos = ref infinity and wmax = ref 0.0 in
  for e = 0 to m - 1 do
    let w = Weight_snapshot.unsafe_get snapshot e in
    if Float.is_finite w then begin
      if w > 0.0 && w < !wmin_pos then wmin_pos := w;
      if w > !wmax then wmax := w
    end
  done;
  let wmax = !wmax in
  let base =
    match delta with
    | Some d ->
      if not (Float.is_finite d && d > 0.0) then
        invalid_arg "Delta_stepping: delta must be positive and finite";
      d
    | None -> if Float.is_finite !wmin_pos then !wmin_pos else 1.0
  in
  (Float.max base (wmax /. float_of_int max_window), wmax)

let shortest_tree_snapshot_into ?(pool = `Seq) ?delta ?view ws g ~snapshot ~src
    ~dist ~parent_edge =
  let n = Graph.n_vertices g in
  if ws.dn <> n then
    invalid_arg "Delta_stepping.shortest_tree_into: workspace built for another graph";
  if src < 0 || src >= n then
    invalid_arg "Delta_stepping.shortest_tree_into: bad source";
  if Array.length dist <> n || Array.length parent_edge <> n then
    invalid_arg
      "Delta_stepping.shortest_tree_into: output arrays must have length n";
  if Weight_snapshot.length snapshot <> Graph.n_edges g then
    invalid_arg "Delta_stepping.shortest_tree_into: snapshot built for another graph";
  let view = match view with Some v -> v | None -> Graph.csr_view g in
  if Array.length view.Graph.Csr.view_rows <> n + 1 then
    invalid_arg "Delta_stepping.shortest_tree_into: view built for another graph";
  let row_start = view.Graph.Csr.view_rows
  and cells = view.Graph.Csr.view_cells in
  Array.fill dist 0 n infinity;
  Array.fill parent_edge 0 n (-1);
  let delta, wmax = tune_delta snapshot ~delta in
  (* Cyclic window: relaxations from bucket [cur] land at global
     indices <= cur + 1 + ceil(wmax/delta) <= cur + w - 2, so every
     in-flight global index maps to a distinct slot. *)
  let w_slots =
    (if Float.is_finite (wmax /. delta) then
       int_of_float (Float.ceil (wmax /. delta))
     else 0)
    + 3
  in
  ensure_slots ws w_slots;
  (* Under the default (min-positive-weight) delta no edge is light,
     so the inner light loop would scan every frontier edge just to
     filter it out again; one pass over the snapshot lets those
     buckets go straight to the heavy phase. *)
  let any_light =
    let m = Weight_snapshot.length snapshot in
    let found = ref false in
    let e = ref 0 in
    while (not !found) && !e < m do
      let w = Weight_snapshot.unsafe_get snapshot !e in
      if Float.is_finite w && w < delta then found := true;
      incr e
    done;
    !found
  in
  let slots = ws.slots in
  if Array.length ws.bkt < n then ws.bkt <- Array.make n (-1)
  else Array.fill ws.bkt 0 n (-1);
  let bkt = ws.bkt in
  let queued = ref 0 in
  (* Lowest bucket an insert may target: the bucket being drained
     during its light loop, the next one during its heavy phase.  A
     candidate whose [d /. delta] rounds below the floor (a heavy
     relaxation landing in the bucket just drained, or a light one off
     a vertex that was itself clamped upward) is clamped to the floor
     rather than queued in a slot that is never taken again. *)
  let min_bucket = ref 0 in
  let bucket_insert v d =
    let idx = Int.max !min_bucket (int_of_float (d /. delta)) in
    Array.unsafe_set bkt v idx;
    vec_push slots.(idx mod w_slots) v;
    incr queued
  in
  (* Candidate merge: the only writer of [dist] — phases read it,
     propose improvements into private buffers, and this drains them
     on the calling domain between phases.  Min-merge: order cannot
     change the fixpoint, and the drain order is deterministic
     anyway.

     The merge also resolves parents for the common case.  A strict
     improvement records its edge; a candidate {e equal} to the
     current tentative distance marks the vertex tied (reset if a
     later strict improvement invalidates that value).  Since no edge
     is ever relaxed twice at the same tail distance (a light re-scan
     needs a strict in-bucket improvement first, heavy edges fire once
     per bucket), a vertex whose tie mark is clear at the end has a
     unique achieving edge — and the unique achiever is Dijkstra's
     parent whatever the settle order.  Only marked vertices need the
     settle-order replay below, and only if any exist. *)
  let tied = ws.present in
  let tie_count = ref 0 in
  let merge k_chunks =
    for j = 0 to k_chunks - 1 do
      let b = ws.bufs.(j) in
      for i = 0 to b.blen - 1 do
        let v = Array.unsafe_get b.bv i in
        let cand = Array.unsafe_get b.bd i in
        let d = Array.unsafe_get dist v in
        if cand < d then begin
          Array.unsafe_set dist v cand;
          Array.unsafe_set parent_edge v (Array.unsafe_get b.be i);
          if Array.unsafe_get tied v then begin
            Array.unsafe_set tied v false;
            decr tie_count
          end;
          bucket_insert v cand
        end
        else begin
          let c = Float.compare cand d in
          if c = 0 && not (Array.unsafe_get tied v) then begin
            Array.unsafe_set tied v true;
            incr tie_count
          end
        end
      done;
      b.blen <- 0
    done
  in
  let pool_width = match pool with `Seq -> 1 | `Pool p -> Pool.size p in
  (* One parallel relaxation phase over [frontier]: the frontier is cut
     into [k] fixed contiguous chunks (at most 4 per executor), chunk
     [j] scanning its vertices' light or heavy edges into private
     buffer [j].  Closures read [dist]/[row_start]/[cells]/[snapshot]
     and write only their own chunk's buffer plus sharded Ufp_obs
     counters — the R7/R8 whole-program lint phase audits exactly
     this obligation at the call site below. *)
  let relax_phase frontier ~light =
    let fn = frontier.len in
    if fn > 0 then begin
      let k_chunks =
        min
          (max 1 (4 * pool_width))
          (max 1 ((fn + min_chunk - 1) / min_chunk))
      in
      ensure_bufs ws k_chunks;
      let per = (fn + k_chunks - 1) / k_chunks in
      let front = frontier.data in
      let bufs = ws.bufs in
      let chunk j =
        let b = bufs.(j) in
        let lo = j * per in
        let hi = min fn (lo + per) in
        for idx = lo to hi - 1 do
          let u = Array.unsafe_get front idx in
          let du = Array.unsafe_get dist u in
          let row_hi = Array.unsafe_get row_start (u + 1) in
          for k = Array.unsafe_get row_start u to row_hi - 1 do
            let e = Graph.Csr.Cells.unsafe_snd cells k in
            let w = Weight_snapshot.unsafe_get snapshot e in
            if (if light then w < delta else w >= delta) then begin
              Ufp_obs.Metrics.incr m_phase_relaxations;
              let v = Graph.Csr.Cells.unsafe_fst cells k in
              let cand = du +. w in
              (* Pure pruning read of [dist]: no phase writes it, so
                 the read is race-free; the merge re-checks.  Equal
                 candidates pass through — the merge needs to see
                 them to keep its tie marks exact. *)
              if cand <= Array.unsafe_get dist v && cand < infinity then
                buf_push b v cand e
            end
          done
        done
      in
      if k_chunks = 1 then chunk 0
      else Pool.parallel_for_dynamic ~pool ~grain:1 ~n:k_chunks chunk;
      merge k_chunks
    end
  in
  dist.(src) <- 0.0;
  bucket_insert src 0.0;
  let cur = ref 0 in
  while !queued > 0 do
    (* Find the next nonempty slot; all live entries sit within the
       window [cur, cur + w_slots). *)
    let k = ref 0 in
    while slots.((!cur + !k) mod w_slots).len = 0 do incr k done;
    cur := !cur + !k;
    let slot = slots.(!cur mod w_slots) in
    Ufp_obs.Metrics.incr m_buckets;
    vec_clear ws.r;
    (* Inner light-edge loop: re-take the slot until it stops refilling
       (zero- and small-weight edges can re-insert into the current
       bucket). *)
    min_bucket := !cur;
    let continue_inner = ref true in
    while !continue_inner do
      vec_clear ws.s;
      queued := !queued - slot.len;
      for i = 0 to slot.len - 1 do
        let v = Array.unsafe_get slot.data i in
        (* Live entries only: a vertex re-bucketed since this entry was
           queued (or already taken from this bucket) is dropped here.
           Liveness reads the recorded bucket index, never the
           distance: recomputing a bucket from [d] can disagree with
           the insert's rounding at d = fl(k * delta). *)
        if Int.equal (Array.unsafe_get bkt v) !cur then begin
          Array.unsafe_set bkt v (-1);
          vec_push ws.s v;
          if not ws.in_r.(v) then begin
            ws.in_r.(v) <- true;
            vec_push ws.r v
          end
        end
      done;
      vec_clear slot;
      if ws.s.len = 0 || not any_light then continue_inner := false
      else relax_phase ws.s ~light:true
    done;
    min_bucket := !cur + 1;
    relax_phase ws.r ~light:false;
    for i = 0 to ws.r.len - 1 do
      ws.in_r.(ws.r.data.(i)) <- false
    done;
    cur := !cur + 1
  done;
  (* Deterministic parent resolution for the tied vertices (if the
     merge left none, its per-improvement parents already match).
     Distances are the exact least fixpoint (identical to Dijkstra's),
     and Dijkstra's parent of [v] is the edge whose relaxation first
     set [dist v] to its final value — i.e. the first in-neighbour
     {e in settle order} achieving it, lowest row slot among that
     neighbour's parallel edges.  Settle order is not simply
     (dist, id): with zero-weight edges a vertex's final heap entry
     only exists once its first achiever has settled, so
     equal-distance vertices settle in propagation order.  We replay
     that order over the known distances: a (dist, id) heap into which
     each vertex is pushed exactly once, when its first achieving
     in-neighbour is popped — that neighbour is the parent. *)
  if !tie_count > 0 then begin
    let present = ws.present in
    Array.fill present 0 n false;
    ws.hsize <- 0;
    present.(src) <- true;
    heap_push ws 0.0 src;
    while ws.hsize > 0 do
      let du, u = heap_pop ws in
      let row_hi = Array.unsafe_get row_start (u + 1) in
      for k = Array.unsafe_get row_start u to row_hi - 1 do
        let v = Graph.Csr.Cells.unsafe_fst cells k in
        if not (Array.unsafe_get present v) then begin
          let e = Graph.Csr.Cells.unsafe_snd cells k in
          let w = Weight_snapshot.unsafe_get snapshot e in
          let cand = du +. w in
          let c = Float.compare cand (Array.unsafe_get dist v) in
          if Float.is_finite cand && c = 0 then begin
            Array.unsafe_set present v true;
            Array.unsafe_set parent_edge v e;
            heap_push ws (Array.unsafe_get dist v) v
          end
        end
      done
    done;
    Array.fill present 0 n false
  end

let shortest_tree_into ?pool ?delta ?view ws g ~weight ~src ~dist ~parent_edge =
  let snapshot = Weight_snapshot.build g ~weight in
  shortest_tree_snapshot_into ?pool ?delta ?view ws g ~snapshot ~src ~dist
    ~parent_edge
