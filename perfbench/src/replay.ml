(* Kernel replay: every shortest-path kernel the selector can use,
   rebuilt from every distinct request source at the final duals of a
   j1 solve. The wide-layout Dijkstra tree is the reference; every
   packed-layout and delta-stepping tree is compared with it vertex by
   vertex. *)

module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Delta = Ufp_graph.Delta_stepping
module Snapshot = Ufp_graph.Weight_snapshot
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Harness = Ufp_experiments.Harness

type result = {
  sources : int;
  snapshot_build_s : float list;  (** one entry per timed snapshot build *)
  dijkstra_s : float list;  (** per source: wide-layout Dijkstra tree *)
  packed_s : float list;  (** per source: packed-layout Dijkstra tree *)
  delta_j1_s : float list;  (** per source: delta-stepping at [`Seq] *)
  delta_j2_s : float list;  (** per source: delta-stepping on the pool *)
  relaxations : int;  (** [dijkstra.relaxations] of one wide run per source *)
  trees : int;  (** kernel trees compared with the reference *)
  bad_trees : int;  (** trees differing from the reference *)
  mismatches : int;  (** vertices differing from the reference, summed *)
}

let distinct_sources inst =
  Array.to_list (Instance.requests inst)
  |> List.map (fun r -> r.Request.src)
  |> List.sort_uniq Int.compare

(* Small graphs build a tree in microseconds; repeat each kernel so one
   timing covers about 10^5 edge slots. *)
let repeats g = max 1 (min 1000 (100_000 / max 1 (Graph.n_edges g)))

let run ~pool ~final_y inst =
  let g = Instance.graph inst in
  let n = Graph.n_vertices g in
  let weight e = final_y.(e) in
  let snapshot_build_s =
    List.init 5 (fun _ -> snd (Measure.time (fun () -> Snapshot.build g ~weight)))
  in
  let snapshot = Snapshot.build g ~weight in
  let csr = Graph.csr g in
  let wide = Graph.Csr.wide_view csr in
  let packed = Graph.Csr.packed_view (Graph.Csr.Packed.of_csr csr) in
  let dws = Dijkstra.create_workspace g in
  let delta_ws = Delta.create_workspace g in
  let reps = repeats g in
  let ref_dist = Array.make n infinity and ref_parent = Array.make n (-1) in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let timed kernel =
    snd
      (Measure.time (fun () ->
           for _ = 1 to reps do
             kernel ()
           done))
    /. float_of_int reps
  in
  let trees = ref 0 and bad_trees = ref 0 and mismatches = ref 0 in
  let compare () =
    incr trees;
    let bad = Check.tree_mismatches ~dist ~parent ~ref_dist ~ref_parent in
    if bad > 0 then incr bad_trees;
    mismatches := !mismatches + bad
  in
  let relaxed = ref 0 in
  let per_source =
    List.map
      (fun src ->
        let dij, deltas =
          Harness.counters_during (fun () ->
              timed (fun () ->
                  Dijkstra.shortest_tree_snapshot_into ~view:wide dws g ~snapshot
                    ~src ~dist:ref_dist ~parent_edge:ref_parent))
        in
        relaxed := !relaxed + (Harness.counter_delta deltas "dijkstra.relaxations" / reps);
        let pk =
          timed (fun () ->
              Dijkstra.shortest_tree_snapshot_into ~view:packed dws g ~snapshot
                ~src ~dist ~parent_edge:parent)
        in
        compare ();
        let d1 =
          timed (fun () ->
              Delta.shortest_tree_snapshot_into ~pool:`Seq delta_ws g ~snapshot
                ~src ~dist ~parent_edge:parent)
        in
        compare ();
        let d2 =
          timed (fun () ->
              Delta.shortest_tree_snapshot_into ~pool:(`Pool pool) delta_ws g
                ~snapshot ~src ~dist ~parent_edge:parent)
        in
        compare ();
        (dij, pk, d1, d2))
      (distinct_sources inst)
  in
  {
    sources = List.length per_source;
    snapshot_build_s;
    dijkstra_s = List.map (fun (x, _, _, _) -> x) per_source;
    packed_s = List.map (fun (_, x, _, _) -> x) per_source;
    delta_j1_s = List.map (fun (_, _, x, _) -> x) per_source;
    delta_j2_s = List.map (fun (_, _, _, x) -> x) per_source;
    relaxations = !relaxed;
    trees = !trees;
    bad_trees = !bad_trees;
    mismatches = !mismatches;
  }
