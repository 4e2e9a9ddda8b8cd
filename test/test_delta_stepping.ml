(* Delta-stepping kernel suite: the delta ≡ dijkstra byte-equality law
   across jobs counts and CSR layouts, on random and on adversarial
   weights (exact multiples of delta, ties, zeros, 1e-9..1e9 spreads);
   path-validity properties that need no reference kernel; the packed
   builder's 31-bit guard; and the bucket schedule's edge cases
   (zero-weight light edges, all-heavy graphs, unreachable vertices,
   distances that land exactly on a bucket boundary). *)

module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Delta = Ufp_graph.Delta_stepping
module Weight_snapshot = Ufp_graph.Weight_snapshot
module Gen = Ufp_graph.Generators
module Rng = Ufp_prelude.Rng
module Pool = Ufp_par.Pool

let trees_equal (d1, p1) (d2, p2) =
  (* Byte equality: distances must agree bit for bit (Float.compare
     treats equal floats as equal without tolerating ulps), parents
     exactly. *)
  Array.length d1 = Array.length d2
  && Array.length p1 = Array.length p2
  && (let ok = ref true in
      Array.iteri (fun i x -> if Float.compare x d2.(i) <> 0 then ok := false) d1;
      !ok)
  && p1 = p2

let dijkstra_tree g snapshot ~src ~view =
  let n = Graph.n_vertices g in
  let ws = Dijkstra.create_workspace g in
  let dist = Array.make n nan and parent_edge = Array.make n min_int in
  Dijkstra.shortest_tree_snapshot_into ?view ws g ~snapshot ~src ~dist
    ~parent_edge;
  (dist, parent_edge)

let delta_tree ?pool ?delta g snapshot ~src ~view =
  let n = Graph.n_vertices g in
  let ws = Delta.create_workspace g in
  let dist = Array.make n nan and parent_edge = Array.make n min_int in
  Delta.shortest_tree_snapshot_into ?pool ?delta ?view ws g ~snapshot ~src
    ~dist ~parent_edge;
  (dist, parent_edge)

(* Both layouts for one graph, so the law runs the kernels over packed
   and wide cells regardless of which one csr_view cached. *)
let both_views g =
  let c = Graph.csr g in
  let wide = Graph.Csr.wide_view c in
  let packed = Graph.Csr.packed_view (Graph.Csr.Packed.of_csr c) in
  [ ("wide", wide); ("packed", packed) ]

let random_instance seed =
  let rng = Rng.create seed in
  let directed = seed mod 2 = 0 in
  let n = 8 + (seed mod 17) in
  let g =
    Gen.erdos_renyi rng ~n ~edge_prob:0.25 ~directed ~capacity_lo:1.0
      ~capacity_hi:5.0
  in
  let m = Graph.n_edges g in
  let w =
    Array.init (max 1 m) (fun _ ->
        (* A weight mix that stresses the bucket schedule: zeros
           (light-phase re-insertion), duplicates (float ties for the
           parent tie-break), a heavy tail, and the odd infinity
           (absent edge). *)
        match Rng.int rng 10 with
        | 0 -> 0.0
        | 1 | 2 -> 1.0
        | 3 -> infinity
        | 4 -> Rng.float_in rng 50.0 100.0
        | _ -> Rng.float_in rng 0.1 3.0)
  in
  (g, w)

let qcheck_delta_equals_dijkstra =
  QCheck.Test.make
    ~name:"delta-stepping tree is byte-identical to dijkstra (jobs x layout)"
    ~count:60
    QCheck.(pair small_int (int_bound 7))
    (fun (seed, src0) ->
      let g, w = random_instance seed in
      if Graph.n_edges g = 0 then true
      else begin
        let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
        let src = src0 mod Graph.n_vertices g in
        let ok = ref true in
        List.iter
          (fun (_, view) ->
            let reference = dijkstra_tree g snapshot ~src ~view:(Some view) in
            List.iter
              (fun jobs ->
                let got =
                  Pool.with_jobs jobs (fun pool ->
                      delta_tree ~pool g snapshot ~src ~view:(Some view))
                in
                if not (trees_equal reference got) then ok := false)
              [ 1; 2; 3 ])
          (both_views g);
        !ok
      end)

let qcheck_explicit_delta_is_only_a_hint =
  QCheck.Test.make
    ~name:"explicit delta never changes the tree" ~count:40 QCheck.small_int
    (fun seed ->
      let g, w = random_instance seed in
      if Graph.n_edges g = 0 then true
      else begin
        let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
        let reference = dijkstra_tree g snapshot ~src:0 ~view:None in
        List.for_all
          (fun d ->
            trees_equal reference
              (delta_tree ~delta:d g snapshot ~src:0 ~view:None))
          [ 0.05; 0.5; 2.0; 1000.0 ]
      end)

(* --- adversarial weights --- *)

(* Weight families chosen to break a bucketed kernel rather than to
   look random: uniform draws essentially never produce an exact
   multiple of delta or a tie, which is how a bucket-boundary bug
   (a distance of fl(k * delta) filed under bucket k - 1 and then
   dropped as stale) went unnoticed. *)
type family = Multiples | Ties | Zeros | Spread

let families = [ Multiples; Ties; Zeros; Spread ]

let family_name = function
  | Multiples -> "multiples"
  | Ties -> "ties"
  | Zeros -> "zeros"
  | Spread -> "spread"

let adversarial_weights rng family m =
  let base = Rng.float_in rng 0.1 2.0 in
  match family with
  | Multiples ->
    (* Integer multiples of the smallest weight, which is then the
       default delta: every distance is a sum of multiples of delta. *)
    Array.init m (fun e ->
        if e = 0 then base else float_of_int (1 + Rng.int rng 1000) *. base)
  | Ties ->
    (* Two weights only, one twice the other: many equal-length paths. *)
    Array.init m (fun _ -> if Rng.int rng 4 = 0 then 2.0 *. base else base)
  | Zeros ->
    (* Zero-weight edges (light-phase re-insertion, equal-distance
       vertices) among multiples of the smallest positive weight. *)
    Array.init m (fun _ ->
        if Rng.bool rng then 0.0 else float_of_int (1 + Rng.int rng 8) *. base)
  | Spread ->
    (* Magnitudes from 1e-9 to 1e9: delta is floored at wmax / 4096, so
       most edges are light and the bucket window is at its widest. *)
    Array.init m (fun _ -> Float.pow 10.0 (Rng.float_in rng (-9.0) 9.0))

let adversarial_instance family seed =
  let rng = Rng.create seed in
  let g =
    Gen.erdos_renyi rng
      ~n:(6 + (seed mod 25))
      ~edge_prob:0.3 ~directed:(seed mod 2 = 0) ~capacity_lo:1.0
      ~capacity_hi:5.0
  in
  (g, adversarial_weights rng family (max 1 (Graph.n_edges g)))

let arb_adversarial =
  QCheck.make
    ~print:(fun (f, seed, src) ->
      Printf.sprintf "(%s, seed %d, src %d)" (family_name f) seed src)
    QCheck.Gen.(
      triple (oneofl families) (int_bound 10_000) (int_bound 30))

(* Every kernel x view x jobs combination's tree for one source:
   Dijkstra on both layouts, delta-stepping on both layouts at jobs 1,
   2 and 3. *)
let all_trees g snapshot ~src =
  List.concat_map
    (fun (vname, view) ->
      ( "dijkstra/" ^ vname,
        dijkstra_tree g snapshot ~src ~view:(Some view) )
      :: List.map
           (fun jobs ->
             ( Printf.sprintf "delta/%s/j%d" vname jobs,
               Pool.with_jobs jobs (fun pool ->
                   delta_tree ~pool g snapshot ~src ~view:(Some view)) ))
           [ 1; 2; 3 ])
    (both_views g)

(* --- path validity (after toysolver's isValidPath / pathCost) --- *)

(* Vertices reachable from [src] over finite-weight edges: an edge of
   weight [infinity] is absent for every kernel. *)
let bfs_reachable g w ~src =
  let seen = Array.make (Graph.n_vertices g) false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (e, v) ->
        if Float.is_finite w.(e) && not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (Graph.out_edges g u)
  done;
  seen

(* The parent chain of [v] as the src -> v edge list, or [None] when
   it is not a real path: a missing parent, an edge that does not
   enter the vertex it is the parent of, or no arrival at [src]
   within n steps (a parent cycle). *)
let parent_chain g parent ~src v =
  let n = Graph.n_vertices g in
  let rec climb v steps acc =
    if v = src then Some acc
    else if steps >= n then None
    else begin
      let e = parent.(v) in
      if e < 0 || e >= Graph.n_edges g then None
      else begin
        let edge = Graph.edge g e in
        let tail =
          if edge.Graph.v = v then Some edge.Graph.u
          else if (not (Graph.is_directed g)) && edge.Graph.u = v then
            Some edge.Graph.v
          else None
        in
        match tail with
        | None -> None
        | Some u -> climb u (steps + 1) (e :: acc)
      end
    end
  in
  climb v 0 []

(* Summed from the source, the same association the kernels use
   ([dist v = dist u +. w]), so a correct chain matches bit for bit. *)
let path_cost w chain = List.fold_left (fun acc e -> acc +. w.(e)) 0.0 chain

(* [None] when [(dist, parent)] is a valid shortest-path-tree shape
   for [src], else the first violation. *)
let tree_violation g w ~src (dist, parent) =
  let reachable = bfs_reachable g w ~src in
  let n = Graph.n_vertices g in
  let rec check v =
    if v = n then None
    else if v = src then
      if Float.equal dist.(v) 0.0 && parent.(v) = -1 then check (v + 1)
      else Some (Printf.sprintf "source %d: dist %g parent %d" v dist.(v) parent.(v))
    else if not (Bool.equal reachable.(v) (Float.is_finite dist.(v))) then
      Some
        (Printf.sprintf "vertex %d: reachable %b but dist %g" v reachable.(v)
           dist.(v))
    else if not reachable.(v) then
      if parent.(v) = -1 then check (v + 1)
      else Some (Printf.sprintf "unreachable vertex %d has parent %d" v parent.(v))
    else
      match parent_chain g parent ~src v with
      | None -> Some (Printf.sprintf "vertex %d: parent chain is not a path" v)
      | Some chain ->
        let cost = path_cost w chain in
        if Float.equal cost dist.(v) then check (v + 1)
        else
          Some
            (Printf.sprintf "vertex %d: chain costs %.17g, dist %.17g" v cost
               dist.(v))
  in
  check 0

let qcheck_adversarial_delta_equals_dijkstra =
  QCheck.Test.make
    ~name:"delta-stepping matches dijkstra on adversarial weights" ~count:120
    arb_adversarial (fun (family, seed, src0) ->
      let g, w = adversarial_instance family seed in
      let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
      let src = src0 mod Graph.n_vertices g in
      let reference = dijkstra_tree g snapshot ~src ~view:None in
      List.iter
        (fun (label, tree) ->
          if not (trees_equal reference tree) then
            QCheck.Test.fail_reportf "%s differs from dijkstra" label)
        (all_trees g snapshot ~src);
      true)

let qcheck_trees_are_valid_paths =
  QCheck.Test.make
    ~name:"every kernel x view x jobs tree is made of valid paths" ~count:120
    arb_adversarial (fun (family, seed, src0) ->
      let g, w = adversarial_instance family seed in
      let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
      let src = src0 mod Graph.n_vertices g in
      List.iter
        (fun (label, tree) ->
          match tree_violation g w ~src tree with
          | None -> ()
          | Some why -> QCheck.Test.fail_reportf "%s: %s" label why)
        (all_trees g snapshot ~src);
      true)

(* Alcotest form of both laws for one source: every tree equals
   Dijkstra's on the graph's own layout and is made of valid paths. *)
let check_all_trees label g w ~src =
  let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
  let reference = dijkstra_tree g snapshot ~src ~view:None in
  List.iter
    (fun (kernel, tree) ->
      let label = label ^ " " ^ kernel in
      Alcotest.(check bool) (label ^ " = dijkstra") true
        (trees_equal reference tree);
      Alcotest.(check (option string)) (label ^ " valid") None
        (tree_violation g w ~src tree))
    (all_trees g snapshot ~src)

(* Frontiers of a few hundred vertices stay below the kernel's pool
   chunk floor, so the QCheck graphs above relax inline whatever the
   jobs count. On a 2^11-vertex RMAT graph the ties, zeros and spread
   families fill buckets wide enough to split across executors. *)
let test_adversarial_rmat () =
  List.iter
    (fun family ->
      let rng = Rng.create 11 in
      let g =
        Gen.rmat rng ~scale:11 ~edge_factor:8 ~directed:false ~capacity_lo:1.0
          ~capacity_hi:2.0 ()
      in
      check_all_trees (family_name family) g
        (adversarial_weights rng family (Graph.n_edges g))
        ~src:0)
    families

(* Adversarial draws pinned because each broke a kernel that filed
   every insert under [int_of_float (d /. delta)] without clamping it
   to the bucket being drained (light phase) or the next one (heavy
   phase): a candidate that rounds below that floor lands in a slot
   that is never taken again. *)
let test_pinned_adversarial () =
  List.iter
    (fun (family, seed, src0) ->
      let g, w = adversarial_instance family seed in
      check_all_trees
        (Printf.sprintf "%s seed %d" (family_name family) seed)
        g w
        ~src:(src0 mod Graph.n_vertices g))
    [
      (Multiples, 2906, 5);
      (Multiples, 1210, 24);
      (Multiples, 1057, 2);
      (Ties, 6530, 7);
    ]

(* --- unit: packed builder guard --- *)

let test_pack_rejects_oversized () =
  Alcotest.check_raises "value above 2^31-1 is rejected"
    (Invalid_argument "Graph.Csr.Cells.pack: value out of 32-bit range at slot 1")
    (fun () ->
      ignore (Graph.Csr.Cells.pack [| 0; Graph.Csr.Cells.max_packed + 1 |] [| 0; 0 |]))

let test_pack_rejects_negative () =
  Alcotest.check_raises "negative value is rejected"
    (Invalid_argument "Graph.Csr.Cells.pack: value out of 32-bit range at slot 0")
    (fun () -> ignore (Graph.Csr.Cells.pack [| -1 |] [| 0 |]))

let test_packed_fits_bound () =
  Alcotest.(check bool) "max_packed fits" true
    (Graph.Csr.Packed.fits ~n:Graph.Csr.Cells.max_packed
       ~m:Graph.Csr.Cells.max_packed);
  Alcotest.(check bool) "max_packed + 1 does not" false
    (Graph.Csr.Packed.fits ~n:(Graph.Csr.Cells.max_packed + 1) ~m:1)

let test_pack_roundtrip_boundary () =
  let a = [| 0; Graph.Csr.Cells.max_packed; 7 |] in
  let b = [| Graph.Csr.Cells.max_packed; 0; 123456789 |] in
  let c = Graph.Csr.Cells.pack a b in
  Alcotest.(check bool) "packed layout" true (Graph.Csr.Cells.is_packed c);
  for k = 0 to 2 do
    Alcotest.(check int) "fst" a.(k) (Graph.Csr.Cells.fst c k);
    Alcotest.(check int) "snd" b.(k) (Graph.Csr.Cells.snd c k)
  done

(* --- unit: bucket edge cases --- *)

let line_graph weights =
  let n = Array.length weights + 1 in
  let g = Graph.create ~directed:true ~n in
  Array.iteri (fun i _ -> ignore (Graph.add_edge g ~u:i ~v:(i + 1) ~capacity:1.0)) weights;
  (g, Weight_snapshot.build g ~weight:(fun e -> weights.(e)))

let check_tree msg g snapshot ~src =
  let reference = dijkstra_tree g snapshot ~src ~view:None in
  let got = delta_tree g snapshot ~src ~view:None in
  Alcotest.(check bool) msg true (trees_equal reference got)

let test_zero_weight_light_edges () =
  (* Zero-weight edges re-insert into the current bucket: the inner
     light loop must drain the refilling slot, not spin or drop it. *)
  let g, snapshot = line_graph [| 0.0; 0.0; 1.0; 0.0 |] in
  check_tree "zero-weight chain" g snapshot ~src:0;
  let dist, _ = delta_tree g snapshot ~src:0 ~view:None in
  Alcotest.(check (float 0.0)) "dist through zeros" 1.0 dist.(4)

let test_all_heavy_edges () =
  (* delta below every weight: light phases are all empty, every edge
     goes through the heavy phase. *)
  let g, snapshot = line_graph [| 3.0; 5.0; 4.0 |] in
  let reference = dijkstra_tree g snapshot ~src:0 ~view:None in
  let got = delta_tree ~delta:0.01 g snapshot ~src:0 ~view:None in
  Alcotest.(check bool) "all-heavy tree" true (trees_equal reference got)

let test_unreachable_vertices () =
  let g = Graph.create ~directed:true ~n:5 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0);
  ignore (Graph.add_edge g ~u:3 ~v:4 ~capacity:1.0);
  let snapshot = Weight_snapshot.build g ~weight:(fun _ -> 1.0) in
  check_tree "unreachable component" g snapshot ~src:0;
  let dist, parent = delta_tree g snapshot ~src:0 ~view:None in
  Alcotest.(check bool) "2 unreachable" true (Float.equal dist.(2) infinity);
  Alcotest.(check bool) "4 unreachable" true (Float.equal dist.(4) infinity);
  Alcotest.(check int) "no parent at 4" (-1) parent.(4)

let test_infinite_weights_behave_as_absent () =
  let g, snapshot = line_graph [| 1.0; infinity; 1.0 |] in
  check_tree "infinite edge cuts the line" g snapshot ~src:0;
  let dist, _ = delta_tree g snapshot ~src:0 ~view:None in
  Alcotest.(check bool) "beyond the cut" true (Float.equal dist.(2) infinity)

let test_single_vertex () =
  let g = Graph.create ~directed:false ~n:1 in
  let snapshot = Weight_snapshot.build g ~weight:(fun _ -> 1.0) in
  let dist, parent = delta_tree g snapshot ~src:0 ~view:None in
  Alcotest.(check (float 0.0)) "src dist" 0.0 dist.(0);
  Alcotest.(check int) "src parent" (-1) parent.(0)

let test_bucket_boundary_distance () =
  (* delta is the smallest positive weight, 0.72164698243141179, and
     edge 0->1 weighs 536.1837079465389 = fl(743 * delta). Its distance
     divides to just below 743, so the insert files vertex 1 under
     bucket 742, while a bucket test recomputed from the distance says
     743: vertex 1, and vertex 3 behind it, used to come out
     unreachable. *)
  let delta = 0.72164698243141179 and w01 = 536.1837079465389 in
  let g = Graph.create ~directed:true ~n:4 in
  let e01 = Graph.add_edge g ~u:0 ~v:1 ~capacity:1.0 in
  let e02 = Graph.add_edge g ~u:0 ~v:2 ~capacity:1.0 in
  let e13 = Graph.add_edge g ~u:1 ~v:3 ~capacity:1.0 in
  let w = Array.make 3 0.0 in
  w.(e01) <- w01;
  w.(e02) <- delta;
  w.(e13) <- 1.0;
  Alcotest.(check bool) "distance on the boundary" true
    (int_of_float (w01 /. delta) < 743 && Float.equal w01 (743.0 *. delta));
  check_all_trees "boundary" g w ~src:0;
  let snapshot = Weight_snapshot.build g ~weight:(fun e -> w.(e)) in
  let dist, _ = delta_tree g snapshot ~src:0 ~view:None in
  Alcotest.(check (float 0.0)) "vertex 3" (w01 +. 1.0) dist.(3)

let test_bad_delta_rejected () =
  let g, snapshot = line_graph [| 1.0 |] in
  let attempt d () = ignore (delta_tree ~delta:d g snapshot ~src:0 ~view:None) in
  List.iter
    (fun d ->
      Alcotest.check_raises "bad delta"
        (Invalid_argument "Delta_stepping: delta must be positive and finite")
        (attempt d))
    [ 0.0; -1.0; infinity; nan ]

let () =
  Alcotest.run "delta_stepping"
    [
      ( "law",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_delta_equals_dijkstra;
            qcheck_explicit_delta_is_only_a_hint;
            qcheck_adversarial_delta_equals_dijkstra;
            qcheck_trees_are_valid_paths;
          ]
        @ [
            Alcotest.test_case "adversarial weights on rmat" `Quick
              test_adversarial_rmat;
            Alcotest.test_case "pinned adversarial draws" `Quick
              test_pinned_adversarial;
          ] );
      ( "packed",
        [
          Alcotest.test_case "pack rejects oversized" `Quick
            test_pack_rejects_oversized;
          Alcotest.test_case "pack rejects negative" `Quick
            test_pack_rejects_negative;
          Alcotest.test_case "fits bound" `Quick test_packed_fits_bound;
          Alcotest.test_case "pack boundary roundtrip" `Quick
            test_pack_roundtrip_boundary;
        ] );
      ( "buckets",
        [
          Alcotest.test_case "zero-weight light edges" `Quick
            test_zero_weight_light_edges;
          Alcotest.test_case "all-heavy edges" `Quick test_all_heavy_edges;
          Alcotest.test_case "unreachable vertices" `Quick
            test_unreachable_vertices;
          Alcotest.test_case "infinite weights absent" `Quick
            test_infinite_weights_behave_as_absent;
          Alcotest.test_case "single vertex" `Quick test_single_vertex;
          Alcotest.test_case "bucket boundary distance" `Quick
            test_bucket_boundary_distance;
          Alcotest.test_case "bad delta rejected" `Quick test_bad_delta_rejected;
        ] );
    ]
