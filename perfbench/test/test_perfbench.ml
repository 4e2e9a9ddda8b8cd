(* The benchmark's validators must be able to fail: each is handed the
   failure shape it exists to catch. *)

open Perfbench
module Rng = Ufp_prelude.Rng
module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp

let small_grid () = Gen.grid ~rows:4 ~cols:4 ~capacity:20.0

let tree g =
  let t = Dijkstra.shortest_tree g ~weight:(fun e -> 1.0 /. (1.0 +. float_of_int e)) ~src:0 in
  (t.Dijkstra.dist, t.Dijkstra.parent_edge)

let test_tree_equal () =
  let ref_dist, ref_parent = tree (small_grid ()) in
  Alcotest.(check int) "identical trees" 0
    (Check.tree_mismatches ~dist:(Array.copy ref_dist)
       ~parent:(Array.copy ref_parent) ~ref_dist ~ref_parent)

(* The failure shape of the delta-stepping bucket-boundary bug: a
   reachable vertex reported at distance infinity. *)
let test_tree_lost_vertex () =
  let ref_dist, ref_parent = tree (small_grid ()) in
  let dist = Array.copy ref_dist in
  dist.(5) <- infinity;
  Alcotest.(check int) "one lost vertex" 1
    (Check.tree_mismatches ~dist ~parent:(Array.copy ref_parent) ~ref_dist
       ~ref_parent)

let test_tree_parent () =
  let ref_dist, ref_parent = tree (small_grid ()) in
  let parent = Array.copy ref_parent in
  parent.(7) <- parent.(7) + 1;
  Alcotest.(check bool) "parent edge differs" true
    (Check.tree_mismatches ~dist:(Array.copy ref_dist) ~parent ~ref_dist
       ~ref_parent
    > 0)

let small_instance seed =
  let g = small_grid () in
  Instance.create g (Workloads.random_requests (Rng.create seed) g ~count:20 ())

let test_vacuous_solution () =
  Alcotest.(check bool) "empty reference refused" true
    (Check.same_solution ~reference:[] [] <> [])

let test_solution_differs () =
  let run = Bounded_ufp.run ~eps:0.3 (small_instance 3) in
  let sol = run.Bounded_ufp.solution in
  Alcotest.(check (list string)) "same solution" [] (Check.same_solution ~reference:sol sol);
  Alcotest.(check bool) "dropped allocation" true
    (Check.same_solution ~reference:sol (List.tl sol) <> [])

let test_empty_solve () =
  let inst = small_instance 3 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  Alcotest.(check (list string)) "real run passes" [] (Check.solve inst run);
  Alcotest.(check bool) "empty run refused" true
    (Check.solve inst { run with Bounded_ufp.solution = [] } <> [])

let test_payments () =
  let g = small_grid () in
  let req v = Request.make ~src:0 ~dst:15 ~demand:1.0 ~value:v in
  let inst = Instance.create g [| req 2.0; req 1.0 |] in
  let ok = Check.payments inst ~winners:[| true; false |] in
  Alcotest.(check (list string)) "valid" [] (ok [| 1.5; 0.0 |]);
  Alcotest.(check bool) "winner over its value" true (ok [| 2.5; 0.0 |] <> []);
  Alcotest.(check bool) "loser charged" true (ok [| 1.5; 0.25 |] <> []);
  Alcotest.(check bool) "no winner" true
    (Check.payments inst ~winners:[| false; false |] [| 0.0; 0.0 |] <> []);
  Alcotest.(check bool) "last bit differs" true
    (Check.same_payments ~reference:[| 1.5; 0.0 |] [| Float.succ 1.5; 0.0 |] <> [])

let test_selector_loop () =
  let inst = small_instance 5 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  let d = Selector_loop.run ~eps:0.3 inst in
  Alcotest.(check bool) "the loop selects" true (d.Selector_loop.selections <> []);
  Alcotest.(check bool) "same selections" true
    (Check.same_selections d.Selector_loop.selections (Check.selections run));
  let shifted = List.map (fun (i, p, a) -> (i, p, a *. 2.0)) d.Selector_loop.selections in
  Alcotest.(check bool) "alpha differs" false
    (Check.same_selections shifted (Check.selections run))

(* Every workload admits a request, so its equality checks are not
   comparisons of two empty allocations. *)
let test_workload_admits (w : Workload.t) () =
  let inst = Instance.normalize (w.Workload.generate (Rng.create 1)) in
  Alcotest.(check bool) "meets the Theorem 3.1 premise" true
    (Instance.meets_bound inst ~eps:Workload.eps);
  let run = Bounded_ufp.run ~eps:Workload.eps inst in
  Alcotest.(check (list string)) "checks pass" [] (Check.solve inst run)

let () =
  Alcotest.run "perfbench"
    [
      ( "validators",
        [
          Alcotest.test_case "tree equal" `Quick test_tree_equal;
          Alcotest.test_case "tree lost vertex" `Quick test_tree_lost_vertex;
          Alcotest.test_case "tree parent" `Quick test_tree_parent;
          Alcotest.test_case "vacuous solution" `Quick test_vacuous_solution;
          Alcotest.test_case "solution differs" `Quick test_solution_differs;
          Alcotest.test_case "empty solve" `Quick test_empty_solve;
          Alcotest.test_case "payments" `Quick test_payments;
          Alcotest.test_case "selector loop trace" `Quick test_selector_loop;
        ] );
      ( "workloads",
        List.map
          (fun w ->
            Alcotest.test_case w.Workload.name `Slow (test_workload_admits w))
          Workload.all );
    ]
