(* Tests for Ufp_core: bounded_ufp, bounded_ufp_repeat, reasonable,
   baselines. *)

module Graph = Ufp_graph.Graph
module Gen = Ufp_graph.Generators
module Request = Ufp_instance.Request
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Workloads = Ufp_instance.Workloads
module Bounded_ufp = Ufp_core.Bounded_ufp
module Repeat = Ufp_core.Bounded_ufp_repeat
module Reasonable = Ufp_core.Reasonable
module Baselines = Ufp_core.Baselines
module Exact = Ufp_lp.Exact
module Duality = Ufp_lp.Duality
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

let line_graph caps =
  let n = Array.length caps + 1 in
  let g = Graph.create ~directed:true ~n in
  Array.iteri (fun i c -> ignore (Graph.add_edge g ~u:i ~v:(i + 1) ~capacity:c)) caps;
  g

(* A well-capacitated instance meeting the Theorem 3.1 premise: grid
   with B = capacity and unit-bounded demands. *)
let grid_instance ?(rows = 4) ?(cols = 4) ?(capacity = 30.0) ?(count = 40) seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  let reqs = Workloads.random_requests rng g ~count () in
  Instance.create g reqs

(* --- Bounded_ufp: validation --- *)

let test_bufp_eps_validation () =
  let inst = grid_instance 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Bounded_ufp: eps must be in (0, 1]")
    (fun () -> ignore (Bounded_ufp.run ~eps:0.0 inst))

let test_bufp_requires_requests () =
  let g = line_graph [| 2.0 |] in
  let inst = Instance.create g [||] in
  Alcotest.check_raises "no requests" (Invalid_argument "Bounded_ufp: no requests")
    (fun () -> ignore (Bounded_ufp.run inst))

let test_bufp_requires_normalized () =
  let g = line_graph [| 9.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:2.0 ~value:1.0 |]
  in
  Alcotest.check_raises "demand > 1"
    (Invalid_argument "Bounded_ufp: instance must be normalised (demands in (0,1])")
    (fun () -> ignore (Bounded_ufp.run inst))

let test_bufp_requires_b_ge_1 () =
  let g = line_graph [| 0.5 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:0.5 ~value:1.0 |]
  in
  Alcotest.check_raises "B < 1"
    (Invalid_argument "Bounded_ufp: requires B = min capacity >= 1") (fun () ->
      ignore (Bounded_ufp.run inst))

(* --- Bounded_ufp: behaviour --- *)

let test_bufp_feasible_many_seeds () =
  for seed = 1 to 10 do
    let inst = grid_instance ~capacity:10.0 ~count:80 seed in
    let sol = Bounded_ufp.solve ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible inst sol)
  done

let test_bufp_allocates_all_when_ample () =
  let inst = grid_instance ~capacity:100.0 ~count:30 3 in
  let run = Bounded_ufp.run ~eps:0.2 inst in
  Alcotest.(check int) "all requests" 30 (List.length run.Bounded_ufp.solution);
  Alcotest.(check bool) "not budget bound" false run.Bounded_ufp.budget_exhausted;
  check_float "certified bound equals value" (Instance.total_value inst)
    run.Bounded_ufp.certified_upper_bound

let test_bufp_respects_capacity_tight () =
  (* Single edge of capacity 2, five unit requests: at most 2 routed. *)
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g
      (Array.init 5 (fun i ->
           Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:(1.0 +. float_of_int i)))
  in
  let sol = Bounded_ufp.solve ~eps:0.5 inst in
  Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol);
  Alcotest.(check bool) "at most 2" true (List.length sol <= 2)

let test_bufp_prefers_value_density () =
  (* Two requests on one capacity-1 edge; only one fits. The one with
     the smaller d/v (higher value) has the shorter normalised path. *)
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:10.0;
      |]
  in
  let sol = Bounded_ufp.solve ~eps:0.5 inst in
  Alcotest.(check (list int)) "picks the valuable request" [ 1 ]
    (Solution.selected sol)

let test_bufp_certified_bound_dominates_exact () =
  for seed = 1 to 6 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:8.0 ~count:6 seed in
    let opt = Exact.opt_value inst in
    let run = Bounded_ufp.run ~eps:0.4 inst in
    Alcotest.(check bool)
      (Printf.sprintf "bound >= OPT seed %d" seed)
      true
      (run.Bounded_ufp.certified_upper_bound >= opt -. Float_tol.loose_check_eps)
  done

let test_bufp_trace_consistent () =
  let inst = grid_instance ~capacity:20.0 ~count:25 9 in
  let run = Bounded_ufp.run ~eps:0.2 inst in
  Alcotest.(check int) "iterations match trace"
    (List.length run.Bounded_ufp.trace)
    run.Bounded_ufp.iterations;
  (* alpha(i) is nondecreasing: duals only grow and the candidate set
     only shrinks (Claim 3.5's premise). *)
  let rec alphas_nondecreasing prev = function
    | [] -> true
    | (e : Bounded_ufp.trace_entry) :: rest ->
      e.Bounded_ufp.alpha >= prev -. Float_tol.check_eps
      && alphas_nondecreasing e.Bounded_ufp.alpha rest
  in
  Alcotest.(check bool) "alphas nondecreasing" true
    (alphas_nondecreasing 0.0 run.Bounded_ufp.trace);
  (* d1 in the last trace entry equals the final dual objective. *)
  (match List.rev run.Bounded_ufp.trace with
  | last :: _ ->
    let g = Instance.graph inst in
    let recomputed =
      Graph.fold_edges
        (fun e acc -> acc +. (e.Graph.capacity *. run.Bounded_ufp.final_y.(e.Graph.id)))
        g 0.0
    in
    Alcotest.(check (float Float_tol.loose_check_eps)) "d1 tracks duals" recomputed last.Bounded_ufp.d1
  | [] -> Alcotest.fail "expected nonempty trace");
  (* z_r = v_r exactly for selected requests, 0 otherwise (line 12). *)
  let selected = Solution.selected run.Bounded_ufp.solution in
  Array.iteri
    (fun i z ->
      if List.mem i selected then
        check_float "z = v for winners" (Instance.request inst i).Request.value z
      else check_float "z = 0 for losers" 0.0 z)
    run.Bounded_ufp.final_z

let test_bufp_final_duals_growth () =
  (* Every final dual y_e is at least its initial value 1/c_e. *)
  let inst = grid_instance ~capacity:15.0 ~count:30 11 in
  let g = Instance.graph inst in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  Array.iteri
    (fun e y ->
      Alcotest.(check bool) "y grew" true (y >= (1.0 /. Graph.capacity g e) -. Float_tol.tight_eps))
    run.Bounded_ufp.final_y

let test_bufp_deterministic () =
  let a = Bounded_ufp.run (grid_instance 13) and b = Bounded_ufp.run (grid_instance 13) in
  Alcotest.(check (list int)) "same selection"
    (Solution.selected a.Bounded_ufp.solution)
    (Solution.selected b.Bounded_ufp.solution)

let test_bufp_budget () =
  check_float "budget formula" (exp 0.5) (Bounded_ufp.budget ~eps:0.1 ~b:6.0);
  Alcotest.(check bool) "theorem ratio > e/(e-1)" true
    (Bounded_ufp.theorem_ratio ~eps:0.1 > 1.58)

let test_bufp_stops_on_budget () =
  (* Tiny capacity relative to ln m: budget is immediately exceeded. *)
  let g = Gen.grid ~rows:5 ~cols:5 ~capacity:2.0 in
  let rng = Rng.create 4 in
  let reqs = Workloads.random_requests rng g ~count:10 () in
  let inst = Instance.create g reqs in
  let run = Bounded_ufp.run ~eps:0.1 inst in
  Alcotest.(check bool) "budget exhausted" true run.Bounded_ufp.budget_exhausted;
  Alcotest.(check int) "no iterations" 0 run.Bounded_ufp.iterations

let test_bufp_unroutable_requests_skipped () =
  let g = Graph.create ~directed:true ~n:4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~capacity:5.0);
  (* Vertex 2 -> 3 disconnected. *)
  ignore (Graph.add_edge g ~u:3 ~v:2 ~capacity:5.0);
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0;
        Request.make ~src:2 ~dst:3 ~demand:1.0 ~value:50.0;
      |]
  in
  let run = Bounded_ufp.run ~eps:0.5 inst in
  Alcotest.(check (list int)) "only routable allocated" [ 0 ]
    (Solution.selected run.Bounded_ufp.solution)

(* Monotonicity, directly on the algorithm (Lemma 3.4). *)
let test_bufp_monotone_manual () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:10.0 ~count:10 17 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  match Solution.selected run.Bounded_ufp.solution with
  | [] -> Alcotest.fail "expected at least one winner"
  | w :: _ ->
    let r = Instance.request inst w in
    let improved =
      Instance.with_request inst w
        (Request.with_type r ~demand:(r.Request.demand /. 2.0)
           ~value:(r.Request.value *. 3.0))
    in
    let run' = Bounded_ufp.run ~eps:0.3 improved in
    Alcotest.(check bool) "still selected" true
      (List.mem w (Solution.selected run'.Bounded_ufp.solution))

(* --- Bounded_ufp_repeat --- *)

let test_repeat_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:10.0 ~count:10 seed in
    let sol = Repeat.solve ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible ~repetitions:true inst sol)
  done

let test_repeat_repeats () =
  (* One request, capacity 8: repetitions fill the edge. *)
  let g = line_graph [| 8.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0 |]
  in
  let run = Repeat.run ~eps:0.3 inst in
  Alcotest.(check bool) "allocated more than once" true
    (List.length run.Repeat.solution > 1);
  Alcotest.(check bool) "feasible" true
    (Solution.is_feasible ~repetitions:true inst run.Repeat.solution)

let test_repeat_ratio_certificate () =
  (* Theorem 5.1 / Lemma 5.3: certified bound / value <= 1 + 6 eps when
     the bound premise holds. *)
  let eps = 0.3 in
  for seed = 1 to 5 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:30.0 ~count:8 seed in
    let run = Repeat.run ~eps inst in
    let v = Solution.value inst run.Repeat.solution in
    if v > 0.0 then
      Alcotest.(check bool)
        (Printf.sprintf "ratio within 1+6eps (seed %d)" seed)
        true
        (run.Repeat.certified_upper_bound /. v
        <= Repeat.theorem_ratio ~eps +. 0.05)
  done

let test_repeat_dual_certificate_valid () =
  (* The scaled final duals are feasible for the Figure 5 dual. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:20.0 ~count:6 23 in
  let run = Repeat.run ~eps:0.3 inst in
  (* certified bound = min_i D(i)/alpha(i); verify it dominates the
     with-repetitions optimum of the only-request-0 sub-problem, a
     cheap sanity floor: value of the solution itself. *)
  let v = Solution.value inst run.Repeat.solution in
  Alcotest.(check bool) "bound >= achieved value" true
    (run.Repeat.certified_upper_bound >= v -. Float_tol.loose_check_eps)

let test_repeat_validation () =
  let g = line_graph [| 2.0 |] in
  let inst = Instance.create g [||] in
  Alcotest.check_raises "no requests"
    (Invalid_argument "Bounded_ufp_repeat: no requests") (fun () ->
      ignore (Repeat.run inst))

(* --- Reasonable --- *)

let test_reasonable_matches_bounded_ufp () =
  (* With ample capacity (no budget stop, no capacity binding) the
     h-minimizing simulator and Algorithm 1 select identically. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:50.0 ~count:12 31 in
  let eps = 0.2 in
  let b = Graph.min_capacity (Instance.graph inst) in
  let direct = Bounded_ufp.solve ~eps inst in
  let sim =
    Reasonable.run ~priority:(Reasonable.h ~eps ~b)
      ~tie_break:Reasonable.first_candidate inst
  in
  Alcotest.(check (list int)) "same selection order"
    (Solution.selected direct)
    (Solution.selected sim.Reasonable.solution)

let test_reasonable_staircase_ratio () =
  let levels = 24 and b = 6 in
  let sc = Gen.staircase ~levels ~capacity:(float_of_int b) in
  let inst = Instance.create sc.Gen.graph (Workloads.staircase_requests sc ~per_source:b) in
  let res =
    Reasonable.run
      ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b))
      ~tie_break:Reasonable.prefer_max_second_vertex inst
  in
  Alcotest.(check bool) "feasible" true (Solution.is_feasible inst res.Reasonable.solution);
  let v = Solution.value inst res.Reasonable.solution in
  let opt = float_of_int (levels * b) in
  let predicted =
    1.0 -. ((float_of_int b /. float_of_int (b + 1)) ** float_of_int b)
  in
  (* Theorem 3.11 with the integrality correction of at most B^2. *)
  Alcotest.(check bool) "within correction of prediction" true
    (Float.abs (v -. (opt *. predicted)) <= float_of_int (b * b))

let test_reasonable_gadget_ratio () =
  List.iter
    (fun b ->
      let g = Gen.gadget7 ~capacity:(float_of_int b) in
      let inst = Instance.create g (Workloads.gadget7_requests ~per_pair:b) in
      let res =
        Reasonable.run
          ~priority:(Reasonable.h ~eps:0.1 ~b:(float_of_int b))
          ~tie_break:(Reasonable.prefer_hub Gen.Gadget7.v7)
          inst
      in
      let v = Solution.value inst res.Reasonable.solution in
      Alcotest.(check (float Float_tol.check_eps))
        (Printf.sprintf "3B of 4B for B=%d" b)
        (float_of_int (3 * b))
        v)
    [ 2; 4; 8 ]

let test_reasonable_gadget_optimal_exists () =
  (* Sanity: the instance does admit a 4B-value solution. *)
  let b = 4 in
  let g = Gen.gadget7 ~capacity:(float_of_int b) in
  let inst = Instance.create g (Workloads.gadget7_requests ~per_pair:b) in
  let opt = Exact.opt_value inst in
  check_float "optimum is 4B" (float_of_int (4 * b)) opt

let test_reasonable_priorities_run () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:8 41 in
  let b = 4.0 in
  List.iter
    (fun (name, priority) ->
      let res =
        Reasonable.run ~priority ~tie_break:Reasonable.first_candidate inst
      in
      Alcotest.(check bool) (name ^ " feasible") true
        (Solution.is_feasible inst res.Reasonable.solution))
    [
      ("h", Reasonable.h ~eps:0.1 ~b);
      ("h1", Reasonable.h1 ~eps:0.1 ~b);
      ("h2", Reasonable.h2);
      ("hops", Reasonable.hops);
    ]

let test_reasonable_saturates () =
  (* After the run, no pending request fits — check by recomputing. *)
  let g = line_graph [| 2.0 |] in
  let inst =
    Instance.create g
      (Array.init 4 (fun _ -> Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:1.0))
  in
  let res =
    Reasonable.run ~priority:Reasonable.hops ~tie_break:Reasonable.first_candidate
      inst
  in
  Alcotest.(check int) "exactly capacity many" 2
    (List.length res.Reasonable.solution);
  Alcotest.(check bool) "saturated" true res.Reasonable.saturated

let test_reasonable_random_tie_deterministic () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:3.0 ~count:8 47 in
  let run () =
    Reasonable.run ~priority:Reasonable.hops
      ~tie_break:(Reasonable.random_tie ~seed:5)
      inst
  in
  Alcotest.(check (list int)) "same result"
    (Solution.selected (run ()).Reasonable.solution)
    (Solution.selected (run ()).Reasonable.solution)

(* --- Baselines --- *)

let test_greedy_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:3.0 ~count:20 seed in
    Alcotest.(check bool) "density greedy feasible" true
      (Solution.is_feasible inst (Baselines.greedy_by_density inst));
    Alcotest.(check bool) "value greedy feasible" true
      (Solution.is_feasible inst (Baselines.greedy_by_value inst))
  done

let test_greedy_order_matters () =
  (* Value greedy takes the big request; density greedy the small one. *)
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g
      [|
        Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:3.0;
        Request.make ~src:0 ~dst:1 ~demand:0.2 ~value:1.0;
      |]
  in
  let by_value = Baselines.greedy_by_value inst in
  Alcotest.(check bool) "value greedy takes request 0" true
    (Solution.mem by_value 0);
  let by_density = Baselines.greedy_by_density inst in
  (* Density of request 1 is 1/0.2 = 5 > 3. *)
  Alcotest.(check bool) "density greedy takes request 1 first" true
    (Solution.mem by_density 1)

let test_threshold_pd_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:10.0 ~count:30 seed in
    let sol = Baselines.threshold_pd ~eps:0.3 inst in
    Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol)
  done

let test_threshold_pd_accepts_cheap () =
  let g = line_graph [| 4.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:2.0 |]
  in
  (* Initial normalised length = (1/2) * (1/4) = 0.125 <= 1: accepted. *)
  let sol = Baselines.threshold_pd ~eps:0.2 inst in
  Alcotest.(check (list int)) "accepted" [ 0 ] (Solution.selected sol)

let test_threshold_pd_rejects_expensive () =
  let g = line_graph [| 1.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:0.5 |]
  in
  (* Initial normalised length = 2 * 1 = 2 > 1: rejected. *)
  let sol = Baselines.threshold_pd ~eps:0.2 inst in
  Alcotest.(check (list int)) "rejected" [] (Solution.selected sol)

let test_randomized_rounding_feasible () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:5.0 ~count:20 seed in
    let sol = Baselines.randomized_rounding ~seed:(seed * 7) inst in
    Alcotest.(check bool) "feasible" true (Solution.is_feasible inst sol)
  done

let test_randomized_rounding_deterministic () =
  let inst = grid_instance ~capacity:5.0 ~count:15 8 in
  let a = Baselines.randomized_rounding ~seed:3 inst in
  let b = Baselines.randomized_rounding ~seed:3 inst in
  Alcotest.(check (list int)) "same seed same result" (Solution.selected a)
    (Solution.selected b)

(* --- Online --- *)

module Online = Ufp_core.Online

let test_online_feasible () =
  for seed = 1 to 6 do
    let inst = grid_instance ~capacity:10.0 ~count:60 seed in
    let run = Online.route ~eps:0.3 inst in
    Alcotest.(check bool)
      (Printf.sprintf "feasible seed %d" seed)
      true
      (Solution.is_feasible inst run.Online.solution);
    Alcotest.(check int) "one log entry per request"
      (Instance.n_requests inst)
      (List.length run.Online.log)
  done

let test_online_log_consistent () =
  let inst = grid_instance ~capacity:12.0 ~count:40 3 in
  let run = Online.route ~eps:0.3 inst in
  let accepted = Solution.selected run.Online.solution in
  List.iter
    (fun (e : Online.event) ->
      if e.Online.accepted then begin
        Alcotest.(check bool) "accepted implies cost <= 1" true (e.Online.cost <= 1.0);
        Alcotest.(check bool) "accepted in solution" true
          (List.mem e.Online.request accepted)
      end
      else
        Alcotest.(check bool) "rejected implies cost > 1 or unreachable" true
          (e.Online.cost > 1.0 || e.Online.cost = infinity))
    run.Online.log

let test_online_order_matters_but_feasible () =
  let inst = grid_instance ~capacity:10.0 ~count:50 5 in
  let n = Instance.n_requests inst in
  let forward = Online.solve ~eps:0.3 inst in
  let backward =
    Online.solve ~eps:0.3 ~order:(Array.init n (fun i -> n - 1 - i)) inst
  in
  Alcotest.(check bool) "both feasible" true
    (Solution.is_feasible inst forward && Solution.is_feasible inst backward)

let test_online_order_validation () =
  let inst = grid_instance ~capacity:10.0 ~count:5 7 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Online.route: order must be a permutation") (fun () ->
      ignore (Online.route ~order:[| 0; 1 |] inst));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Online.route: order must be a permutation") (fun () ->
      ignore (Online.route ~order:[| 0; 0; 1; 2; 3 |] inst))

let test_online_below_offline_total () =
  let inst = grid_instance ~capacity:12.0 ~count:80 9 in
  let online = Solution.value inst (Online.solve ~eps:0.3 inst) in
  Alcotest.(check bool) "bounded by total value" true
    (online <= Instance.total_value inst +. Float_tol.check_eps)

let test_online_monotone_for_fixed_order () =
  (* A winner that improves its type keeps winning under the same
     arrival order — online truthfulness. *)
  let inst = grid_instance ~capacity:12.0 ~count:30 11 in
  let run = Online.route ~eps:0.3 inst in
  match Solution.selected run.Online.solution with
  | [] -> Alcotest.fail "expected at least one accepted request"
  | w :: _ ->
    let r = Instance.request inst w in
    let improved =
      Instance.with_request inst w
        (Request.with_type r ~demand:(r.Request.demand /. 2.0)
           ~value:(r.Request.value *. 2.0))
    in
    Alcotest.(check bool) "still accepted" true
      (List.mem w (Solution.selected (Online.solve ~eps:0.3 improved)))

let test_online_rejects_worthless () =
  (* A request whose value is far below its path cost is rejected. *)
  let g = line_graph [| 4.0 |] in
  let inst =
    Instance.create g [| Request.make ~src:0 ~dst:1 ~demand:1.0 ~value:0.01 |]
  in
  Alcotest.(check (list int)) "rejected" []
    (Solution.selected (Online.solve ~eps:0.5 inst))

(* --- Pd_engine: differential testing against the transcriptions --- *)

module Pd_engine = Ufp_core.Pd_engine

let test_engine_reproduces_bounded_ufp () =
  (* The engine instantiated with the paper's parameters must make
     decision-for-decision the same run as the literal Algorithm 1
     transcription — an independent implementation agreeing on every
     seed is strong evidence both are the algorithm on the page. *)
  for seed = 1 to 8 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:14.0 ~count:25 seed in
    let eps = 0.3 in
    let b = Graph.min_capacity (Instance.graph inst) in
    let direct = Bounded_ufp.run ~eps inst in
    let engine = Pd_engine.execute (Pd_engine.algorithm_1 ~eps ~b) inst in
    Alcotest.(check (list int))
      (Printf.sprintf "same selection seed %d" seed)
      (Solution.selected direct.Bounded_ufp.solution)
      (Solution.selected engine.Pd_engine.solution);
    Alcotest.(check int) "same iterations" direct.Bounded_ufp.iterations
      engine.Pd_engine.iterations;
    Array.iteri
      (fun e ye ->
        Alcotest.(check (float Float_tol.check_eps)) "same final duals" ye
          engine.Pd_engine.final_y.(e))
      direct.Bounded_ufp.final_y
  done

let test_engine_reproduces_repeat () =
  for seed = 1 to 4 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:6 seed in
    let eps = 0.3 in
    let b = Graph.min_capacity (Instance.graph inst) in
    let direct = Repeat.run ~eps inst in
    let engine = Pd_engine.execute (Pd_engine.algorithm_3 ~eps ~b) inst in
    Alcotest.(check (list int))
      (Printf.sprintf "same repeat selection seed %d" seed)
      (Solution.selected direct.Repeat.solution)
      (Solution.selected engine.Pd_engine.solution)
  done

let test_engine_reproduces_threshold_pd () =
  for seed = 1 to 5 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:15 seed in
    let eps = 0.3 in
    let b = Graph.min_capacity (Instance.graph inst) in
    let direct = Baselines.threshold_pd ~eps inst in
    let engine = Pd_engine.execute (Pd_engine.threshold_rule ~eps ~b) inst in
    Alcotest.(check (list int))
      (Printf.sprintf "same threshold selection seed %d" seed)
      (Solution.selected direct)
      (Solution.selected engine.Pd_engine.solution)
  done

let test_engine_validation () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:4 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Pd_engine: eps must be in (0, 1]")
    (fun () ->
      ignore
        (Pd_engine.execute
           { (Pd_engine.algorithm_1 ~eps:0.3 ~b:12.0) with Pd_engine.eps = 0.0 }
           inst))

let test_engine_iteration_guard () =
  (* A repetitions config with an absurd budget would loop forever;
     the guard turns it into a clean failure. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:3 2 in
  let config =
    {
      (Pd_engine.algorithm_3 ~eps:0.3 ~b:12.0) with
      Pd_engine.stop = Pd_engine.Budget infinity;
    }
  in
  match Pd_engine.execute ~max_iterations:50 config inst with
  | exception Pd_engine.Iteration_limit { iterations; d1; stop } ->
    Alcotest.(check int) "iterations carried" 51 iterations;
    Alcotest.(check bool) "d1 grew past its start" true
      (d1 > float_of_int (Ufp_graph.Graph.n_edges (Instance.graph inst)));
    (match stop with
    | Pd_engine.Budget b -> Alcotest.(check bool) "stop rule carried" true (b = infinity)
    | Pd_engine.Threshold _ -> Alcotest.fail "wrong stop rule in exception")
  | _ -> Alcotest.fail "expected the iteration guard to fire"

(* --- Selector --- *)

module Selector = Ufp_core.Selector

let test_selector_remove_is_idempotent () =
  (* Removing an already-removed request must not decrement the pending
     count a second time (the historical Pending.remove bug). *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:5 1 in
  let sel = Selector.create ~weights:(Selector.Uniform (fun _ -> 1.0)) inst in
  Alcotest.(check int) "all pending" 5 (Selector.n_pending sel);
  Selector.remove sel 2;
  Alcotest.(check int) "one removed" 4 (Selector.n_pending sel);
  Selector.remove sel 2;
  Selector.remove sel 2;
  Alcotest.(check int) "double remove is a no-op" 4 (Selector.n_pending sel);
  List.iter (Selector.remove sel) [ 0; 1; 3; 4 ];
  Alcotest.(check bool) "empty after removing all" true (Selector.is_empty sel);
  Selector.remove sel 0;
  Alcotest.(check int) "still zero, not negative" 0 (Selector.n_pending sel)

let test_selector_remove_out_of_range () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:3 1 in
  let sel = Selector.create ~weights:(Selector.Uniform (fun _ -> 1.0)) inst in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Selector.remove: request index out of range") (fun () ->
      Selector.remove sel 3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Selector.remove: request index out of range") (fun () ->
      Selector.remove sel (-1))

let test_selector_kinds_agree_on_bounded_ufp () =
  for seed = 1 to 6 do
    let inst = grid_instance ~rows:4 ~cols:4 ~capacity:20.0 ~count:30 seed in
    let eps = 0.3 in
    let naive = Bounded_ufp.run ~eps ~selector:`Naive inst in
    let incr = Bounded_ufp.run ~eps ~selector:`Incremental inst in
    Alcotest.(check bool)
      (Printf.sprintf "identical traces seed %d" seed)
      true
      (naive.Bounded_ufp.trace = incr.Bounded_ufp.trace);
    Array.iteri
      (fun e ye ->
        Alcotest.(check (float 0.0)) "identical final duals" ye
          incr.Bounded_ufp.final_y.(e))
      naive.Bounded_ufp.final_y
  done

let test_selector_kinds_agree_on_threshold_pd () =
  for seed = 1 to 5 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:15 seed in
    let naive = Baselines.threshold_pd ~eps:0.3 ~selector:`Naive inst in
    let incr = Baselines.threshold_pd ~eps:0.3 ~selector:`Incremental inst in
    Alcotest.(check bool)
      (Printf.sprintf "identical solutions seed %d" seed)
      true (naive = incr)
  done

(* Pooled incremental rebuilds follow the candidate heap: a batch
   holds the group the triggering pop needs plus at most Pool.size - 1
   stale groups the heap reaches next. The pooled solve is held to at
   most Pool.size times the trees of a `Seq solve, which catches a
   return to refreshing every stale tree before each selection (22x
   the `Seq rebuilds on the 20x20 grid). Speculative batch members are
   counted, and a speculative tree invalidated before use counts as
   wasted too; a `Seq run has neither. *)
let rebuild_economics ~pool inst =
  Ufp_obs.Metrics.reset ();
  let run = Bounded_ufp.run ~eps:0.3 ~pool inst in
  let count name = Ufp_obs.Metrics.value (Ufp_obs.Metrics.counter name) in
  ( run.Bounded_ufp.solution,
    count "selector.tree_rebuilds",
    count "selector.speculative_rebuilds",
    count "selector.wasted_rebuilds" )

let check_rebuild_economics label inst =
  let seq_sol, seq_rebuilds, seq_spec, seq_wasted =
    rebuild_economics ~pool:`Seq inst
  in
  Alcotest.(check int) (label ^ ": no speculation under `Seq") 0 seq_spec;
  Alcotest.(check int) (label ^ ": no waste under `Seq") 0 seq_wasted;
  List.iter
    (fun domains ->
      Ufp_par.Pool.with_pool ~domains (fun pool ->
          let size =
            match pool with `Pool p -> Ufp_par.Pool.size p | `Seq -> 1
          in
          let sol, rebuilds, spec, wasted = rebuild_economics ~pool inst in
          let label = Printf.sprintf "%s, %d domains" label size in
          Alcotest.(check bool) (label ^ ": same solution") true (sol = seq_sol);
          if rebuilds > size * seq_rebuilds then
            Alcotest.failf "%s: %d rebuilds, `Seq needed %d" label rebuilds
              seq_rebuilds;
          if wasted > spec then
            Alcotest.failf "%s: %d wasted > %d speculative rebuilds" label
              wasted spec))
    [ 2; 3 ]

let test_selector_pooled_rebuilds_stay_lazy () =
  check_rebuild_economics "20x20 grid"
    (Instance.normalize
       (grid_instance ~rows:20 ~cols:20 ~capacity:80.0 ~count:150 1));
  let rng = Rng.create 5 in
  let g =
    Gen.rmat rng ~scale:10 ~edge_factor:8 ~capacity_lo:140.0
      ~capacity_hi:210.0 ()
  in
  check_rebuild_economics "hub RMAT"
    (Instance.normalize
       (Instance.create g (Workloads.hub_requests rng g ~count:30 ())))

(* --- Audit --- *)

module Audit = Ufp_core.Audit

let test_audit_passes_on_real_runs () =
  for seed = 1 to 5 do
    let inst = grid_instance ~capacity:15.0 ~count:40 seed in
    let run = Bounded_ufp.run ~eps:0.3 inst in
    let report = Audit.bounded_ufp_run inst run in
    Alcotest.(check bool)
      (Printf.sprintf "all checks pass seed %d" seed)
      true report.Audit.all_passed
  done

let test_audit_detects_tampering () =
  let inst = grid_instance ~capacity:15.0 ~count:20 2 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  (* Corrupt the z bookkeeping. *)
  let tampered_z = Array.copy run.Bounded_ufp.final_z in
  if Array.length tampered_z > 0 then tampered_z.(0) <- tampered_z.(0) +. 5.0;
  let tampered = { run with Bounded_ufp.final_z = tampered_z } in
  let report = Audit.bounded_ufp_run inst tampered in
  Alcotest.(check bool) "tampering detected" false report.Audit.all_passed;
  let failed =
    List.filter (fun f -> not f.Audit.passed) report.Audit.findings
  in
  Alcotest.(check bool) "z check flagged" true
    (List.exists (fun f -> f.Audit.check = "z-bookkeeping") failed)

let test_audit_detects_infeasible_solution () =
  let inst = grid_instance ~capacity:15.0 ~count:20 3 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  (* Duplicate the first allocation: no longer a valid solution. *)
  match run.Bounded_ufp.solution with
  | [] -> Alcotest.fail "expected allocations"
  | a :: _ ->
    let tampered =
      { run with Bounded_ufp.solution = a :: run.Bounded_ufp.solution }
    in
    let report = Audit.bounded_ufp_run inst tampered in
    Alcotest.(check bool) "infeasibility detected" false report.Audit.all_passed

let test_audit_pp () =
  let inst = grid_instance ~capacity:15.0 ~count:10 4 in
  let run = Bounded_ufp.run ~eps:0.3 inst in
  let s = Format.asprintf "%a" Audit.pp (Audit.bounded_ufp_run inst run) in
  Alcotest.(check bool) "renders PASS lines" true (String.length s > 50)

(* --- Rounding --- *)

module Rounding = Ufp_core.Rounding

let test_rounding_repaired_always_feasible () =
  for seed = 1 to 8 do
    let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:16 seed in
    let t = Rounding.round ~eps:0.2 ~seed inst in
    Alcotest.(check bool)
      (Printf.sprintf "repaired feasible seed %d" seed)
      true
      (Solution.is_feasible inst t.Rounding.solution);
    Alcotest.(check bool) "repair only drops" true
      (t.Rounding.value <= t.Rounding.tentative_value +. Float_tol.check_eps)
  done

let test_rounding_deterministic () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:12 3 in
  let a = Rounding.round ~seed:5 inst and b = Rounding.round ~seed:5 inst in
  Alcotest.(check (list int)) "same selection"
    (Solution.selected a.Rounding.solution)
    (Solution.selected b.Rounding.solution)

let test_rounding_tentative_flag_consistent () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:16 9 in
  let t = Rounding.round ~eps:0.2 ~seed:2 inst in
  if t.Rounding.tentative_feasible then
    (* Nothing was dropped: values agree. *)
    Alcotest.(check (float Float_tol.check_eps)) "no repair needed" t.Rounding.tentative_value
      t.Rounding.value

let test_rounding_flow_from_exact_lp () =
  (* Rounding the exact LP decomposition also repairs to feasibility. *)
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:2.0 ~count:8 4 in
  let lp = Ufp_lp.Path_lp.solve inst in
  let t = Rounding.round_flow ~flow:lp.Ufp_lp.Path_lp.flow ~eps:0.1 ~seed:7 inst in
  Alcotest.(check bool) "feasible" true
    (Solution.is_feasible inst t.Rounding.solution)

let test_rounding_validation () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:4.0 ~count:4 1 in
  Alcotest.check_raises "eps" (Invalid_argument "Rounding.round: eps must be in [0, 1)")
    (fun () -> ignore (Rounding.round ~eps:1.0 ~seed:1 inst));
  Alcotest.check_raises "trials"
    (Invalid_argument "Rounding.success_probability: trials <= 0") (fun () ->
      ignore (Rounding.success_probability ~trials:0 ~seed:1 inst))

let test_rounding_success_probability_bounds () =
  let inst = grid_instance ~rows:3 ~cols:3 ~capacity:6.0 ~count:10 5 in
  let p, frac = Rounding.success_probability ~trials:10 ~seed:3 inst in
  Alcotest.(check bool) "p in [0,1]" true (p >= 0.0 && p <= 1.0);
  Alcotest.(check bool) "fraction sane" true (frac >= 0.0 && frac <= 1.0 +. Float_tol.check_eps)

(* --- QCheck --- *)

let qcheck_online_prefix_property =
  QCheck.Test.make ~name:"online decisions ignore future arrivals" ~count:30
    QCheck.small_int (fun seed ->
      (* Run online on R, then on R extended with extra requests; the
         decisions on the common prefix must be identical — the
         defining property of an online algorithm. *)
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:10 (seed + 3) in
      let g = Instance.graph inst in
      let rng = Rng.create (seed + 900) in
      let extra = Workloads.random_requests rng g ~count:5 () in
      let extended =
        Instance.create g (Array.append (Instance.requests inst) extra)
      in
      let log_prefix inst' =
        (Online.route ~eps:0.3 inst').Online.log
        |> List.filteri (fun k _ -> k < 10)
        |> List.map (fun (e : Online.event) -> (e.Online.request, e.Online.accepted))
      in
      log_prefix inst = log_prefix extended)

let qcheck_bufp_feasible =
  QCheck.Test.make ~name:"Bounded-UFP output is always feasible" ~count:30
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:10.0 ~count:12 (seed + 1) in
      Solution.is_feasible inst (Bounded_ufp.solve ~eps:0.4 inst))

let qcheck_bufp_within_certified =
  QCheck.Test.make ~name:"value never exceeds the certified upper bound" ~count:30
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:10 (seed + 50) in
      let run = Bounded_ufp.run ~eps:0.3 inst in
      Solution.value inst run.Bounded_ufp.solution
      <= run.Bounded_ufp.certified_upper_bound +. Float_tol.loose_check_eps)

let qcheck_repeat_feasible =
  QCheck.Test.make ~name:"Bounded-UFP-Repeat output is always feasible" ~count:20
    QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:5.0 ~count:6 (seed + 9) in
      Solution.is_feasible ~repetitions:true inst (Repeat.solve ~eps:0.4 inst))

let qcheck_monotone_improvement =
  QCheck.Test.make ~name:"winners keep winning after improving their type"
    ~count:30 QCheck.small_int (fun seed ->
      let inst = grid_instance ~rows:3 ~cols:3 ~capacity:12.0 ~count:8 (seed + 70) in
      let run = Bounded_ufp.run ~eps:0.3 inst in
      match Solution.selected run.Bounded_ufp.solution with
      | [] -> true
      | winners ->
        let rng = Rng.create seed in
        let w = List.nth winners (Rng.int rng (List.length winners)) in
        let r = Instance.request inst w in
        let improved =
          Instance.with_request inst w
            (Request.with_type r
               ~demand:(r.Request.demand *. Rng.float_in rng 0.5 1.0)
               ~value:(r.Request.value *. Rng.float_in rng 1.0 3.0))
        in
        List.mem w
          (Solution.selected (Bounded_ufp.solve ~eps:0.3 improved)))

let () =
  Alcotest.run "core"
    [
      ( "bounded-ufp-validation",
        [
          Alcotest.test_case "eps" `Quick test_bufp_eps_validation;
          Alcotest.test_case "requests" `Quick test_bufp_requires_requests;
          Alcotest.test_case "normalised" `Quick test_bufp_requires_normalized;
          Alcotest.test_case "B >= 1" `Quick test_bufp_requires_b_ge_1;
        ] );
      ( "bounded-ufp",
        [
          Alcotest.test_case "feasible" `Quick test_bufp_feasible_many_seeds;
          Alcotest.test_case "allocates all when ample" `Quick
            test_bufp_allocates_all_when_ample;
          Alcotest.test_case "tight capacity" `Quick test_bufp_respects_capacity_tight;
          Alcotest.test_case "prefers density" `Quick test_bufp_prefers_value_density;
          Alcotest.test_case "certified bound >= OPT" `Quick
            test_bufp_certified_bound_dominates_exact;
          Alcotest.test_case "trace consistent" `Quick test_bufp_trace_consistent;
          Alcotest.test_case "duals grow" `Quick test_bufp_final_duals_growth;
          Alcotest.test_case "deterministic" `Quick test_bufp_deterministic;
          Alcotest.test_case "budget formula" `Quick test_bufp_budget;
          Alcotest.test_case "stops on budget" `Quick test_bufp_stops_on_budget;
          Alcotest.test_case "unroutable skipped" `Quick
            test_bufp_unroutable_requests_skipped;
          Alcotest.test_case "monotone manual" `Quick test_bufp_monotone_manual;
        ] );
      ( "bounded-ufp-repeat",
        [
          Alcotest.test_case "feasible" `Quick test_repeat_feasible;
          Alcotest.test_case "repeats requests" `Quick test_repeat_repeats;
          Alcotest.test_case "ratio certificate" `Quick test_repeat_ratio_certificate;
          Alcotest.test_case "certificate dominates value" `Quick
            test_repeat_dual_certificate_valid;
          Alcotest.test_case "validation" `Quick test_repeat_validation;
        ] );
      ( "reasonable",
        [
          Alcotest.test_case "matches Bounded-UFP" `Quick
            test_reasonable_matches_bounded_ufp;
          Alcotest.test_case "staircase ratio" `Quick test_reasonable_staircase_ratio;
          Alcotest.test_case "gadget ratio" `Quick test_reasonable_gadget_ratio;
          Alcotest.test_case "gadget optimum" `Quick test_reasonable_gadget_optimal_exists;
          Alcotest.test_case "priorities run" `Quick test_reasonable_priorities_run;
          Alcotest.test_case "saturates" `Quick test_reasonable_saturates;
          Alcotest.test_case "random tie deterministic" `Quick
            test_reasonable_random_tie_deterministic;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "greedy feasible" `Quick test_greedy_feasible;
          Alcotest.test_case "greedy order" `Quick test_greedy_order_matters;
          Alcotest.test_case "threshold-pd feasible" `Quick test_threshold_pd_feasible;
          Alcotest.test_case "threshold-pd accepts" `Quick test_threshold_pd_accepts_cheap;
          Alcotest.test_case "threshold-pd rejects" `Quick
            test_threshold_pd_rejects_expensive;
          Alcotest.test_case "rounding feasible" `Quick test_randomized_rounding_feasible;
          Alcotest.test_case "rounding deterministic" `Quick
            test_randomized_rounding_deterministic;
        ] );
      ( "online",
        [
          Alcotest.test_case "feasible" `Quick test_online_feasible;
          Alcotest.test_case "log consistent" `Quick test_online_log_consistent;
          Alcotest.test_case "order independence of feasibility" `Quick
            test_online_order_matters_but_feasible;
          Alcotest.test_case "order validation" `Quick test_online_order_validation;
          Alcotest.test_case "below offline total" `Quick
            test_online_below_offline_total;
          Alcotest.test_case "monotone per order" `Quick
            test_online_monotone_for_fixed_order;
          Alcotest.test_case "rejects worthless" `Quick test_online_rejects_worthless;
        ] );
      ( "pd-engine",
        [
          Alcotest.test_case "reproduces Bounded-UFP" `Quick
            test_engine_reproduces_bounded_ufp;
          Alcotest.test_case "reproduces Repeat" `Quick test_engine_reproduces_repeat;
          Alcotest.test_case "reproduces threshold-PD" `Quick
            test_engine_reproduces_threshold_pd;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "iteration guard" `Quick test_engine_iteration_guard;
        ] );
      ( "selector",
        [
          Alcotest.test_case "remove idempotent" `Quick
            test_selector_remove_is_idempotent;
          Alcotest.test_case "remove out of range" `Quick
            test_selector_remove_out_of_range;
          Alcotest.test_case "kinds agree on Bounded-UFP" `Quick
            test_selector_kinds_agree_on_bounded_ufp;
          Alcotest.test_case "kinds agree on threshold-PD" `Quick
            test_selector_kinds_agree_on_threshold_pd;
          Alcotest.test_case "pooled rebuilds stay lazy" `Quick
            test_selector_pooled_rebuilds_stay_lazy;
        ] );
      ( "audit",
        [
          Alcotest.test_case "passes on real runs" `Quick
            test_audit_passes_on_real_runs;
          Alcotest.test_case "detects tampering" `Quick test_audit_detects_tampering;
          Alcotest.test_case "detects infeasibility" `Quick
            test_audit_detects_infeasible_solution;
          Alcotest.test_case "pp" `Quick test_audit_pp;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "repaired feasible" `Quick
            test_rounding_repaired_always_feasible;
          Alcotest.test_case "deterministic" `Quick test_rounding_deterministic;
          Alcotest.test_case "tentative flag" `Quick
            test_rounding_tentative_flag_consistent;
          Alcotest.test_case "exact LP flow" `Quick test_rounding_flow_from_exact_lp;
          Alcotest.test_case "validation" `Quick test_rounding_validation;
          Alcotest.test_case "success probability" `Quick
            test_rounding_success_probability_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_bufp_feasible;
            qcheck_bufp_within_certified;
            qcheck_repeat_feasible;
            qcheck_monotone_improvement;
            qcheck_online_prefix_property;
          ] );
    ]
