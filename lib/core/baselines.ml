module Graph = Ufp_graph.Graph
module Dijkstra = Ufp_graph.Dijkstra
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Rng = Ufp_prelude.Rng
module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace

let capacity_slack = Ufp_prelude.Float_tol.capacity_slack

(* Shared pd.* catalogue — see Pd_engine. *)
let m_runs = Metrics.counter "pd.runs"

let m_iterations = Metrics.counter "pd.iterations"

let m_dual_updates = Metrics.counter "pd.dual_updates"

(* Rejection counting moved from pd.* to selector.*: since weight
   snapshots, the closure below runs once per edge per snapshot build
   (selector cache economics), not once per Dijkstra relaxation, so
   its count is no longer selection-engine-invariant. *)
let m_residual_rejections = Metrics.counter "selector.residual_rejections"

let h_path_edges = Metrics.histogram "pd.path_edges"

(* Route requests one by one, in the given index order, each on a
   fewest-hop path among edges with residual capacity for its demand. *)
let route_in_order inst order =
  let g = Instance.graph inst in
  let residual = Array.init (Graph.n_edges g) (fun e -> Graph.capacity g e) in
  let allocate acc i =
    let r = Instance.request inst i in
    let d = r.Request.demand in
    let weight e = if residual.(e) +. capacity_slack >= d then 1.0 else infinity in
    match Dijkstra.shortest_path g ~weight ~src:r.Request.src ~dst:r.Request.dst with
    | Some (len, path) when len < infinity ->
      List.iter (fun e -> residual.(e) <- residual.(e) -. d) path;
      { Solution.request = i; path } :: acc
    | Some _ | None -> acc
  in
  List.rev (Array.fold_left allocate [] order)

let sorted_indices inst cmp =
  let order = Array.init (Instance.n_requests inst) Fun.id in
  Array.sort
    (fun a b ->
      let c = cmp (Instance.request inst a) (Instance.request inst b) in
      if c <> 0 then c else compare a b)
    order;
  order

let greedy_by_density inst =
  let by_density a b =
    Float.compare (b.Request.value /. b.Request.demand) (a.Request.value /. a.Request.demand)
  in
  route_in_order inst (sorted_indices inst by_density)

let greedy_by_value inst =
  let by_value a b = Float.compare b.Request.value a.Request.value in
  route_in_order inst (sorted_indices inst by_value)

let threshold_pd ?(eps = 0.1) ?(selector = `Incremental) ?(pool = `Seq) inst =
  if not (eps > 0.0 && eps <= 1.0) then
    invalid_arg "Baselines.threshold_pd: eps must be in (0, 1]";
  if not (Instance.is_normalized inst) then
    invalid_arg "Baselines.threshold_pd: instance must be normalised";
  let g = Instance.graph inst in
  let b = Graph.min_capacity g in
  if b < 1.0 then invalid_arg "Baselines.threshold_pd: requires B >= 1";
  Metrics.incr m_runs;
  Trace.with_span "baselines.threshold_pd" @@ fun () ->
  let m = Graph.n_edges g in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  let residual = Array.init m (fun e -> Graph.capacity g e) in
  let sel =
    Selector.create ~kind:selector ~pool
      ~weights:
        (Selector.Per_demand
           (fun ~demand e ->
             if residual.(e) +. capacity_slack < demand then begin
               Metrics.incr m_residual_rejections;
               infinity
             end
             else y.(e)))
      inst
  in
  let solution = ref [] in
  let continue = ref true in
  while !continue do
    if Selector.is_empty sel then continue := false
    else begin
      match Selector.select sel with
      | Some { Selector.request = i; path; alpha } when alpha <= 1.0 ->
        Metrics.incr m_iterations;
        Metrics.observe h_path_edges (float_of_int (List.length path));
        let r = Instance.request inst i in
        List.iter
          (fun e ->
            Metrics.incr m_dual_updates;
            residual.(e) <- residual.(e) -. r.Request.demand;
            y.(e) <-
              y.(e) *. exp (eps *. b *. r.Request.demand /. Graph.capacity g e))
          path;
        Selector.update_path sel path;
        Selector.remove sel i;
        solution := { Solution.request = i; path } :: !solution
      | Some _ | None -> continue := false
    end
  done;
  List.rev !solution

let randomized_rounding ?(eps = 0.1) ~seed inst =
  if not (eps >= 0.0 && eps < 1.0) then
    invalid_arg "Baselines.randomized_rounding: eps must be in [0, 1)";
  let lp = Ufp_lp.Mcf.solve ~eps:(Float.max eps 0.05) inst in
  let g = Instance.graph inst in
  let rng = Rng.create seed in
  (* Group the fractional decomposition by request. *)
  let by_request = Hashtbl.create 16 in
  List.iter
    (fun (pf : Ufp_lp.Mcf.path_flow) ->
      let cur =
        Option.value ~default:[]
          (Hashtbl.find_opt by_request pf.Ufp_lp.Mcf.pf_request)
      in
      Hashtbl.replace by_request pf.Ufp_lp.Mcf.pf_request
        ((pf.Ufp_lp.Mcf.pf_path, pf.Ufp_lp.Mcf.pf_amount) :: cur))
    lp.Ufp_lp.Mcf.flow;
  (* Tentative selection: request r with probability (1 - eps) x_r. *)
  let tentative = ref [] in
  let requests_sorted =
    Hashtbl.fold (fun i paths acc -> (i, paths) :: acc) by_request []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (i, paths) ->
      let x_r = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 paths in
      if x_r > 0.0 && Rng.float rng 1.0 < (1.0 -. eps) *. x_r then begin
        (* Draw a path proportionally to its fractional amount. *)
        let u = Rng.float rng x_r in
        let rec draw acc = function
          | [] ->
            ((assert false)
            [@lint.allow "R4" "unreachable: u < x_r, the sum of path amounts"])
          | [ (p, _) ] -> p
          | (p, a) :: rest -> if u < acc +. a then p else draw (acc +. a) rest
        in
        tentative := (i, draw 0.0 paths) :: !tentative
      end)
    requests_sorted;
  (* Alteration pass: admit in seeded random order, dropping overflows. *)
  let arr = Array.of_list !tentative in
  Rng.shuffle rng arr;
  let residual = Array.init (Graph.n_edges g) (fun e -> Graph.capacity g e) in
  let admit acc (i, path) =
    let d = (Instance.request inst i).Request.demand in
    if List.for_all (fun e -> residual.(e) +. capacity_slack >= d) path then begin
      List.iter (fun e -> residual.(e) <- residual.(e) -. d) path;
      { Solution.request = i; path } :: acc
    end
    else acc
  in
  List.rev (Array.fold_left admit [] arr)
