(* The benchmark's workloads and their set-up.

   Every workload is generated from the run's seed alone, and every one
   meets the Theorem 3.1 premise B >= ln m / eps^2 at eps = 0.3, so the
   primal-dual loop runs as the paper analyses it. Requests are served
   closed loop: one operation at a time, from one process. *)

module Rng = Ufp_prelude.Rng
module Gen = Ufp_graph.Generators
module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Workloads = Ufp_instance.Workloads
module Io = Ufp_instance.Io
module Pool = Ufp_par.Pool
module Request = Ufp_instance.Request

let eps = 0.3

(* Size of the pool the j2 operations run on. *)
let domains = 2

type t = {
  name : string;
  why : string;
  generate : Rng.t -> Instance.t;
  auction : Request.t array -> Request.t array;
      (* The requests the payments operation prices, as an auction of
         their own. A critical-value payment costs ~20 whole re-solves
         per winner, so on the two solve workloads only a few requests
         fit a run; they still show what one probe costs on that
         graph. *)
  cache_resident : bool;
      (* Whether the workload's graph fits in a core's own cache, so
         that its speed follows the cache-resident half of the
         host-speed calibration alone (see Measure). *)
}

(* The first [k] requests from the source of request 0. Requests of one
   source share one shortest-path tree, so every probe re-solve does
   the same tree work and the operation's cost does not hinge on
   whether two hubs' trees happen to overlap. *)
let first_of_hub k requests =
  let src = requests.(0).Request.src in
  Array.of_list
    (List.filteri
       (fun i _ -> i < k)
       (List.filter (fun r -> r.Request.src = src) (Array.to_list requests)))

let rmat_hubs =
  {
    name = "rmat-hubs";
    why =
      "131k-edge RMAT, 30 requests from 8 hubs: few trees reused over \
       ~30 iterations, so the SSSP kernel and the O(m) weight snapshot \
       dominate";
    generate =
      (fun rng ->
        let g =
          Gen.rmat rng ~scale:13 ~edge_factor:16 ~capacity_lo:140.0
            ~capacity_hi:210.0 ()
        in
        Instance.create g (Workloads.hub_requests rng g ~count:30 ()));
    auction = first_of_hub 2;
    cache_resident = false;
  }

let grid_random =
  {
    name = "grid-random";
    why =
      "20x20 grid, 150 random requests from ~125 sources: many small \
       trees churned by every dual update, so the selector heap, \
       invalidation and pooled rebuilds dominate";
    generate =
      (fun rng ->
        let g = Gen.grid ~rows:20 ~cols:20 ~capacity:80.0 in
        Instance.create g (Workloads.random_requests rng g ~count:150 ()));
    auction = (fun requests -> Array.sub requests 0 8);
    cache_resident = true;
  }

let abilene_payments =
  {
    name = "abilene-payments";
    why =
      "Abilene backbone, 200 contended requests from 2 hubs: the budget \
       runs out, so critical-value bisections over ~1 ms re-solves and \
       their pool fan-out dominate";
    generate =
      (fun rng ->
        let g = Gen.abilene ~capacity:30.0 in
        Instance.create g
          (Workloads.hub_requests rng g ~count:200 ~sources:2 ()));
    auction = Fun.id;
    cache_resident = true;
  }

let all = [ rmat_hubs; grid_random; abilene_payments ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* One set-up of a workload, as a user pays it before the first
   operation: generate from the seed, write the instance file and read
   it back, normalise, build the first CSR adjacency (and the view the
   shortest-path kernels traverse), and spawn the j2 pool. *)
type setup = {
  inst : Instance.t;
  pay_inst : Instance.t;
  pool : Pool.t;
  raw : Instance.t;  (** as generated, before the file round trip *)
  loaded : Instance.t;  (** as read back from the file *)
  generate_s : float;
  io_s : float;
  csr_s : float;
  spawn_s : float;
  total_s : float;
}

let setup w ~seed ~file =
  let t0 = Measure.now_ns () in
  let raw, generate_s = Measure.time (fun () -> w.generate (Rng.create seed)) in
  let loaded, io_s =
    Measure.time (fun () ->
        Io.save file raw;
        match Io.load file with
        | Ok inst -> inst
        | Error msg -> failwith ("instance round trip: " ^ msg))
  in
  let inst = Instance.normalize loaded in
  let g = Instance.graph inst in
  let (), csr_s =
    Measure.time (fun () ->
        ignore (Graph.csr g);
        ignore (Graph.csr_view g))
  in
  let pool, spawn_s = Measure.time (fun () -> Pool.create ~domains ()) in
  let total_s = Measure.seconds_since t0 in
  let pay_inst = Instance.create g (w.auction (Instance.requests inst)) in
  { inst; pay_inst; pool; raw; loaded; generate_s; io_s; csr_s; spawn_s; total_s }
