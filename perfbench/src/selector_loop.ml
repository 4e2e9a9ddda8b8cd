(* Algorithm 1 driven through the public Selector API, so the selection
   step and the dual-update announcement can be timed call by call
   from outside the library. The loop repeats Bounded_ufp.run's float
   operations in the same order; the caller checks that the resulting
   (request, path, alpha) sequence equals the library run's trace
   before it reports any of these timings. *)

module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Selector = Ufp_core.Selector
module Bounded_ufp = Ufp_core.Bounded_ufp

type result = {
  selections : (int * int list * float) list;  (** in iteration order *)
  select_s : float list;  (** wall time of each [Selector.select] call *)
  update_path_s : float;  (** total wall time of [Selector.update_path] *)
  weight_reads : int;  (** calls of the weight closure (snapshot builds x m) *)
}

let run ~eps inst =
  let g = Instance.graph inst in
  let m = Graph.n_edges g in
  let b = Graph.min_capacity g in
  let budget = Bounded_ufp.budget ~eps ~b in
  let y = Array.init m (fun e -> 1.0 /. Graph.capacity g e) in
  let d1 = ref (float_of_int m) in
  let reads = ref 0 in
  let weight e =
    incr reads;
    y.(e)
  in
  let sel = Selector.create ~weights:(Selector.Uniform weight) inst in
  let selections = ref [] and select_s = ref [] and update_s = ref 0.0 in
  let continue = ref true in
  while !continue do
    if Selector.is_empty sel || !d1 > budget then continue := false
    else begin
      let choice, s = Measure.time (fun () -> Selector.select sel) in
      select_s := s :: !select_s;
      match choice with
      | None -> continue := false
      | Some { Selector.request = i; path; alpha } ->
        let r = Instance.request inst i in
        List.iter
          (fun e ->
            let c = Graph.capacity g e in
            let old = y.(e) in
            y.(e) <- old *. exp (eps *. b *. r.Request.demand /. c);
            d1 := !d1 +. (c *. (y.(e) -. old)))
          path;
        let (), u = Measure.time (fun () -> Selector.update_path sel path) in
        update_s := !update_s +. u;
        Selector.remove sel i;
        selections := (i, path, alpha) :: !selections
    end
  done;
  {
    selections = List.rev !selections;
    select_s = List.rev !select_s;
    update_path_s = !update_s;
    weight_reads = !reads;
  }
