(* The standing benchmark: one workload, one seed, one process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--commit REV] [--nproc N]

   --trace 0 measures the end-to-end metrics with the span tracer off;
   --trace 1 is the separate run that measures every layer. Either
   way, the last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   records the run's provenance. README.md defines every workload and
   metric. *)

open Perfbench
module Graph = Ufp_graph.Graph
module Instance = Ufp_instance.Instance
module Solution = Ufp_instance.Solution
module Bounded_ufp = Ufp_core.Bounded_ufp
module Ufp_mechanism = Ufp_mech.Ufp_mechanism
module Pool = Ufp_par.Pool
module Float_tol = Ufp_prelude.Float_tol
module Harness = Ufp_experiments.Harness

let eps = Workload.eps

(* --- operations attempted and failed --- *)

let attempted = ref 0

let failed = ref 0

let failures = ref []

(* Count one operation and the properties it failed. *)
let record what errs =
  incr attempted;
  if errs <> [] then begin
    incr failed;
    let msg = what ^ ": " ^ String.concat "; " errs in
    failures := msg :: !failures;
    Printf.eprintf "FAILED %s\n%!" msg
  end

(* Run an operation, then check its result with its timer stopped.
   Only a result that passes is returned for measurement; an exception
   is a failed operation too. *)
let attempt what op check =
  match op () with
  | exception e ->
    record what [ Printexc.to_string e ];
    None
  | v ->
    let errs = check v in
    record what errs;
    if errs = [] then Some v else None

(* Run [op] repeatedly until [budget] seconds have passed (at least
   once); [op] returns the sample to keep, or None when it failed. *)
let repeat_for ~budget op =
  let t0 = Measure.now_ns () in
  let rec go acc =
    let acc = match op () with Some x -> x :: acc | None -> acc in
    if Measure.seconds_since t0 >= budget then List.rev acc else go acc
  in
  go []

(* --- the timed operations --- *)

let solve ~pool inst =
  Measure.alloc_words (fun () ->
      Measure.time (fun () -> Bounded_ufp.run ~eps ~pool inst))

(* What [ufp payments] does: one forward solve names the winners and
   carries the warm-start hints, then every winner's critical value is
   bisected, fanned out over [pool]. *)
let payments ?(algo = fun inst -> Bounded_ufp.solve ~eps inst) ~pool inst =
  let run = Bounded_ufp.run ~eps inst in
  let winners = Array.make (Instance.n_requests inst) false in
  List.iter
    (fun a -> winners.(a.Solution.request) <- true)
    run.Bounded_ufp.solution;
  let hints = Ufp_mechanism.acceptance_thresholds inst run in
  let pay =
    Ufp_mechanism.payments ~rel_tol:Float_tol.payment_rel_tol
      ~warm:(`Hinted (fun i -> hints.(i)))
      ~pool algo inst
  in
  (winners, pay)

let timed_payments ~pool inst =
  Measure.alloc_words (fun () -> Measure.time (fun () -> payments ~pool inst))

(* The reference outputs of one instance: its first j1 result of each
   kind. Every other result on the instance, j1 or j2, must equal it
   bit for bit. *)
type refs = {
  mutable run : Bounded_ufp.run option;
  mutable pay : float array option;
}

let no_refs () = { run = None; pay = None }

let check_solve inst refs ~j1 (run : Bounded_ufp.run) =
  Check.solve inst run
  @
  match refs.run with
  | None when j1 ->
    refs.run <- Some run;
    []
  | None -> [ "no j1 reference to compare with" ]
  | Some r ->
    Check.same_solution ~reference:r.Bounded_ufp.solution run.Bounded_ufp.solution

let check_payments inst refs ~j1 (winners, pay) =
  Check.payments inst ~winners pay
  @
  match refs.pay with
  | None when j1 ->
    refs.pay <- Some pay;
    []
  | None -> [ "no j1 reference to compare with" ]
  | Some r -> Check.same_payments ~reference:r pay

(* An instance of the run: its set-up and its reference outputs. *)
type instance = { s : Workload.setup; refs : refs }

(* The end-to-end operations; each yields its (seconds, words) sample.
   They come in pairs, j1 and j2 of one kind. The j1 operation cycles
   through the run's instances, sample by sample, so that its metric
   averages over all of them; the j2 one runs on the instance the j1
   one ran on last, so that it always has a j1 reference there. A
   sample carries the index of its instance. *)
let sample o = Option.map (fun ((_, t), words) -> (t, words)) o

let pair (instances : instance array) op =
  let k = ref (-1) in
  let at j1 =
    let i = max 0 !k mod Array.length instances in
    Option.map (fun x -> (i, x)) (op instances.(i) ~j1)
  in
  ( (fun () ->
      incr k;
      at true),
    fun () -> at false )

let solve_ops instances ~pool =
  pair instances (fun x ~j1 ->
      sample
        (attempt
           (if j1 then "solve_j1" else "solve_j2")
           (fun () -> solve ~pool:(if j1 then `Seq else pool) x.s.inst)
           (fun ((run, _), _) -> check_solve x.s.inst x.refs ~j1 run)))

let payments_ops instances ~pool =
  pair instances (fun x ~j1 ->
      sample
        (attempt
           (if j1 then "payments_j1" else "payments_j2")
           (fun () -> timed_payments ~pool:(if j1 then `Seq else pool) x.s.pay_inst)
           (fun ((r, _), _) -> check_payments x.s.pay_inst x.refs ~j1 r)))

(* Run [ops] interleaved for [seconds], so that each metric samples
   the whole window instead of one slice of it: this host's speed
   drifts over seconds. Every operation runs once, in list order; from
   then on, the next one is the furthest behind its share of the time
   used so far. An operation's share is proportional to the square
   root of its mean duration, but at least [min_share] of the largest:
   equal shares would leave a dear operation few samples, equal sample
   counts would give a cheap one, whose samples scatter more, too few,
   and the floor keeps a cheap one's samples spread over the window
   rather than bunched into the moments after the dear ones. An
   operation that starts inside the window runs to its end. Returns
   each operation's samples, in order. *)
let min_share = 0.2

let interleave ~seconds ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let used = Array.make n 0.0 in
  let count = Array.make n 0 in
  let samples = Array.make n [] in
  let start = Measure.now_ns () in
  let share i = sqrt (used.(i) /. float_of_int count.(i)) in
  let behind i =
    if count.(i) = 0 then neg_infinity
    else
      let floor = ref 0.0 in
      for j = 0 to n - 1 do
        if count.(j) > 0 then floor := Float.max !floor (min_share *. share j)
      done;
      used.(i) /. Float.max (share i) !floor
  in
  let rec go () =
    let next = ref 0 in
    for i = 1 to n - 1 do
      if behind i < behind !next then next := i
    done;
    let i = !next in
    if count.(i) = 0 || Measure.seconds_since start < seconds then begin
      Measure.calibrate_if_due ();
      let t0 = Measure.now_ns () in
      Option.iter (fun x -> samples.(i) <- x :: samples.(i)) (ops.(i) ());
      count.(i) <- count.(i) + 1;
      used.(i) <- used.(i) +. Measure.seconds_since t0;
      go ()
    end
  in
  go ();
  Array.to_list (Array.map List.rev samples)

(* --- set-up --- *)

(* The number of distinct instances a run draws from its seed, and
   the generator seed of instance k. *)
let n_instances = 3

let sub_seed ~seed k = (seed * n_instances) + k

(* Set the workload up several times: at least [n_instances] times,
   more while the set-ups add up to under a second (at most 15), so
   that the reported median is steady for small workloads too. Set-up
   k draws instance k mod [n_instances]. Returns every set-up, in
   order, or None when one failed; only the last one's pool is left
   running. *)
let setups w ~seed ~file =
  let rec go acc k elapsed =
    Measure.calibrate_if_due ();
    let s =
      attempt "setup"
        (fun () -> Workload.setup w ~seed:(sub_seed ~seed (k mod n_instances)) ~file)
        (fun (s : Workload.setup) ->
          Check.fail_if
            (not (Instance.meets_bound s.inst ~eps))
            "the instance misses the Theorem 3.1 premise B >= ln m / eps^2"
          @ Check.fail_if
              (k < n_instances
              && not
                   (String.equal
                      (Ufp_instance.Io.to_string s.raw)
                      (Ufp_instance.Io.to_string s.loaded)))
              "the instance file does not read back as written")
    in
    match s with
    | None ->
      List.iter (fun (s : Workload.setup) -> Pool.shutdown s.pool) acc;
      None
    | Some s ->
      let elapsed = elapsed +. s.total_s in
      if k + 1 >= n_instances && (elapsed >= 1.0 || k + 1 >= 15) then Some (List.rev (s :: acc))
      else begin
        Pool.shutdown s.pool;
        go (s :: acc) (k + 1) elapsed
      end
  in
  go [] 0 0.0

(* --- output --- *)

(* The shortest decimal that reads back as [x]: every digit measured,
   none invented. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let short = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string short) x then short else Printf.sprintf "%.17g" x

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* A metric with no finite value is a failed measurement: counted,
   and reported as 0 so the result line stays valid JSON. *)
let metric (name, unit, value) =
  let value =
    if Float.is_finite value then value
    else begin
      record name [ Printf.sprintf "no finite value (%g)" value ];
      0.0
    end
  in
  (name, json_obj [ ("value", json_num value); ("unit", json_str unit) ])

(* The provenance field counting the samples behind each median. *)
let samples_field counts =
  [ ("samples", json_obj (List.map (fun (k, n) -> (k, string_of_int n)) counts)) ]

let mb words = words /. 1e6

let ms s = s *. 1e3

let us s = s *. 1e6

(* --- --trace 0: end-to-end --- *)

let end_to_end ~seconds ~cache_resident setups (instances : instance array) =
  let pool = `Pool instances.(0).s.pool in
  (* The high-water mark before the first j2 operation: set-up and one
     j1 solve only, for comparison with [peak_rss_mb]. *)
  let rss_before_j2 = ref nan in
  let solve_j1, solve_j2 = solve_ops instances ~pool in
  let payments_j1, payments_j2 = payments_ops instances ~pool in
  let j1, j2, p1, p2 =
    match
      interleave ~seconds
        [
          solve_j1;
          (fun () ->
            if Float.is_nan !rss_before_j2 then
              rss_before_j2 := Measure.peak_rss_mb () -. Measure.calibration_mb ();
            solve_j2 ());
          payments_j1;
          payments_j2;
        ]
    with
    | [ j1; j2; p1; p2 ] -> (j1, j2, p1, p2)
    | _ -> assert false
  in
  let rss = Measure.peak_rss_mb () -. Measure.calibration_mb () in
  Measure.calibrate ();
  let one = Measure.speed_factor One ~cache_resident
  and two = Measure.speed_factor Two ~cache_resident in
  let ops =
    [ ("solve_j1_s", j1); ("solve_j2_s", j2); ("payments_j1_s", p1); ("payments_j2_s", p2) ]
  in
  List.iter
    (fun (k, l) ->
      let ts = List.map (fun (_, (t, _)) -> t) l in
      Printf.eprintf "%s: n=%d min=%.4fs median=%.4fs max=%.4fs\n" k (List.length l)
        (Measure.percentile ts 0.0) (Measure.median ts) (Measure.percentile ts 100.0))
    ops;
  (* An operation's value: the median of its samples on each instance,
     averaged over the instances, so that which instance happened to
     get one sample more does not move it. *)
  let per_instance f l =
    let meds =
      List.filter_map
        (fun k ->
          match List.filter_map (fun (i, x) -> if i = k then Some (f x) else None) l with
          | [] -> None
          | xs -> Some (Measure.median xs))
        (List.init n_instances Fun.id)
    in
    List.fold_left ( +. ) 0.0 meds /. float_of_int (List.length meds)
  in
  let raw =
    ("setup_s", Measure.median (List.map (fun (x : Workload.setup) -> x.total_s) setups))
    :: List.map (fun (k, l) -> (k, per_instance fst l)) ops
  in
  (* Allocation repeats exactly from op to op on one instance. *)
  let words l = mb (per_instance snd l) in
  (* The median over the instances of the j1 reference run's ratio. *)
  let ratio =
    Measure.median
      (List.filter_map
         (fun x ->
           Option.map
             (fun (r : Bounded_ufp.run) ->
               r.certified_upper_bound /. Solution.value x.s.inst r.solution)
             x.refs.run)
         (Array.to_list instances))
  in
  ( [
      ("speed_factor_one", json_num one);
      ("speed_factor_two", json_num two);
      ("calibrations", string_of_int (List.length !Measure.calibrations));
      ("raw_medians_s", json_obj (List.map (fun (k, v) -> (k, json_num v)) raw));
      ("peak_rss_mb_before_j2", json_num !rss_before_j2);
    ]
    @ samples_field
        (("setup_s", List.length setups) :: List.map (fun (k, l) -> (k, List.length l)) ops),
    List.map
      (fun (k, v) ->
        (k, "s", v *. if String.ends_with ~suffix:"j2_s" k then two else one))
      raw
    @ [
        ("solve_j1_alloc_mw", "Mwords", words j1);
        ("payments_j1_alloc_mw", "Mwords", words p1);
        ("peak_rss_mb", "MB", rss);
        ("certified_ratio", "ratio", ratio);
      ] )

(* --- --trace 1: per layer --- *)

let per_layer ~seconds setups (x : instance) =
  let s = x.s and refs = x.refs in
  let inst = s.inst in
  let pool = `Pool s.pool in
  let med f = Measure.median (List.map f setups) in
  (* j1 counters and the untraced/traced pairs behind the tracing
     overhead; span self times come from the traced runs. *)
  let j1_counts = ref [] in
  let pairs =
    repeat_for ~budget:(seconds /. 3.0) (fun () ->
        let plain =
          attempt "solve_j1"
            (fun () -> Harness.counters_during (fun () -> solve ~pool:`Seq inst))
            (fun (((run, _), _), _) -> check_solve inst refs ~j1:true run)
        in
        let traced =
          attempt "solve_j1_traced"
            (fun () -> Measure.traced ~gc:false (fun () -> Bounded_ufp.run ~eps inst))
            (fun (run, _, _) -> check_solve inst refs ~j1:true run)
        in
        match (plain, traced) with
        | Some (((_, t), _), deltas), Some (_, t', prof) ->
          if !j1_counts = [] then j1_counts := deltas;
          Some (t, t', prof)
        | _ -> None)
  in
  let j1 = Harness.counter_delta !j1_counts in
  let overhead =
    Measure.median (List.map (fun (t, t', _) -> (t' /. t) -. 1.0) pairs)
  in
  let self name =
    Measure.median
      (List.map (fun (_, _, p) -> (Measure.phase p name).p_self_ns /. 1e9) pairs)
  in
  let rebuild_words =
    match
      attempt "solve_j1_gc_traced"
        (fun () -> Measure.traced ~gc:true (fun () -> Bounded_ufp.run ~eps inst))
        (fun (run, _, _) -> check_solve inst refs ~j1:true run)
    with
    | Some (_, _, p) ->
      let ph = Measure.phase p "selector.rebuild" in
      ph.p_minor_w +. ph.p_major_w
    | None -> nan
  in
  let j2_counts =
    match
      attempt "solve_j2"
        (fun () -> Harness.counters_during (fun () -> solve ~pool inst))
        (fun (((run, _), _), _) -> check_solve inst refs ~j1:false run)
    with
    | Some (_, d) -> d
    | None -> []
  in
  let j2 = Harness.counter_delta j2_counts in
  (* The Selector-driven Algorithm 1: its timings count only once its
     selections equal the library run's. *)
  let loop_errs d =
    match refs.run with
    | None -> [ "no j1 reference trace" ]
    | Some r ->
      Check.fail_if
        (not (Check.same_selections d.Selector_loop.selections (Check.selections r)))
        "the Selector-driven selections differ from Bounded_ufp.run's trace"
  in
  let loop = attempt "selector loop" (fun () -> Selector_loop.run ~eps inst) loop_errs in
  let select_s = match loop with Some d -> d.Selector_loop.select_s | None -> [] in
  let or_nan f = match loop with Some d -> f d | None -> nan in
  (* Kernel replay at the final duals of the j1 reference run. *)
  let replay =
    match refs.run with
    | None -> None
    | Some r -> (
      match Replay.run ~pool:s.pool ~final_y:r.Bounded_ufp.final_y inst with
      | exception e ->
        record "kernel replay" [ Printexc.to_string e ];
        None
      | rp ->
        for k = 1 to rp.Replay.trees do
          record "kernel tree"
            (Check.fail_if (k <= rp.Replay.bad_trees) "differs from the wide Dijkstra tree")
        done;
        Some rp)
  in
  let rp f = match replay with Some r -> f r | None -> nan in
  (* Payments: a wrapped algo counts and times every probe. *)
  let probe_times = ref [] in
  let probes = Atomic.make 0 and probe_ns = Atomic.make 0 in
  let wrapped ~keep inst' =
    let t0 = Measure.now_ns () in
    let sol = Bounded_ufp.solve ~eps inst' in
    let dt = Int64.to_int (Int64.sub (Measure.now_ns ()) t0) in
    Atomic.incr probes;
    ignore (Atomic.fetch_and_add probe_ns dt);
    if keep then probe_times := float_of_int dt /. 1e9 :: !probe_times;
    sol
  in
  let pay_j1 =
    match
      attempt "payments_j1_traced"
        (fun () ->
          Harness.counters_during (fun () ->
              Measure.traced ~gc:false (fun () ->
                  payments ~algo:(wrapped ~keep:true) ~pool:`Seq s.pay_inst)))
        (fun ((r, _, _), _) -> check_payments s.pay_inst refs ~j1:true r)
    with
    | Some (((winners, _), _, prof), deltas) ->
      let n_win = Array.fold_left (fun k b -> if b then k + 1 else k) 0 winners in
      Some (n_win, prof, deltas, Atomic.get probes)
    | None -> None
  in
  Atomic.set probes 0;
  Atomic.set probe_ns 0;
  let pay_j2 =
    attempt "payments_j2"
      (fun () ->
        Harness.counters_during (fun () ->
            Measure.time (fun () ->
                payments ~algo:(wrapped ~keep:false) ~pool s.pay_inst)))
      (fun ((r, _), _) -> check_payments s.pay_inst refs ~j1:false r)
  in
  let busy =
    match pay_j2 with
    | Some ((_, wall), _) ->
      float_of_int (Atomic.get probe_ns) /. 1e9
      /. (float_of_int Workload.domains *. wall)
    | None -> nan
  in
  let pool_counts name =
    let from = function Some (_, d) -> Harness.counter_delta d name | None -> 0 in
    float_of_int (Harness.counter_delta j2_counts name + from pay_j2)
  in
  let pj f = match pay_j1 with Some x -> f x | None -> nan in
  let fi = float_of_int in
  let metrics =
    [
      ("graph.generate_s", "s", med (fun x -> x.Workload.generate_s));
      ("graph.csr_build_s", "s", med (fun x -> x.Workload.csr_s));
      ("instance.io_roundtrip_s", "s", med (fun x -> x.Workload.io_s));
      ("pool.spawn_ms", "ms", ms (med (fun x -> x.Workload.spawn_s)));
      ("pool.steals", "count", pool_counts "pool.steals");
      ("pool.steal_failures", "count", pool_counts "pool.steal_failures");
      ("payments.busy_frac_j2", "ratio", busy);
      ("snapshot.builds", "count", fi (j1 "dijkstra.snapshot_builds"));
      ("snapshot.weight_reads", "count", or_nan (fun d -> fi d.Selector_loop.weight_reads));
      ("snapshot.build_ms", "ms", rp (fun r -> ms (Measure.median r.Replay.snapshot_build_s)));
      ("sssp.dijkstra_tree_ms", "ms", rp (fun r -> ms (Measure.median r.Replay.dijkstra_s)));
      ( "sssp.dijkstra_mrelax_s",
        "Mrelax/s",
        rp (fun r ->
            fi r.Replay.relaxations
            /. List.fold_left ( +. ) 0.0 r.Replay.dijkstra_s
            /. 1e6) );
      ("sssp.packed_tree_ms", "ms", rp (fun r -> ms (Measure.median r.Replay.packed_s)));
      ("sssp.delta_j1_tree_ms", "ms", rp (fun r -> ms (Measure.median r.Replay.delta_j1_s)));
      ("sssp.delta_j2_tree_ms", "ms", rp (fun r -> ms (Measure.median r.Replay.delta_j2_s)));
      ("sssp.tree_mismatches", "count", rp (fun r -> fi r.Replay.mismatches));
      ("selector.select_s", "s", or_nan (fun _ -> List.fold_left ( +. ) 0.0 select_s));
      ("selector.select_p50_us", "us", or_nan (fun _ -> us (Measure.percentile select_s 50.0)));
      ("selector.select_p90_us", "us", or_nan (fun _ -> us (Measure.percentile select_s 90.0)));
      ("selector.update_path_s", "s", or_nan (fun d -> d.Selector_loop.update_path_s));
      ("selector.tree_rebuilds_j1", "count", fi (j1 "selector.tree_rebuilds"));
      ("selector.tree_rebuilds_j2", "count", fi (j2 "selector.tree_rebuilds"));
      ( "selector.rebuild_yield_j2",
        "ratio",
        fi (j1 "selector.tree_rebuilds") /. fi (j2 "selector.tree_rebuilds") );
      ("selector.stale_pops", "count", fi (j1 "selector.stale_pops"));
      ("selector.heap_pops", "count", fi (j1 "selector.heap_pops"));
      ("selector.rebuild_self_s", "s", self "selector.rebuild");
      ("selector.rebuild_alloc_mw", "Mwords", mb rebuild_words);
      ("pd.iterations", "count", fi (j1 "pd.iterations"));
      ("pd.loop_self_s", "s", self "bounded_ufp.run");
      ("payments.probes", "count", pj (fun (_, _, _, n) -> fi n));
      ("payments.probes_per_winner", "count", pj (fun (w, _, _, n) -> fi n /. fi w));
      ("payments.probe_p50_ms", "ms", ms (Measure.percentile !probe_times 50.0));
      ("payments.probe_p99_ms", "ms", ms (Measure.percentile !probe_times 99.0));
      ( "payments.warm_start_hits",
        "count",
        pj (fun (_, _, d, _) -> fi (Harness.counter_delta d "mech.warm_start_hits")) );
      ( "payments.bisection_self_s",
        "s",
        pj (fun (_, p, _, _) -> (Measure.phase p "mech.critical_value").p_self_ns /. 1e9) );
      ("obs.trace_overhead_frac", "ratio", overhead);
    ]
  in
  ( samples_field
      [
      ("setup", List.length setups);
      ("overhead_pairs", List.length pairs);
      ("loop_selects", List.length select_s);
      ("replay_sources", (match replay with Some r -> r.Replay.sources | None -> 0));
      ("payment_probes_j1", List.length !probe_times);
    ],
    metrics )

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let commit = ref "unknown" and nproc = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "REV source revision, for provenance");
      ("--nproc", Arg.Set_int nproc, "N online processors, for provenance");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (%s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  in
  if !seed < 0 || !seconds < 1 || not (!trace = 0 || !trace = 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let dir = Filename.concat "perfbench" "_work" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "%s-%d.inst" w.name !seed) in
  for _ = 1 to 5 do
    Measure.calibrate ()
  done;
  let setups =
    match setups w ~seed:!seed ~file with
    | Some l -> l
    | None ->
      prerr_endline "set-up failed; no result";
      exit 1
  in
  (* The run's instances, all sharing the pool of the last set-up. *)
  let pool = (List.nth setups (List.length setups - 1)).pool in
  let instances =
    Array.init n_instances (fun k -> { s = { (List.nth setups k) with pool }; refs = no_refs () })
  in
  let s = instances.(0).s in
  (* From here on, calibrations also time the pool's two domains. *)
  Measure.calibration_pool := Some pool;
  for _ = 1 to 5 do
    Measure.calibrate ()
  done;
  let seconds = float_of_int !seconds in
  let run_fields, metrics =
    if !trace = 0 then end_to_end ~seconds ~cache_resident:w.cache_resident setups instances
    else per_layer ~seconds setups instances.(0)
  in
  Pool.shutdown pool;
  (try Sys.remove file with Sys_error _ -> ());
  let metrics = List.map metric metrics in
  let g = Instance.graph s.inst in
  let provenance =
    json_obj
      [
        ( "provenance",
          json_obj
            ([
              ("workload", json_str w.name);
              ("why", json_str w.why);
              ("seed", string_of_int !seed);
              ( "instance_seeds",
                "["
                ^ String.concat ", "
                    (List.init n_instances (fun k -> string_of_int (sub_seed ~seed:!seed k)))
                ^ "]" );
              ("seconds", json_num seconds);
              ("trace", string_of_int !trace);
              ("git_commit", json_str !commit);
              ("ocaml_version", json_str Sys.ocaml_version);
              ("nproc", string_of_int !nproc);
              ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
              ("pool_domains", string_of_int Workload.domains);
              ("eps", json_num eps);
              ("vertices", string_of_int (Graph.n_vertices g));
              ("edges", string_of_int (Graph.n_edges g));
              ("requests", string_of_int (Instance.n_requests s.inst));
              ("payments_requests", string_of_int (Instance.n_requests s.pay_inst));
              ("bound_b", json_num (Instance.bound s.inst));
              ( "premise_ln_m_over_eps2",
                json_num (log (float_of_int (Graph.n_edges g)) /. (eps *. eps)) );
            ]
            @ run_fields
            @ [
              ("failures", "[" ^ String.concat ", " (List.rev_map json_str !failures) ^ "]");
            ]) );
      ]
  in
  print_endline provenance;
  print_endline
    (json_obj
       [
         ("correct", if !failed = 0 then "true" else "false");
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("metrics", json_obj metrics);
       ])
