(* Timers, order statistics and process-level readings shared by the
   end-to-end and the per-layer phases. Every timer here wraps a call
   into a public library function from the outside; nothing in the
   library is instrumented for the benchmark's sake. *)

module Stats = Ufp_prelude.Stats
module Profile = Ufp_obs.Profile

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [time f] is [f ()] and its wall time in seconds (CLOCK_MONOTONIC). *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let percentile xs p = Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0

(* Words allocated by the calling domain while [f] runs: minor-heap
   words plus words allocated directly on the major heap. Promotions
   are minor words that moved, so they are not counted twice. Minor
   words come from [Gc.minor_words], which reads the live allocation
   pointer; the minor count of [Gc.counters] only advances at
   collections, so it would drift with their timing. In OCaml 5 both
   are per domain: pool workers' allocations are not included. *)
let alloc_words f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let v = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (v, minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0)))

(* The process's resident-set high-water mark (VmHWM), in MB. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM line in /proc/self/status"
        | Some line when String.starts_with ~prefix line ->
          let kb =
            String.sub line (String.length prefix)
              (String.length line - String.length prefix)
            |> String.trim
            |> String.split_on_char ' '
            |> List.hd
            |> float_of_string
          in
          kb /. 1024.0
        | Some _ -> scan ()
      in
      scan ())

(* The profile phase of a span name, or an all-zero phase when the
   span never closed during the traced region. *)
let phase (p : Profile.t) name =
  match List.find_opt (fun ph -> String.equal ph.Profile.p_name name) p.phases with
  | Some ph -> ph
  | None ->
    {
      Profile.p_name = name;
      p_count = 0;
      p_total_ns = 0.0;
      p_self_ns = 0.0;
      p_minor_w = 0.0;
      p_promoted_w = 0.0;
      p_major_w = 0.0;
    }

(* [traced ~gc f] runs [f] with the span tracer recording and returns
   its result, its wall time and the folded profile. *)
let traced ~gc f =
  Ufp_obs.Trace.start ~capacity:(1 lsl 21) ~gc ();
  let v, s =
    Fun.protect ~finally:Ufp_obs.Trace.stop (fun () -> time f)
  in
  let p = Profile.of_trace () in
  Ufp_obs.Trace.clear ();
  (v, s, p)

(* --- host speed ---

   The 2-core host this benchmark was written on is shared: its speed
   drifts by tens of percent within a minute and halves at times, as
   other tenants take the cores' cycles or fill the shared last-level
   cache; a tenant busy on one core slows a j2 operation, which needs
   both, and leaves a j1 one alone. Raw wall times of runs minutes
   apart therefore disagree by more than any change worth detecting.
   An end-to-end run also times, every quarter second, fixed work that
   calls nothing in the library, once on the calling domain and once
   spread over the pool's two domains, in two halves: a walk along a
   random cycle through a 64 MB array, a chain of dependent loads that
   misses the private caches as the solver's heap and graph walks do
   on a big graph, and binary searches for pseudo-random keys in a
   sorted array that stays in the core's own cache, branchy work like
   the solver's heaps. Both arrays are read-only and live outside the
   OCaml heap, and the work allocates nothing, so the collector's
   outstanding work never lands in its time and the collector never
   scans the arrays. A run's times are scaled to the speed at which
   the work takes its reference time: by the one-domain timings for
   set-up and j1 operations, by the two-domain ones for j2 operations.
   The raw medians and both factors are in the provenance line. Of the
   metrics, only [peak_rss_mb] sees the arrays, and it subtracts
   [calibration_mb]. *)

let ints n = Bigarray.(Array1.create int c_layout n)

let cycle_slots = 1 lsl 23

(* Sattolo's shuffle of the identity: one cycle through every slot,
   built in place so that no heap copy inflates the high-water mark. *)
let make_cycle () =
  let rng = Random.State.make [| 42 |] in
  let next = ints cycle_slots in
  for i = 0 to cycle_slots - 1 do
    next.{i} <- i
  done;
  for i = cycle_slots - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = next.{i} in
    next.{i} <- next.{j};
    next.{j} <- t
  done;
  next

let sorted_slots = 16_384

let make_sorted () =
  let a = ints sorted_slots in
  for i = 0 to sorted_slots - 1 do
    a.{i} <- 3 * i
  done;
  a

(* The cycle and the sorted array, built by the first calibration, on
   the calling domain. *)
let arrays = ref None

let calibration_arrays () =
  match !arrays with
  | Some x -> x
  | None ->
    let x = (make_cycle (), make_sorted ()) in
    arrays := Some x;
    x

(* The resident megabytes the arrays add, once they exist. *)
let calibration_mb () =
  if Option.is_some !arrays then
    float_of_int (8 * (cycle_slots + sorted_slots)) /. (1024.0 *. 1024.0)
  else 0.0

(* [steps] steps of the walk along [next] from slot [start]. *)
let walk next ~start ~steps =
  let i = ref start in
  for _ = 1 to steps do
    i := Bigarray.Array1.unsafe_get next !i
  done;
  ignore (Sys.opaque_identity !i)

(* [steps] binary searches in [a] for keys drawn by a xorshift
   generator seeded with [start]. *)
let search a ~start ~steps =
  let x = ref (start lor 1) and found = ref 0 in
  for _ = 1 to steps do
    x := !x lxor (!x lsl 13) land 0xFFFF_FFFF;
    x := !x lxor (!x lsr 17);
    x := !x lxor (!x lsl 5) land 0xFFFF_FFFF;
    let key = !x mod (3 * sorted_slots) in
    let lo = ref 0 and hi = ref sorted_slots in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Bigarray.Array1.unsafe_get a mid <= key then lo := mid else hi := mid
    done;
    found := !found + !lo
  done;
  ignore (Sys.opaque_identity !found)

let piece_steps = 25_000

(* Four pieces' worth of work on each of the two domains. *)
let pieces = 8

(* The halves' median times on the 2-core host of the baseline, at a
   quiet moment: the speeds that scaled times are quoted at. *)
let reference_walk_s = 0.0045

let reference_search_s = 0.0080

type calibration = {
  one_walk : float;  (** seconds for the walk on the calling domain *)
  one_search : float;  (** seconds for the searches on the calling domain *)
  two_walk : float;  (** twice the walk over the pool; nan without one *)
  two_search : float;  (** twice the searches over the pool; nan without one *)
}

let calibrations = ref []

let last_calibration = ref 0L

(* The pool the two-domain timings run on, once there is one. *)
let calibration_pool = ref None

(* Twice the calling domain's [work], in [pieces] pieces over pool [p]. *)
let time_on_pool p work =
  snd
    (time (fun () ->
         Ufp_par.Pool.parallel_for_dynamic ~pool:(`Pool p) ~n:pieces (fun k ->
             work ~start:(k * 1_000_003) ~steps:(2 * piece_steps / pieces))))

let calibrate () =
  let next, a = calibration_arrays () in
  let (), one_walk = time (fun () -> walk next ~start:0 ~steps:piece_steps) in
  let (), one_search = time (fun () -> search a ~start:0 ~steps:piece_steps) in
  let two_walk, two_search =
    match !calibration_pool with
    | None -> (nan, nan)
    | Some p -> (time_on_pool p (walk next), time_on_pool p (search a))
  in
  calibrations := { one_walk; one_search; two_walk; two_search } :: !calibrations;
  last_calibration := now_ns ()

let calibrate_if_due () = if seconds_since !last_calibration >= 0.25 then calibrate ()

type domains = One | Two

(* The factor that turns this run's wall times on [domains] into
   reference-speed times: below 1 while the host runs slow. Work whose
   working set fits in a core's own cache ([cache_resident]) is scaled
   by the searches alone: when other tenants take cycles, they slow it
   and the searches alike but the walk, which waits on memory, less.
   Other work is scaled by both halves. *)
let speed_factor domains ~cache_resident =
  let walk, search =
    match domains with
    | One -> ((fun c -> c.one_walk), fun c -> c.one_search)
    | Two -> ((fun c -> c.two_walk), fun c -> c.two_search)
  in
  (* Spreading over the pool costs its hand-offs too. *)
  let overhead = match domains with One -> 1.0 | Two -> 1.25 in
  let med f = median (List.filter Float.is_finite (List.map f !calibrations)) in
  if cache_resident then overhead *. reference_search_s /. med search
  else overhead *. (reference_walk_s +. reference_search_s) /. med (fun c -> walk c +. search c)
