(* Tests for the observability layer (lib/obs/) and its laws.

   Unit coverage: registry idempotence and kind checking, snapshot
   diff/reset algebra, histogram bucketing, ring-buffer tracing and
   the balance guarantee of the JSONL exporter.

   Laws (ISSUE 3):
     - determinism: two runs of Pd_engine.execute on the same instance
       produce structurally equal metric snapshots;
     - engine invariance (QCheck): `Naive and `Incremental runs, on
       `Seq and on a `Pool, agree exactly on the algorithm-level pd.*
       counters and differ only in selector cache/heap accounting; for
       the naive engine even the rebuild/snapshot counts must match
       between `Seq and `Pool (pooling it is scheduling-only), with
       selector.par_rebuilds accounting exactly the pooled share.  The
       pooled incremental engine rebuilds lazily in heap-driven
       batches: beyond the tree the next pop needs it may rebuild up
       to pool-size - 1 further stale trees the heap reaches next
       (selector.speculative_rebuilds), some of which a dual update
       invalidates before use (selector.wasted_rebuilds, never more
       than the speculative count); a `Seq run has neither. *)

module Metrics = Ufp_obs.Metrics
module Trace = Ufp_obs.Trace
module Profile = Ufp_obs.Profile
module Openmetrics = Ufp_obs.Openmetrics
module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Gen = Ufp_graph.Generators
module Workloads = Ufp_instance.Workloads
module Pd_engine = Ufp_core.Pd_engine
module Rng = Ufp_prelude.Rng
module Float_tol = Ufp_prelude.Float_tol

let check_float = Alcotest.(check (float Float_tol.check_eps))

(* --- metrics unit tests --- *)

let test_registration_idempotent () =
  let a = Metrics.counter "test.idem" in
  let b = Metrics.counter "test.idem" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "same cell" 2 (Metrics.value a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Ufp_obs.Metrics: \"test.idem\" is already a counter")
    (fun () -> ignore (Metrics.gauge "test.idem"))

let test_counter_ops () =
  let c = Metrics.counter "test.counter_ops" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c)

let test_gauge_ops () =
  let g = Metrics.gauge "test.gauge_ops" in
  Metrics.gauge_set g 1.5;
  Metrics.gauge_add g 2.0;
  check_float "set + add" 3.5 (Metrics.gauge_value g)

let test_histogram_buckets () =
  let h = Metrics.histogram "test.hist" in
  (* bucket 0 = [0,1), bucket 1 = [1,2), bucket 2 = [2,4), 3 = [4,8) *)
  List.iter (Metrics.observe h) [ 0.0; 0.5; 1.0; 1.9; 2.0; 3.0; 4.0; -1.0 ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.hist" s.Metrics.histograms in
  Alcotest.(check int) "count" 8 hs.Metrics.h_count;
  check_float "sum" 11.4 hs.Metrics.h_sum;
  Alcotest.(check (list (pair int int)))
    "buckets" [ (0, 3); (1, 2); (2, 2); (3, 1) ] hs.Metrics.h_buckets;
  Alcotest.(check string) "label 0" "[0,1)" (Metrics.bucket_label 0);
  Alcotest.(check string) "label 2" "[2,4)" (Metrics.bucket_label 2)

(* NaN observations are quarantined in a dedicated cell: they must
   not poison the sum, the count, or any bucket, and the diff algebra
   must carry the quarantine count like any other cell. *)
let test_histogram_nan_quarantine () =
  let h = Metrics.histogram "test.hist_nan" in
  List.iter (Metrics.observe h) [ 1.0; Float.nan; 2.0; Float.nan; Float.nan ];
  let s = Metrics.snapshot () in
  let hs = List.assoc "test.hist_nan" s.Metrics.histograms in
  Alcotest.(check int) "count excludes NaN" 2 hs.Metrics.h_count;
  check_float "sum excludes NaN" 3.0 hs.Metrics.h_sum;
  Alcotest.(check int) "NaNs quarantined" 3 hs.Metrics.h_nan;
  Alcotest.(check (list (pair int int)))
    "buckets exclude NaN" [ (1, 1); (2, 1) ] hs.Metrics.h_buckets;
  let before = Metrics.snapshot () in
  Metrics.observe h Float.nan;
  Metrics.observe h 8.0;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  let dh = List.assoc "test.hist_nan" delta.Metrics.histograms in
  Alcotest.(check int) "diff isolates the window's NaN" 1 dh.Metrics.h_nan;
  Alcotest.(check int) "diff counts only the real sample" 1 dh.Metrics.h_count

let test_snapshot_diff_reset () =
  let c = Metrics.counter "test.diff" in
  Metrics.incr c;
  let before = Metrics.snapshot () in
  Metrics.add c 5;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  Alcotest.(check int) "delta counts the window only" 5
    (List.assoc "test.diff" delta.Metrics.counters);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c);
  let s = Metrics.snapshot () in
  Alcotest.(check int) "still registered" 0
    (List.assoc "test.diff" s.Metrics.counters)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_renderings () =
  Metrics.reset ();
  let c = Metrics.counter "test.render" in
  Metrics.add c 7;
  let s = Metrics.snapshot () in
  let json = Metrics.to_json s in
  Alcotest.(check bool) "json mentions the counter" true
    (contains json "\"test.render\": 7");
  let table = Metrics.to_table ~title:"t" s in
  Alcotest.(check string) "table titled" "t" (Ufp_prelude.Table.title table);
  let hq = Metrics.histogram "test.render_nan" in
  Metrics.observe hq Float.nan;
  let s = Metrics.snapshot () in
  let md = Ufp_prelude.Table.to_markdown (Metrics.to_table ~title:"t" s) in
  Alcotest.(check bool) "table surfaces the quarantine" true
    (contains md "nan=1");
  Alcotest.(check bool) "json carries the quarantine" true
    (contains (Metrics.to_json s) "\"nan\": 1")

(* The Prometheus text exposition: sanitized names, counter [_total]
   samples, cumulative buckets closed by [le="+Inf"], the NaN
   quarantine surfacing as its own counter family, final [# EOF].
   bin/openmetrics_check.ml re-validates the same dump end-to-end in
   the runtest CLI smoke and in CI. *)
let test_openmetrics_render () =
  Metrics.reset ();
  Alcotest.(check string) "names sanitized" "test_om_counter"
    (Openmetrics.sanitize_name "test.om/counter");
  let c = Metrics.counter "test.om/counter" in
  Metrics.add c 3;
  let h = Metrics.histogram "test.om_hist" in
  List.iter (Metrics.observe h) [ 0.5; 3.0; Float.nan ];
  let text = Openmetrics.render (Metrics.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dump contains %S" needle) true
        (contains text needle))
    [
      "# TYPE test_om_counter counter";
      "test_om_counter_total 3";
      "# TYPE test_om_hist histogram";
      "test_om_hist_bucket{le=\"1\"} 1";
      "test_om_hist_bucket{le=\"+Inf\"} 2";
      "test_om_hist_count 2";
      "test_om_hist_nan_samples_total 1";
    ];
  let n = String.length text in
  Alcotest.(check bool) "ends with # EOF" true
    (n >= 6 && String.sub text (n - 6) 6 = "# EOF\n")

(* --- trace unit tests --- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_phase lines ph =
  List.length
    (List.filter (fun l -> contains l (Printf.sprintf "\"ph\": \"%s\"" ph)) lines)

let test_trace_off_by_default () =
  Trace.stop ();
  Alcotest.(check bool) "off" false (Trace.is_on ());
  Trace.instant "ignored";
  Alcotest.(check int) "nothing recorded" 0 (Trace.n_events ());
  Alcotest.(check int) "with_span still runs f" 3
    (Trace.with_span "ignored" (fun () -> 3))

let test_trace_spans_balance () =
  Trace.start ();
  Trace.with_span "outer" (fun () ->
      Trace.instant "tick";
      Trace.with_span "inner" (fun () -> ()));
  (try Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.stop ();
  Alcotest.(check int) "2 B + 2 E + 1 i + 1 B/E pair" 7 (Trace.n_events ());
  let path = Filename.temp_file "ufp-test-trace" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Alcotest.(check int) "7 lines" 7 (List.length lines);
  Alcotest.(check int) "begins" 3 (count_phase lines "B");
  Alcotest.(check int) "ends match" 3 (count_phase lines "E");
  Alcotest.(check int) "instants" 1 (count_phase lines "i");
  Trace.clear ()

let test_trace_ring_overflow_stays_balanced () =
  Trace.start ~capacity:8 ();
  for _ = 1 to 20 do
    Trace.with_span "span" (fun () -> ())
  done;
  Trace.stop ();
  Alcotest.(check int) "ring full" 8 (Trace.n_events ());
  Alcotest.(check bool) "drops counted" true (Trace.n_dropped () > 0);
  let path = Filename.temp_file "ufp-test-ring" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  (* The exporter must skip any E whose B was overwritten. *)
  Alcotest.(check int) "balanced after wrap" (count_phase lines "B")
    (count_phase lines "E");
  Trace.clear ()

(* --- profiler unit tests --- *)

(* Nested spans fold into self-vs-total exactly: the outer phase's
   self time excludes the inner span it wraps, and with [~gc:true]
   the allocation columns attribute the same way. *)
let test_profile_phases () =
  (* Small arrays, many times: minor-heap allocations, so the minor
     word columns are exercised (one big array would go straight to
     the major heap). *)
  let churn () =
    for _ = 1 to 200 do
      ignore (Sys.opaque_identity (Array.make 100 0.0))
    done
  in
  Trace.start ~gc:true ();
  Trace.with_span "prof.outer" (fun () ->
      churn ();
      Trace.with_span "prof.inner" (fun () -> churn ()));
  Trace.with_span "prof.outer" (fun () -> ());
  Trace.stop ();
  let p = Profile.of_trace () in
  Trace.clear ();
  Alcotest.(check bool) "gc sampled" true p.Profile.gc_sampled;
  let find name =
    List.find (fun ph -> ph.Profile.p_name = name) p.Profile.phases
  in
  let outer = find "prof.outer" and inner = find "prof.inner" in
  Alcotest.(check int) "outer folded both spans" 2 outer.Profile.p_count;
  Alcotest.(check int) "inner folded once" 1 inner.Profile.p_count;
  Alcotest.(check bool) "self excludes the child" true
    (outer.Profile.p_self_ns <= outer.Profile.p_total_ns);
  Alcotest.(check bool) "outer total covers the inner span" true
    (outer.Profile.p_total_ns >= inner.Profile.p_total_ns);
  Alcotest.(check bool) "inner allocation not billed to outer self" true
    (inner.Profile.p_minor_w > 0.0);
  let json = Profile.to_json p in
  Alcotest.(check bool) "schema stamped" true
    (contains json "\"schema\": \"ufp-profile/1\"");
  Alcotest.(check bool) "gc flag serialized" true
    (contains json "\"gc_sampled\": true");
  let table = Profile.to_table ~title:"p" p in
  Alcotest.(check string) "table titled" "p" (Ufp_prelude.Table.title table)

(* Without [~gc:true] the profiler still folds wall time but must say
   the allocation columns are not sampled. *)
let test_profile_without_gc () =
  Trace.start ();
  Trace.with_span "prof.plain" (fun () -> ());
  Trace.stop ();
  let p = Profile.of_trace () in
  Trace.clear ();
  Alcotest.(check bool) "gc not sampled" false p.Profile.gc_sampled;
  let ph = List.find (fun ph -> ph.Profile.p_name = "prof.plain") p.Profile.phases in
  check_float "no words attributed" 0.0 ph.Profile.p_minor_w

(* --- domain safety (the Ufp_par contract) --- *)

module Pool = Ufp_par.Pool

(* Counter, gauge and histogram updates racing from 3 domains must
   lose nothing: integer RMWs commute, and the float CAS loop adds
   integer-valued summands exactly. *)
let test_metrics_domain_safe () =
  let c = Metrics.counter "test.par_counter" in
  let g = Metrics.gauge "test.par_gauge" in
  let h = Metrics.histogram "test.par_hist" in
  let before_c = Metrics.value c and before_g = Metrics.gauge_value g in
  let before_h =
    (List.assoc "test.par_hist" (Metrics.snapshot ()).Metrics.histograms)
      .Metrics.h_count
  in
  let n = 3000 in
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for ~pool ~chunk:7 ~n (fun i ->
          Metrics.incr c;
          Metrics.gauge_add g 2.0;
          Metrics.observe h (float_of_int (i mod 5))));
  Alcotest.(check int) "no lost increments" (before_c + n) (Metrics.value c);
  check_float "no lost gauge adds"
    (before_g +. (2.0 *. float_of_int n))
    (Metrics.gauge_value g);
  let hs = List.assoc "test.par_hist" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check int) "no lost observations" (before_h + n) hs.Metrics.h_count

(* [gauge_set] is documented for quiescent moments: after parallel
   [gauge_add]s have joined, a set must override every shard's
   deposits, not just the setting domain's. *)
let test_gauge_set_overrides_all_shards () =
  let g = Metrics.gauge "test.par_gauge_set" in
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for ~pool ~n:300 (fun _ -> Metrics.gauge_add g 1.0));
  check_float "parallel adds all landed" 300.0 (Metrics.gauge_value g);
  Metrics.gauge_set g 7.5;
  check_float "set overrides every shard" 7.5 (Metrics.gauge_value g);
  Metrics.gauge_add g 0.5;
  check_float "adds resume on top of the set" 8.0 (Metrics.gauge_value g)

(* --- the sharded-envelope law (QCheck) ---

   A snapshot taken WHILE writer tasks hammer a sharded counter may
   straggle — per-domain cells are plain stores — but it must never
   leave the [writes finished, writes started] envelope, and
   successive totals seen by one reader must be monotone (shard cells
   are coherent and only ever incremented).  After the pool joins,
   the total is exact: the pool's completion Atomics give the
   coordinating domain happens-before over every shard store.  One
   pool task snapshots in a loop; the envelope bounds are Atomics
   bumped around each write. *)
let envelope_law =
  QCheck.Test.make ~count:8
    ~name:"concurrent snapshots stay inside the write envelope"
    QCheck.(pair (int_range 200 2000) (int_range 1 3))
    (fun (per_task, writers) ->
      let c = Metrics.counter "test.envelope" in
      let base = Metrics.value c in
      let started = Atomic.make 0 and finished = Atomic.make 0 in
      let writers_done = Atomic.make 0 in
      let violations = Atomic.make 0 in
      let last = Atomic.make 0 in
      Pool.with_pool ~domains:2 (fun pool ->
          ignore
            (* chunk:1 so the reader task can never share a claimed
               chunk with a writer it would then spin-wait on. *)
            (Pool.parallel_mapi ~pool ~chunk:1 ~n:(writers + 1) (fun task ->
                 if task = 0 then
                   (* Reader: snapshot until every writer has joined.
                      With 2 pool participants the writer tasks drain
                      on the other domain, so this loop terminates. *)
                   while Atomic.get writers_done < writers do
                     let lo = Atomic.get finished in
                     let s = Metrics.snapshot () in
                     let hi = Atomic.get started in
                     let total =
                       List.assoc "test.envelope" s.Metrics.counters - base
                     in
                     if total < lo || total > hi then Atomic.incr violations;
                     if total < Atomic.get last then Atomic.incr violations;
                     Atomic.set last total;
                     Domain.cpu_relax ()
                   done
                 else begin
                   for _ = 1 to per_task do
                     Atomic.incr started;
                     Metrics.incr c;
                     Atomic.incr finished
                   done;
                   Atomic.incr writers_done
                 end)));
      if Atomic.get violations > 0 then
        QCheck.Test.fail_reportf "%d envelope violations"
          (Atomic.get violations);
      (* Post-join exactness: nothing lost, nothing duplicated. *)
      if Metrics.value c - base <> writers * per_task then
        QCheck.Test.fail_reportf "post-join total %d, wanted %d"
          (Metrics.value c - base) (writers * per_task);
      true)

(* Concurrent spans from several domains: every event carries its
   recording domain's tid, the export balances per tid, and the
   locked timestamping keeps ts globally monotone. *)
let test_trace_domain_safe () =
  Trace.start ();
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for ~pool ~n:60 (fun i ->
          Trace.with_span "par.outer" (fun () ->
              Trace.instant "par.tick";
              Trace.with_span "par.inner" (fun () -> ignore (i * i)))));
  Trace.stop ();
  Alcotest.(check int) "5 events per index" (60 * 5) (Trace.n_events ());
  let path = Filename.temp_file "ufp-test-par-trace" ".jsonl" in
  Trace.save_jsonl path;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  Sys.remove path;
  Trace.clear ();
  Alcotest.(check int) "all events exported" (60 * 5) (List.length lines);
  Alcotest.(check int) "balanced" (count_phase lines "B") (count_phase lines "E");
  (* Depth per tid, and global ts monotonicity, exactly what
     bin/trace_check.ml enforces on the CLI path. *)
  let depths = Hashtbl.create 8 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun line ->
      let field key =
        match String.index_opt line ':' with
        | None -> None
        | Some _ ->
          let marker = Printf.sprintf "\"%s\": " key in
          let rec find from =
            if from + String.length marker > String.length line then None
            else if String.sub line from (String.length marker) = marker then
              Some (from + String.length marker)
            else find (from + 1)
          in
          find 0
      in
      let num_at pos =
        let stop = ref pos in
        while
          !stop < String.length line
          && (match line.[!stop] with
             | '0' .. '9' | '.' | '-' | 'e' -> true
             | _ -> false)
        do
          incr stop
        done;
        float_of_string (String.sub line pos (!stop - pos))
      in
      let tid =
        match field "tid" with
        | Some pos -> int_of_float (num_at pos)
        | None -> Alcotest.fail "event without tid"
      in
      let ts =
        match field "ts" with
        | Some pos -> num_at pos
        | None -> Alcotest.fail "event without ts"
      in
      if ts < !last_ts then Alcotest.fail "ts regressed across domains";
      last_ts := ts;
      let d = Option.value ~default:0 (Hashtbl.find_opt depths tid) in
      if contains line "\"ph\": \"B\"" then Hashtbl.replace depths tid (d + 1)
      else if contains line "\"ph\": \"E\"" then begin
        if d = 0 then Alcotest.fail "unmatched E on a tid";
        Hashtbl.replace depths tid (d - 1)
      end)
    lines;
  Hashtbl.iter
    (fun tid d ->
      if d <> 0 then Alcotest.failf "tid %d left %d spans open" tid d)
    depths

(* --- the determinism law --- *)

let grid_instance ~rows ~cols ~capacity ~count seed =
  let rng = Rng.create seed in
  let g = Gen.grid ~rows ~cols ~capacity in
  Instance.create g (Workloads.random_requests rng g ~count ())

let snapshot_of_run ?(selector = `Incremental) ?(pool = `Seq) config inst =
  Metrics.reset ();
  let run = Pd_engine.execute ~selector ~pool config inst in
  (Metrics.snapshot (), run)

let test_metrics_deterministic () =
  let inst = grid_instance ~rows:5 ~cols:5 ~capacity:45.0 ~count:60 7 in
  let config = Pd_engine.algorithm_1 ~eps:0.3 ~b:45.0 in
  let s1, r1 = snapshot_of_run config inst in
  let s2, r2 = snapshot_of_run config inst in
  Alcotest.(check bool) "same solution" true
    (r1.Pd_engine.solution = r2.Pd_engine.solution);
  Alcotest.(check bool) "identical snapshots" true (s1 = s2)

(* --- the engine-invariance law (QCheck) --- *)

(* pd.* is decided by the algorithm; selector.* is cache economics and
   legitimately differs between engines (dijkstra.* differs too: the
   naive engine recomputes trees it could have cached), and between
   `Seq and `Pool for the incremental engine, whose pooled batches
   rebuild some trees speculatively. *)
let algorithm_level name =
  String.length name >= 3 && String.sub name 0 3 = "pd."

let pd_counters snapshot =
  List.filter (fun (n, _) -> algorithm_level n) snapshot.Metrics.counters

let engine_agreement_law =
  QCheck.Test.make ~count:30
    ~name:"engines agree on pd.* metrics across `Seq and `Pool"
    QCheck.(
      triple (int_range 3 5) (int_range 3 5) (int_range 1 1000))
    (fun (rows, cols, seed) ->
      let m = (rows * (cols - 1)) + (cols * (rows - 1)) in
      let eps = 0.3 in
      let capacity = Float.ceil (log (float_of_int m) /. (eps *. eps)) in
      let inst = grid_instance ~rows ~cols ~capacity ~count:25 seed in
      let config = Pd_engine.algorithm_1 ~eps ~b:capacity in
      Pool.with_pool ~domains:2 (fun pool ->
          let s_naive, r_naive = snapshot_of_run ~selector:`Naive config inst in
          let s_incr, r_incr =
            snapshot_of_run ~selector:`Incremental config inst
          in
          let s_naive_p, r_naive_p =
            snapshot_of_run ~selector:`Naive ~pool config inst
          in
          let s_incr_p, r_incr_p =
            snapshot_of_run ~selector:`Incremental ~pool config inst
          in
          let counter name s = List.assoc name s.Metrics.counters in
          List.iter
            (fun (label, s, r) ->
              if r.Pd_engine.solution <> r_naive.Pd_engine.solution then
                QCheck.Test.fail_reportf "solutions differ (%s)" label;
              if pd_counters s <> pd_counters s_naive then
                QCheck.Test.fail_reportf "pd.* counters differ (%s)" label;
              if
                List.assoc "pd.d1_growth" s.Metrics.gauges
                <> List.assoc "pd.d1_growth" s_naive.Metrics.gauges
              then QCheck.Test.fail_reportf "pd.d1_growth differs (%s)" label;
              if
                List.assoc "pd.path_edges" s.Metrics.histograms
                <> List.assoc "pd.path_edges" s_naive.Metrics.histograms
              then QCheck.Test.fail_reportf "pd.path_edges differs (%s)" label)
            [
              ("incremental/seq", s_incr, r_incr);
              ("naive/pool", s_naive_p, r_naive_p);
              ("incremental/pool", s_incr_p, r_incr_p);
            ];
          (* And the counters that SHOULD differ do: the naive engine never
             touches the candidate heap, pooled or not. *)
          let heap s = counter "selector.heap_pops" s in
          if heap s_naive <> 0 || heap s_naive_p <> 0 then
            QCheck.Test.fail_report "naive engine used the candidate heap";
          if r_incr.Pd_engine.iterations > 0 && heap s_incr = 0 then
            QCheck.Test.fail_report "incremental engine bypassed the heap";
          (* Pooling the naive engine is scheduling-only: it rebuilds the
             exact same set of trees (and hence builds the same
             snapshots) as the sequential run, just on worker domains. *)
          if
            counter "selector.tree_rebuilds" s_naive_p
            <> counter "selector.tree_rebuilds" s_naive
          then
            QCheck.Test.fail_report
              "pooled naive rebuilt a different tree set than seq";
          if
            counter "dijkstra.snapshot_builds" s_naive_p
            <> counter "dijkstra.snapshot_builds" s_naive
          then
            QCheck.Test.fail_report
              "pooled naive built a different snapshot count than seq";
          (* selector.par_rebuilds accounts exactly the pooled rebuilds:
             zero in `Seq runs, everything in a pooled naive run. *)
          if
            counter "selector.par_rebuilds" s_naive <> 0
            || counter "selector.par_rebuilds" s_incr <> 0
          then QCheck.Test.fail_report "seq run counted par_rebuilds";
          if
            counter "selector.par_rebuilds" s_naive_p
            <> counter "selector.tree_rebuilds" s_naive_p
          then
            QCheck.Test.fail_report
              "pooled naive rebuild not fully accounted as par_rebuilds";
          (* Speculation only exists in pooled incremental batches, and
             a tree can only be wasted after it was speculated. *)
          let spec s = counter "selector.speculative_rebuilds" s
          and wasted s = counter "selector.wasted_rebuilds" s in
          List.iter
            (fun (label, s) ->
              if spec s <> 0 || wasted s <> 0 then
                QCheck.Test.fail_reportf "%s run speculated" label)
            [
              ("naive/seq", s_naive);
              ("incremental/seq", s_incr);
              ("naive/pool", s_naive_p);
            ];
          if wasted s_incr_p > spec s_incr_p then
            QCheck.Test.fail_report "more wasted than speculative rebuilds";
          if spec s_incr_p >= max 1 (counter "selector.tree_rebuilds" s_incr_p)
          then QCheck.Test.fail_report "every pooled rebuild was speculative";
          true))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "counter ops" `Quick test_counter_ops;
          Alcotest.test_case "gauge ops" `Quick test_gauge_ops;
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "NaN observations quarantined" `Quick
            test_histogram_nan_quarantine;
          Alcotest.test_case "snapshot diff and reset" `Quick
            test_snapshot_diff_reset;
          Alcotest.test_case "table and json renderings" `Quick test_renderings;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_openmetrics_render;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "spans balance in export" `Quick
            test_trace_spans_balance;
          Alcotest.test_case "ring overflow stays balanced" `Quick
            test_trace_ring_overflow_stays_balanced;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested spans split self from total" `Quick
            test_profile_phases;
          Alcotest.test_case "gc columns honest when unsampled" `Quick
            test_profile_without_gc;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "metrics lose no updates across domains" `Quick
            test_metrics_domain_safe;
          Alcotest.test_case "gauge_set overrides all shards" `Quick
            test_gauge_set_overrides_all_shards;
          Alcotest.test_case "trace tags and balances per domain" `Quick
            test_trace_domain_safe;
          QCheck_alcotest.to_alcotest envelope_law;
        ] );
      ( "laws",
        [
          Alcotest.test_case "metric snapshots are deterministic" `Quick
            test_metrics_deterministic;
          QCheck_alcotest.to_alcotest engine_agreement_law;
        ] );
    ]
