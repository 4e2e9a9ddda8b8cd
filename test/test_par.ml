(* Tests for Ufp_par: the work-stealing domain pool behind the
   parallel payment engine, and the Chase–Lev deque under it.

   Unit coverage: exactly-once index execution, parallel_mapi slot
   placement, pool reuse across jobs, worker-less (size 1) pools,
   empty jobs, exception propagation with the pool surviving,
   shutdown semantics, the with_jobs/jobs_from_env CLI conveniences,
   deque ordering (owner LIFO, thief FIFO) and a 3-domain
   exactly-once hammer over [Pool.submit].  The end-to-end bitwise
   payment laws live in test_mech.ml. *)

module Pool = Ufp_par.Pool
module Deque = Ufp_par.Deque
module Metrics = Ufp_obs.Metrics

(* Shared across cases: the tests exercise reuse anyway, and on a
   single-core host repeated spawn/join is the slow part. *)
let pool3 = lazy (Pool.create ~domains:3 ())

let () =
  at_exit (fun () ->
      if Lazy.is_val pool3 then Pool.shutdown (Lazy.force pool3))

let test_create_invalid () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Ufp_par.Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

let test_size () =
  Alcotest.(check int) "size 3" 3 (Pool.size (Lazy.force pool3));
  let p1 = Pool.create ~domains:1 () in
  Alcotest.(check int) "size 1" 1 (Pool.size p1);
  Pool.shutdown p1

let test_mapi_matches_init () =
  let pool = `Pool (Lazy.force pool3) in
  let f i = (i * i) + 1 in
  Alcotest.(check (array int))
    "mapi = Array.init" (Array.init 100 f)
    (Pool.parallel_mapi ~pool ~n:100 f)

let test_mapi_floats_bitwise () =
  let pool = `Pool (Lazy.force pool3) in
  let f i = Float.ldexp (sin (float_of_int i)) (i mod 7) in
  let seq = Array.init 257 f in
  let par = Pool.parallel_mapi ~pool ~chunk:5 ~n:257 f in
  Array.iteri
    (fun i x ->
      if not (Float.equal x par.(i)) then
        Alcotest.failf "slot %d differs: %h vs %h" i x par.(i))
    seq

let test_for_exactly_once () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_for ~pool:(`Pool (Lazy.force pool3)) ~chunk:3 ~n (fun i ->
      Atomic.incr hits.(i));
  Array.iteri
    (fun i h ->
      if Atomic.get h <> 1 then
        Alcotest.failf "index %d ran %d times" i (Atomic.get h))
    hits

let test_reuse_across_jobs () =
  let pool = `Pool (Lazy.force pool3) in
  for round = 1 to 20 do
    let got = Pool.parallel_mapi ~pool ~n:round (fun i -> i + round) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init round (fun i -> i + round))
      got
  done

let test_back_to_back_jobs () =
  (* Regression for the cross-job steal race: run() must quiesce every
     worker before returning, or a thief still sweeping deques from
     job k can steal job k+1's freshly seeded range and execute it
     under job k's closure — corrupting job k+1 (some index runs the
     wrong f) and hanging its caller (the stolen indices never count
     toward job k+1's completion). Many tiny jobs back to back is the
     widest window; the failure modes are a wrong hit count below or
     this test never finishing. *)
  let pool = `Pool (Lazy.force pool3) in
  for round = 1 to 300 do
    let n = 1 + (round mod 7) in
    let hits = Array.init n (fun _ -> Atomic.make 0) in
    Pool.parallel_for_dynamic ~pool ~grain:1 ~n (fun i -> Atomic.incr hits.(i));
    Array.iteri
      (fun i h ->
        if Atomic.get h <> 1 then
          Alcotest.failf "round %d: index %d ran %d times" round i
            (Atomic.get h))
      hits
  done

let test_nested_submission_rejected () =
  (* The caller-side deque has one owner per job, so re-entering the
     pool from inside a task closure must fail loudly instead of
     corrupting the scheduler. The inner Invalid_argument propagates
     through the usual first-exception channel, and the pool survives. *)
  let p = Pool.create ~domains:2 () in
  let pool = `Pool p in
  Alcotest.check_raises "nested submission rejected"
    (Invalid_argument
       "Ufp_par.Pool: concurrent or nested job submission on one pool")
    (fun () ->
      Pool.parallel_for ~pool ~n:4 (fun _ ->
          Pool.parallel_for ~pool ~n:2 ignore));
  Alcotest.(check (array int))
    "pool usable after rejection" (Array.init 5 succ)
    (Pool.parallel_mapi ~pool ~n:5 succ);
  Pool.shutdown p

let test_worker_less_pool () =
  (* domains = 1: no workers are spawned, the caller drains the job. *)
  let p = Pool.create ~domains:1 () in
  Alcotest.(check (array int))
    "caller-only execution" (Array.init 10 succ)
    (Pool.parallel_mapi ~pool:(`Pool p) ~n:10 succ);
  Pool.shutdown p

let test_empty_job () =
  let pool = `Pool (Lazy.force pool3) in
  Alcotest.(check (array int)) "n = 0 mapi" [||] (Pool.parallel_mapi ~pool ~n:0 succ);
  Pool.parallel_for ~pool ~n:0 (fun _ -> Alcotest.fail "body must not run")

exception Boom of int

let test_exception_propagates () =
  let pool = `Pool (Lazy.force pool3) in
  (try
     Pool.parallel_for ~pool ~n:100 (fun i -> if i = 41 then raise (Boom i));
     Alcotest.fail "expected Boom"
   with Boom 41 -> ());
  (* The pool survives a failed job. *)
  Alcotest.(check (array int))
    "pool usable after exception" (Array.init 8 succ)
    (Pool.parallel_mapi ~pool ~n:8 succ)

let test_seq_default () =
  (* Without a pool the calls are plain loops on the calling domain. *)
  Alcotest.(check (array int)) "seq mapi" (Array.init 9 succ)
    (Pool.parallel_mapi ~n:9 succ);
  let sum = ref 0 in
  Pool.parallel_for ~n:5 (fun i -> sum := !sum + i);
  Alcotest.(check int) "seq for" 10 !sum

let test_shutdown_rejects_jobs () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "post-shutdown job rejected"
    (Invalid_argument "Ufp_par.Pool: job submitted after shutdown") (fun () ->
      Pool.parallel_for ~pool:(`Pool p) ~n:4 ignore)

let test_with_pool_cleans_up () =
  let leaked = ref None in
  let out =
    Pool.with_pool ~domains:2 (fun choice ->
        (match choice with `Pool p -> leaked := Some p | `Seq -> ());
        Pool.parallel_mapi ~pool:choice ~n:6 succ)
  in
  Alcotest.(check (array int)) "result" (Array.init 6 succ) out;
  match !leaked with
  | None -> Alcotest.fail "with_pool must pass a pool"
  | Some p ->
    Alcotest.check_raises "pool shut down on exit"
      (Invalid_argument "Ufp_par.Pool: job submitted after shutdown")
      (fun () -> Pool.parallel_for ~pool:(`Pool p) ~n:1 ignore)

let test_with_jobs () =
  Alcotest.(check bool) "jobs 1 is Seq" true
    (Pool.with_jobs 1 (function `Seq -> true | `Pool _ -> false));
  Alcotest.(check bool) "jobs 3 is a pool of 3" true
    (Pool.with_jobs 3 (function `Seq -> false | `Pool p -> Pool.size p = 3));
  (* jobs = 0 resolves to the host's recommended count, which on a
     single-core machine legitimately degenerates to `Seq. *)
  let expected_domains = Domain.recommended_domain_count () in
  Alcotest.(check bool) "jobs 0 uses the recommended count" true
    (Pool.with_jobs 0 (function
      | `Seq -> expected_domains <= 1
      | `Pool p -> Pool.size p = expected_domains))

let test_with_jobs_negative () =
  (* A negative count must raise at the entry point, naming the flag —
     never silently degrade to `Seq. *)
  Alcotest.check_raises "jobs -2 rejected"
    (Invalid_argument
       "--jobs: expected a count >= 0, got -2 (0 = recommended domain count)")
    (fun () -> Pool.with_jobs (-2) (fun _ -> ()));
  Alcotest.check_raises "jobs -1 rejected"
    (Invalid_argument
       "--jobs: expected a count >= 0, got -1 (0 = recommended domain count)")
    (fun () -> Pool.with_jobs (-1) (fun _ -> ()))

let test_jobs_from_env_negative () =
  let prev = Sys.getenv_opt "UFP_JOBS" in
  let restore () =
    (* putenv cannot unset; an empty string is not an integer, so the
       default path stays in force for any later reader. *)
    Unix.putenv "UFP_JOBS" (Option.value prev ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "UFP_JOBS" "-2";
      Alcotest.check_raises "negative UFP_JOBS rejected"
        (Invalid_argument
           "UFP_JOBS: expected a count >= 0, got -2 (0 = recommended domain \
            count)")
        (fun () -> ignore (Pool.jobs_from_env ()));
      (* Garbage that does not parse as an int still falls back to the
         default — only a parsed negative is an error. *)
      Unix.putenv "UFP_JOBS" "three";
      Alcotest.(check int) "unparsable falls back" 5
        (Pool.jobs_from_env ~default:5 ()))

let test_jobs_from_env () =
  (* The suite may itself run under UFP_JOBS (CI exports it), so test
     against whatever the environment actually says. *)
  let expected =
    match Sys.getenv_opt "UFP_JOBS" with
    | None -> 7
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 0 -> j
      | _ -> 7)
  in
  Alcotest.(check int) "env/default honoured" expected
    (Pool.jobs_from_env ~default:7 ())

(* --- the Chase–Lev deque --- *)

let steal_testable =
  let pp fmt = function
    | Deque.Stolen v -> Format.fprintf fmt "Stolen %d" v
    | Deque.Empty -> Format.fprintf fmt "Empty"
    | Deque.Retry -> Format.fprintf fmt "Retry"
  in
  let eq a b =
    match (a, b) with
    | Deque.Stolen x, Deque.Stolen y -> x = y
    | Deque.Empty, Deque.Empty | Deque.Retry, Deque.Retry -> true
    | _ -> false
  in
  Alcotest.testable pp eq

let test_deque_owner_lifo () =
  let q = Deque.create () in
  for i = 1 to 10 do
    Deque.push q i
  done;
  Alcotest.(check int) "size" 10 (Deque.size q);
  for i = 10 downto 1 do
    Alcotest.(check (option int)) "pop order" (Some i) (Deque.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Deque.pop q)

let test_deque_steal_fifo () =
  let q = Deque.create () in
  for i = 1 to 10 do
    Deque.push q i
  done;
  (* Steals consume the opposite (oldest) end, in push order. With no
     concurrent consumer every steal must succeed — Retry only arises
     from losing a race. *)
  for i = 1 to 10 do
    Alcotest.check steal_testable "steal order" (Deque.Stolen i) (Deque.steal q)
  done;
  Alcotest.check steal_testable "drained" Deque.Empty (Deque.steal q)

let test_deque_empty_returns () =
  let q : int Deque.t = Deque.create () in
  Alcotest.(check (option int)) "pop on empty" None (Deque.pop q);
  Alcotest.check steal_testable "steal on empty" Deque.Empty (Deque.steal q);
  Alcotest.(check bool) "is_empty" true (Deque.is_empty q);
  (* The last element goes to exactly one of the two ends. *)
  Deque.push q 7;
  Alcotest.check steal_testable "steal takes the single element"
    (Deque.Stolen 7) (Deque.steal q);
  Alcotest.(check (option int)) "pop then finds nothing" None (Deque.pop q);
  Alcotest.check steal_testable "steal then finds nothing" Deque.Empty
    (Deque.steal q)

let test_deque_mixed_ends () =
  let q = Deque.create () in
  List.iter (Deque.push q) [ 1; 2; 3 ];
  Alcotest.check steal_testable "oldest stolen" (Deque.Stolen 1) (Deque.steal q);
  Alcotest.(check (option int)) "newest popped" (Some 3) (Deque.pop q);
  Deque.push q 4;
  Alcotest.check steal_testable "FIFO continues" (Deque.Stolen 2)
    (Deque.steal q);
  Alcotest.(check (option int)) "LIFO continues" (Some 4) (Deque.pop q);
  Alcotest.(check (option int)) "drained" None (Deque.pop q)

let test_deque_growth () =
  (* Start at the minimum capacity and push two orders of magnitude
     past it: the owner must grow transparently and preserve both
     orders across the copies. *)
  let q = Deque.create ~capacity:2 () in
  for i = 0 to 299 do
    Deque.push q i
  done;
  for i = 0 to 99 do
    Alcotest.check steal_testable "front intact after growth"
      (Deque.Stolen i) (Deque.steal q)
  done;
  for i = 299 downto 100 do
    Alcotest.(check (option int)) "back intact after growth" (Some i)
      (Deque.pop q)
  done;
  Alcotest.(check bool) "empty again" true (Deque.is_empty q)

(* --- the work-stealing scheduler on a real pool --- *)

let test_skewed_exactly_once () =
  (* One index ~100x more expensive than the rest: the work-stealing
     path must still run every index exactly once while thieves peel
     the cheap tail off the loaded executor's deque. *)
  let pool = `Pool (Lazy.force pool3) in
  let n = 400 in
  let sink = Atomic.make 0.0 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let spin rounds =
    let acc = ref 0.0 in
    for k = 1 to rounds do
      acc := !acc +. sin (float_of_int k)
    done;
    !acc
  in
  Pool.parallel_for_dynamic ~pool ~grain:8 ~n (fun i ->
      let cost = if i = 0 then 20_000 else 200 in
      let v = spin cost in
      Atomic.incr hits.(i);
      (* Keep the float work observable so it cannot be dead-code
         eliminated. *)
      if v > 1e9 then Atomic.set sink v);
  Array.iteri
    (fun i h ->
      if Atomic.get h <> 1 then
        Alcotest.failf "skewed: index %d ran %d times" i (Atomic.get h))
    hits

(* The 3-domain QCheck hammer: every submitted thunk runs exactly
   once, witnessed twice over — per-task Atomic slots, and the
   domain-safe Ufp_obs counter the tasks hammer concurrently. *)
let qcheck_submit_exactly_once =
  QCheck.Test.make ~count:40 ~name:"submit runs every task exactly once"
    QCheck.(int_range 1 200)
    (fun n ->
      let c = Metrics.counter "test.par_submit" in
      let before = Metrics.value c in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let tasks =
        Array.init n (fun i ->
            fun () ->
             Metrics.incr c;
             Atomic.incr hits.(i))
      in
      Pool.submit ~pool:(`Pool (Lazy.force pool3)) tasks;
      Array.iteri
        (fun i h ->
          if Atomic.get h <> 1 then
            QCheck.Test.fail_reportf "task %d ran %d times" i (Atomic.get h))
        hits;
      if Metrics.value c - before <> n then
        QCheck.Test.fail_reportf "counter says %d runs, wanted %d"
          (Metrics.value c - before) n;
      true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "par"
    [
      ( "pool",
        [
          tc "create validates" `Quick test_create_invalid;
          tc "size" `Quick test_size;
          tc "mapi matches Array.init" `Quick test_mapi_matches_init;
          tc "mapi floats bitwise" `Quick test_mapi_floats_bitwise;
          tc "each index exactly once" `Quick test_for_exactly_once;
          tc "reuse across jobs" `Quick test_reuse_across_jobs;
          tc "back-to-back jobs quiesce" `Quick test_back_to_back_jobs;
          tc "nested submission rejected" `Quick test_nested_submission_rejected;
          tc "worker-less pool" `Quick test_worker_less_pool;
          tc "empty job" `Quick test_empty_job;
          tc "exception propagates" `Quick test_exception_propagates;
          tc "sequential default" `Quick test_seq_default;
          tc "shutdown" `Quick test_shutdown_rejects_jobs;
        ] );
      ( "deque",
        [
          tc "owner pop is LIFO" `Quick test_deque_owner_lifo;
          tc "steal is FIFO" `Quick test_deque_steal_fifo;
          tc "empty returns" `Quick test_deque_empty_returns;
          tc "mixed ends" `Quick test_deque_mixed_ends;
          tc "growth preserves both orders" `Quick test_deque_growth;
        ] );
      ( "work-stealing",
        [
          tc "skewed workload exactly once" `Quick test_skewed_exactly_once;
          QCheck_alcotest.to_alcotest qcheck_submit_exactly_once;
        ] );
      ( "conveniences",
        [
          tc "with_pool cleans up" `Quick test_with_pool_cleans_up;
          tc "with_jobs" `Quick test_with_jobs;
          tc "with_jobs rejects negatives" `Quick test_with_jobs_negative;
          tc "jobs_from_env" `Quick test_jobs_from_env;
          tc "jobs_from_env rejects negatives" `Quick
            test_jobs_from_env_negative;
        ] );
    ]
