(* Output validators, applied after every timed operation once its
   timer has stopped. Each returns the properties that failed (empty
   when the output passes), so the caller can count a failed operation
   against the operations attempted instead of dropping it. *)

module Instance = Ufp_instance.Instance
module Request = Ufp_instance.Request
module Solution = Ufp_instance.Solution
module Io = Ufp_instance.Io
module Bounded_ufp = Ufp_core.Bounded_ufp
module Audit = Ufp_core.Audit

let fail_if cond msg = if cond then [ msg ] else []

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* A solve: feasible (Lemma 3.3), passing every audit of the run, and
   admitting something, so that comparing it with another run is not
   comparing two empty allocations. *)
let solve inst (run : Bounded_ufp.run) =
  let sol = run.Bounded_ufp.solution in
  fail_if (sol = []) "the solve admitted no request"
  @ fail_if (not (Solution.is_feasible inst sol)) "the solution is infeasible"
  @ fail_if
      (not (Audit.bounded_ufp_run inst run).Audit.all_passed)
      "the run fails its audit"

(* The same allocation, byte for byte, as the reference run. Refused
   outright when the reference admits nothing: equality of two empty
   allocations proves nothing. *)
let same_solution ~reference sol =
  if reference = [] then [ "vacuous comparison: the reference admits nothing" ]
  else
    fail_if
      (not (String.equal (Io.solution_to_string reference) (Io.solution_to_string sol)))
      "the solution differs from the j1 reference"

(* Critical-value payments: a winner pays at most its declared value
   (individual rationality), a loser pays exactly 0, and at least one
   request wins. *)
let payments inst ~winners pay =
  let n = Instance.n_requests inst in
  let bad = ref [] in
  if Array.length pay <> n || Array.length winners <> n then
    bad := [ "payment vector has the wrong length" ]
  else begin
    if not (Array.exists Fun.id winners) then
      bad := [ "no request wins, so the payments prove nothing" ];
    Array.iteri
      (fun i p ->
        let declared = (Instance.request inst i).Request.value in
        if winners.(i) && not (p >= 0.0 && p <= declared) then
          bad :=
            Printf.sprintf "winner %d pays %.17g, outside [0, %.17g]" i p declared
            :: !bad
        else if (not winners.(i)) && not (same_bits p 0.0) then
          bad := Printf.sprintf "loser %d pays %.17g, not 0" i p :: !bad)
      pay
  end;
  List.rev !bad

(* Bitwise equality with the reference payments. *)
let same_payments ~reference pay =
  fail_if
    (not
       (Array.length reference = Array.length pay
       && Array.for_all2 same_bits reference pay))
    "the payments differ bitwise from the j1 reference"

(* Number of vertices whose distance (bitwise) or parent edge differs
   between a kernel's tree and the reference tree. A reachable vertex
   reported at [infinity] is a mismatch like any other. *)
let tree_mismatches ~dist ~parent ~ref_dist ~ref_parent =
  let n = Array.length ref_dist in
  if Array.length dist <> n || Array.length parent <> n then max n 1
  else begin
    let bad = ref 0 in
    for v = 0 to n - 1 do
      if not (same_bits dist.(v) ref_dist.(v) && parent.(v) = ref_parent.(v))
      then incr bad
    done;
    !bad
  end

(* The (request, path, alpha) selection sequences of two implementations of
   Algorithm 1 agree exactly. *)
let same_selections a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, p, x) (j, q, y) -> i = j && p = q && same_bits x y)
       a b

let selections (run : Bounded_ufp.run) =
  List.map
    (fun e -> Bounded_ufp.(e.selected, e.path, e.alpha))
    run.Bounded_ufp.trace
