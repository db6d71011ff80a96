(* Tests for the real-parallelism runtime (experiment E9): the same
   KKβ algorithm on OCaml 5 domains with atomic registers. *)

let test_atomic_mem () =
  let v = Multicore.Atomic_mem.vector ~len:3 ~init:0 in
  Multicore.Atomic_mem.vset v 2 9;
  Alcotest.(check int) "vector rw" 9 (Multicore.Atomic_mem.vget v 2);
  Alcotest.check_raises "vector bounds"
    (Invalid_argument "Atomic_mem: vector index out of range") (fun () ->
      ignore (Multicore.Atomic_mem.vget v 4));
  let m = Multicore.Atomic_mem.matrix ~rows:2 ~cols:3 ~init:0 in
  Multicore.Atomic_mem.mset m 2 3 7;
  Alcotest.(check int) "matrix rw" 7 (Multicore.Atomic_mem.mget m 2 3);
  Alcotest.(check int) "cols" 3 (Multicore.Atomic_mem.mcols m)

let test_amo_on_domains () =
  (* several real-parallel runs; at-most-once must hold in all *)
  for trial = 1 to 5 do
    let r = Multicore.Runner.run_kk ~n:2000 ~m:4 ~beta:4 () in
    Helpers.check_amo r.Multicore.Runner.dos;
    ignore trial
  done

let test_effectiveness_on_domains () =
  let n = 3000 and m = 4 in
  let r = Multicore.Runner.run_kk ~n ~m ~beta:m () in
  Helpers.check_amo r.Multicore.Runner.dos;
  let done_ = Core.Spec.do_count r.Multicore.Runner.dos in
  (* failure-free: Theorem 4.4 guarantees at least n - 2m + 2 *)
  if done_ < n - (2 * m) + 2 then
    Alcotest.failf "did %d < %d" done_ (n - (2 * m) + 2)

let test_budget_emulates_crash () =
  let n = 1000 and m = 3 in
  (* p1 "crashes" after 5 jobs *)
  let r =
    Multicore.Runner.run_kk ~n ~m ~beta:m
      ~job_budget:(fun ~pid -> if pid = 1 then 5 else max_int)
      ()
  in
  Helpers.check_amo r.Multicore.Runner.dos;
  Alcotest.(check bool) "p1 capped" true (r.Multicore.Runner.per_process.(1) <= 5);
  let done_ = Core.Spec.do_count r.Multicore.Runner.dos in
  (* one crash: still within the wait-free guarantee *)
  if done_ < n - (2 * m) + 2 then Alcotest.failf "did %d" done_;
  (* a zero budget stops every process before its first register access *)
  let r =
    Multicore.Runner.run_kk ~n ~m ~beta:m ~job_budget:(fun ~pid:_ -> 0) ()
  in
  Alcotest.(check int) "zero budget: no actions" 0
    (Shm.Metrics.total_actions r.Multicore.Runner.metrics);
  Alcotest.(check int) "zero budget: no jobs" 0
    (List.length r.Multicore.Runner.dos)

(* At m = 1 no scheduler choice is left, so the simulator's automaton
   and the runner's direct-style body must perform the same jobs in the
   same order with the same shared reads and writes.  (Internal actions
   and work are counted differently by design.) *)
let test_single_process_matches_simulator () =
  let n = 1000 in
  let same name ~jobs ~rw (sim : Core.Harness.summary)
      (mc : Multicore.Runner.outcome) =
    let rw_of m = (Shm.Metrics.total_reads m, Shm.Metrics.total_writes m) in
    Alcotest.(check (list (pair int int))) (name ^ " do-log") sim.dos mc.dos;
    Alcotest.(check int) (name ^ " jobs") jobs (Core.Spec.do_count mc.dos);
    Alcotest.(check (pair int int)) (name ^ " sim reads/writes") rw
      (rw_of sim.metrics);
    Alcotest.(check (pair int int)) (name ^ " mc reads/writes") rw
      (rw_of mc.metrics)
  in
  same "kk" ~jobs:1000 ~rw:(0, 2000)
    (Core.Harness.kk ~n ~m:1 ~beta:1 ())
    (Multicore.Runner.run_kk ~n ~m:1 ~beta:1 ());
  same "iterative" ~jobs:998 ~rw:(116, 236)
    (Core.Harness.iterative ~n ~m:1 ~epsilon_inv:2 ())
    (Multicore.Runner.run_iterative ~n ~m:1 ~epsilon_inv:2 ())

let test_random_policy_on_domains () =
  let r =
    Multicore.Runner.run_kk ~n:1000 ~m:3 ~beta:3
      ~policy:(fun ~pid -> Core.Policy.Random (Util.Prng.of_int pid))
      ()
  in
  Helpers.check_amo r.Multicore.Runner.dos

let test_iterative_on_domains () =
  for trial = 1 to 3 do
    let n = 2048 and m = 3 in
    let r = Multicore.Runner.run_iterative ~n ~m ~epsilon_inv:2 () in
    Helpers.check_amo r.Multicore.Runner.dos;
    let done_ = Core.Spec.do_count r.Multicore.Runner.dos in
    let bound = Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv:2 in
    if n - done_ > bound then
      Alcotest.failf "trial %d: lost %d > bound %d" trial (n - done_) bound
  done

let test_iterative_validation () =
  Alcotest.check_raises "eps"
    (Invalid_argument "Runner.run_iterative: epsilon_inv must be >= 1")
    (fun () ->
      ignore (Multicore.Runner.run_iterative ~n:10 ~m:2 ~epsilon_inv:0 ()))

let test_per_process_totals () =
  let r = Multicore.Runner.run_kk ~n:500 ~m:2 ~beta:2 () in
  let total = Array.fold_left ( + ) 0 r.Multicore.Runner.per_process in
  Alcotest.(check int) "per-process sums to dos" (List.length r.Multicore.Runner.dos) total

let test_metrics_ledger () =
  let n = 500 and m = 2 in
  let r = Multicore.Runner.run_kk ~n ~m ~beta:m () in
  let metrics = r.Multicore.Runner.metrics in
  (* merged per-domain ledgers: every process paid for its accesses *)
  Alcotest.(check bool) "work charged" true (Shm.Metrics.total_work metrics > 0);
  for p = 1 to m do
    if Shm.Metrics.reads metrics ~p = 0 then
      Alcotest.failf "p%d recorded no shared reads" p;
    if Shm.Metrics.writes metrics ~p < r.Multicore.Runner.per_process.(p) then
      Alcotest.failf "p%d wrote less than it performed" p
  done;
  (* every perform is at least one write to done plus the final
     done-bit write; n jobs give a crude lower bound on total writes *)
  Alcotest.(check bool) "writes cover performs" true
    (Shm.Metrics.total_writes metrics
    >= List.length r.Multicore.Runner.dos)

let test_validation () =
  Alcotest.check_raises "m > n" (Invalid_argument "Runner.run_kk: need 1 <= m <= n")
    (fun () -> ignore (Multicore.Runner.run_kk ~n:2 ~m:3 ~beta:1 ()))

let suite =
  [
    Alcotest.test_case "atomic memory" `Quick test_atomic_mem;
    Alcotest.test_case "amo on real domains" `Slow test_amo_on_domains;
    Alcotest.test_case "effectiveness on real domains" `Slow
      test_effectiveness_on_domains;
    Alcotest.test_case "budget emulates crash" `Slow test_budget_emulates_crash;
    Alcotest.test_case "single process matches simulator" `Quick
      test_single_process_matches_simulator;
    Alcotest.test_case "random policy on domains" `Slow
      test_random_policy_on_domains;
    Alcotest.test_case "iterative on real domains" `Slow
      test_iterative_on_domains;
    Alcotest.test_case "iterative validation" `Quick test_iterative_validation;
    Alcotest.test_case "per-process totals" `Quick test_per_process_totals;
    Alcotest.test_case "metrics ledger" `Quick test_metrics_ledger;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
