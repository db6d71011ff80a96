(* Tests for the real-parallelism runtime (experiment E9): the same
   KKβ algorithm on OCaml 5 domains with atomic registers. *)

module Am = Multicore.Atomic_mem

let test_atomic_mem () =
  let v = Am.vector ~len:3 ~init:0 in
  Am.vset v 2 9;
  Alcotest.(check int) "vector rw" 9 (Am.vget v 2);
  Alcotest.check_raises "vector bounds"
    (Invalid_argument "Atomic_mem: vector index out of range") (fun () ->
      ignore (Am.vget v 4));
  let l = Am.log ~rows:2 ~cols:3 in
  Alcotest.(check int) "unpublished cell reads 0" 0 (Am.lget l 2 1);
  Am.lappend l 2 1 7;
  Am.lappend l 2 2 8;
  Alcotest.(check (list int)) "row 2 reads its prefix" [ 7; 8; 0 ]
    (List.map (Am.lget l 2) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "row 1 untouched" [ 0; 0; 0 ]
    (List.map (Am.lget l 1) [ 1; 2; 3 ]);
  Am.lappend l 1 1 5;
  Alcotest.(check (pair int int)) "rows independent" (5, 7)
    (Am.lget l 1 1, Am.lget l 2 1);
  let not_next = Invalid_argument "Atomic_mem.lappend: not the next column" in
  Alcotest.check_raises "append skips a column" not_next (fun () ->
      Am.lappend l 1 3 6);
  Alcotest.check_raises "append rewrites a column" not_next (fun () ->
      Am.lappend l 2 2 6);
  Alcotest.(check int) "failed appends change nothing" 8 (Am.lget l 2 2);
  Alcotest.check_raises "log bounds"
    (Invalid_argument "Atomic_mem: log index out of range") (fun () ->
      ignore (Am.lget l 3 1))

(* One domain appends a row while another polls it in descending
   column order until the writer is done.  Every cell read must be 0 or
   exactly the value written there, a scan must see a published prefix
   (no 0 below a nonzero cell), the prefix never shrinks from one scan
   to the next, and after join every cell reads its value. *)
let test_log_two_domains () =
  let cols = 20_000 in
  let value c = (3 * c) + 1 in
  let l = Am.log ~rows:1 ~cols in
  let go = Atomic.make false and finished = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            for c = 1 to cols do
              Am.lappend l 1 c (value c)
            done))
  in
  Atomic.set go true;
  let seen = ref 0 and scans = ref 0 and last = ref false in
  while not !last do
    last := Atomic.get finished;
    incr scans;
    let top = ref 0 in
    (* probe a window above the last prefix seen, then check below it *)
    for c = min cols (!seen + 64) downto 1 do
      let x = Am.lget l 1 c in
      if x <> 0 && x <> value c then
        Alcotest.failf "cell %d read %d, wrote %d" c x (value c);
      if x <> 0 && !top = 0 then top := c;
      if x = 0 && !top > 0 then
        Alcotest.failf "scan %d: cell %d reads 0 below published cell %d"
          !scans c !top;
      if x = 0 && c <= !seen then
        Alcotest.failf "scan %d: cell %d reads 0 after it read %d" !scans c
          (value c)
    done;
    seen := max !seen !top
  done;
  Domain.join writer;
  for c = 1 to cols do
    if Am.lget l 1 c <> value c then Alcotest.failf "cell %d lost" c
  done

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
    Alcotest.test_case "log on two domains" `Quick test_log_two_domains;
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
