(* Tests for algorithm KKβ: safety (Lemma 4.1), wait-freedom
   (Lemma 4.3), effectiveness (Theorem 4.4 — both the guarantee and
   the adversarial tightness), collision bounds (Lemma 5.5), and the
   IterStepKK mode (Lemmas 6.1/6.2). *)

let check_amo = Helpers.check_amo

(* ---- safety under many schedules, policies, crash patterns ---- *)

let test_amo_round_robin () =
  let s = Core.Harness.kk ~n:200 ~m:8 ~beta:8 () in
  check_amo s.Core.Harness.dos;
  Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free

let test_amo_all_schedulers () =
  List.iter
    (fun (name, sched) ->
      let s = Core.Harness.kk ~scheduler:sched ~n:150 ~m:6 ~beta:6 () in
      check_amo s.Core.Harness.dos;
      Alcotest.(check bool) (name ^ " wait free") true s.Core.Harness.wait_free)
    (Helpers.schedulers_for 5)

let test_amo_with_random_crashes () =
  for seed = 0 to 40 do
    let rng = Util.Prng.of_int seed in
    let m = 6 in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:2000)
        ~n:120 ~m ~beta:m ()
    in
    check_amo s.Core.Harness.dos;
    Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free
  done

let test_amo_random_policy () =
  (* the Censor-Hillel-style ablation keeps safety *)
  for seed = 0 to 10 do
    let rng = Util.Prng.of_int (100 + seed) in
    let s =
      Core.Harness.kk
        ~policy:(Core.Policy.Random (Util.Prng.split rng))
        ~scheduler:(Shm.Schedule.random rng)
        ~n:80 ~m:4 ~beta:4 ()
    in
    check_amo s.Core.Harness.dos;
    Alcotest.(check bool) "wait free" true s.Core.Harness.wait_free
  done

let test_amo_lowest_free_policy () =
  (* maximal contention; safety must hold even when termination is at
     risk (we cap the run and only check safety) *)
  for seed = 0 to 10 do
    let s =
      Core.Harness.kk ~policy:Core.Policy.Lowest_free
        ~scheduler:(Shm.Schedule.random (Util.Prng.of_int (200 + seed)))
        ~max_steps:200_000 ~n:60 ~m:4 ~beta:4 ()
    in
    check_amo s.Core.Harness.dos
  done

let test_lowest_free_can_livelock () =
  (* Under strict round-robin alternation, two Lowest_free processes
     chase the same job forever: this documents that the *paper's*
     rank-splitting rule is what buys wait-freedom (Lemma 4.3), not
     the announce/check skeleton alone. *)
  let s =
    Core.Harness.kk ~policy:Core.Policy.Lowest_free
      ~scheduler:(Shm.Schedule.round_robin ())
      ~max_steps:50_000 ~n:40 ~m:2 ~beta:2 ()
  in
  check_amo s.Core.Harness.dos;
  Alcotest.(check bool) "livelocked as predicted" false s.Core.Harness.wait_free

let test_amo_edge_configs () =
  (* m = 1; n = m; beta > n; beta = n *)
  let cases =
    [ (10, 1, 1); (4, 4, 4); (10, 2, 20); (10, 3, 10); (5, 2, 2) ]
  in
  List.iter
    (fun (n, m, beta) ->
      let s = Core.Harness.kk ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      Alcotest.(check bool)
        (Printf.sprintf "wait free n=%d m=%d beta=%d" n m beta)
        true s.Core.Harness.wait_free)
    cases

(* ---- wait-freedom / termination ---- *)

let test_wait_free_many_seeds () =
  for seed = 0 to 50 do
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.bursty (Util.Prng.of_int seed) ~max_burst:100)
        ~n:100 ~m:5 ~beta:5 ()
    in
    Alcotest.(check bool) "quiescent" true s.Core.Harness.wait_free
  done

(* ---- effectiveness: Theorem 4.4, guarantee direction ---- *)

let test_effectiveness_guarantee () =
  (* every fair execution with f < m crashes performs at least
     n - (beta + m - 2) distinct jobs *)
  for seed = 0 to 30 do
    let rng = Util.Prng.of_int (300 + seed) in
    let n = 150 and m = 5 in
    let beta = m in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:3000)
        ~n ~m ~beta ()
    in
    let guarantee = n - (beta + m - 2) in
    if s.Core.Harness.do_count < guarantee then
      Alcotest.failf "seed %d: did %d < guarantee %d" seed
        s.Core.Harness.do_count guarantee
  done

let test_effectiveness_failure_free_is_n () =
  (* with no crashes nothing gets stuck, and the last processes only
     stop when fewer than beta jobs remain; with beta = m and round
     robin everything is performed *)
  let s = Core.Harness.kk ~n:100 ~m:4 ~beta:4 () in
  Alcotest.(check int) "all jobs done" 100 s.Core.Harness.do_count

let test_upper_bound_never_exceeded () =
  for seed = 0 to 20 do
    let rng = Util.Prng.of_int (400 + seed) in
    let n = 100 and m = 4 in
    let f = Util.Prng.int rng m in
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
        ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:50)
        ~n ~m ~beta:m ()
    in
    let f_actual = List.length s.Core.Harness.crashed in
    let bound = Core.Params.effectiveness_upper_bound ~n ~f:f_actual in
    if s.Core.Harness.do_count > bound then
      Alcotest.failf "Do(α)=%d exceeds upper bound %d (f=%d)"
        s.Core.Harness.do_count bound f_actual
  done

(* ---- effectiveness: Theorem 4.4, tightness direction ---- *)

let test_worst_case_adversary_exact () =
  List.iter
    (fun (n, m, beta) ->
      let s = Core.Harness.kk_worst_case ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      let predicted = n - (beta + m - 2) in
      Alcotest.(check int)
        (Printf.sprintf "exact effectiveness n=%d m=%d beta=%d" n m beta)
        predicted s.Core.Harness.do_count;
      Alcotest.(check int) "m-1 crashes" (m - 1)
        (List.length s.Core.Harness.crashed))
    [ (100, 4, 4); (200, 8, 8); (50, 2, 2); (300, 6, 12); (100, 3, 30) ]

let test_worst_case_stuck_jobs_never_done () =
  (* the victims' announced jobs stay unperformed forever *)
  let n = 80 and m = 4 in
  let s = Core.Harness.kk_worst_case ~n ~m ~beta:m () in
  let undone = Core.Spec.undone_jobs ~n s.Core.Harness.dos in
  (* beta - 1 free jobs + m - 1 stuck jobs remain *)
  Alcotest.(check int) "undone count" (m + (m - 1) - 1) (List.length undone)

(* ---- work & collisions: Theorem 5.6 / Lemma 5.5 regime ---- *)

let test_collision_bound_beta_3m2 () =
  (* Lemma 5.5: with beta >= 3m², p collides with q at most
     2*ceil(n/(m|q-p|)) times, under any schedule *)
  let m = 3 in
  let beta = 3 * m * m in
  let n = 200 in
  List.iter
    (fun (name, sched) ->
      let s = Core.Harness.kk ~scheduler:sched ~n ~m ~beta () in
      check_amo s.Core.Harness.dos;
      match Core.Collision.worst_pair_ratio s.Core.Harness.collision ~n with
      | None -> ()
      | Some (p, q, ratio) ->
          if ratio > 1.0 then
            Alcotest.failf "%s: pair (%d,%d) ratio %.2f exceeds Lemma 5.5" name
              p q ratio)
    (Helpers.schedulers_for 9)

let test_collision_bound_many_seeds () =
  let m = 4 in
  let beta = 3 * m * m in
  let n = 300 in
  for seed = 0 to 15 do
    let s =
      Core.Harness.kk
        ~scheduler:(Shm.Schedule.bursty (Util.Prng.of_int seed) ~max_burst:200)
        ~n ~m ~beta ()
    in
    match Core.Collision.worst_pair_ratio s.Core.Harness.collision ~n with
    | None -> ()
    | Some (p, q, ratio) ->
        if ratio > 1.0 then
          Alcotest.failf "seed %d: pair (%d,%d) ratio %.2f" seed p q ratio
  done

let test_work_grows_linearly_in_n () =
  (* Theorem 5.6: for beta = 3m² and fixed m, work/n is bounded *)
  let m = 3 in
  let beta = 3 * m * m in
  let work n =
    let s = Core.Harness.kk ~n ~m ~beta () in
    float_of_int (Shm.Metrics.total_work s.Core.Harness.metrics)
  in
  let w1 = work 500 and w2 = work 2000 in
  (* quadrupling n should much less than 8x the work (log factors allowed) *)
  if w2 /. w1 > 6. then
    Alcotest.failf "work scaling looks superlinear: %f -> %f" w1 w2

(* ---- direct automaton-level tests ---- *)

let make_kk_instance ~n ~m ~beta =
  let metrics = Shm.Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let procs =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n) ~mode:Core.Kk.Standalone ())
  in
  (shared, procs, Array.map Core.Kk.handle procs)

(* Which jobs the done matrix records anywhere, and each row's jobs. *)
let recorded done_m ~n ~m =
  let any = Array.make (n + 1) false and own = Array.make (m + 1) [] in
  for row = 1 to m do
    for col = 1 to Shm.Memory.matrix_cols done_m do
      let j = Shm.Memory.mpeek done_m row col in
      if j > 0 then begin
        any.(j) <- true;
        own.(row) <- j :: own.(row)
      end
    done
  done;
  (any, own)

let test_internal_invariants_during_run () =
  let n = 60 and m = 4 in
  let shared, procs, handles = make_kk_instance ~n ~m ~beta:m in
  let done_m = Core.Kk.done_matrix shared in
  let sched = Shm.Schedule.random (Util.Prng.of_int 17) in
  let steps = ref 0 in
  let rec loop () =
    let alive = Shm.Executor.live_pids handles in
    if Array.length alive > 0 && !steps < 100_000 then begin
      incr steps;
      ignore (handles.(Shm.Schedule.choose sched ~alive - 1).Shm.Automaton.step ());
      (* invariants from the paper: |TRY| < m; DONE agrees with shared
         memory (every job in DONE is recorded in some done row, and
         every job p recorded in its own row is in p's DONE); the
         announced job, once set, is a real job id *)
      let any, own = recorded done_m ~n ~m in
      Array.iteri
        (fun i p ->
          let tries = Core.Kk.try_set p in
          if Ostree.cardinal tries >= m then
            Alcotest.failf "|TRY| = %d >= m" (Ostree.cardinal tries);
          let done_ = Core.Kk.done_set p in
          Ostree.iter
            (fun x ->
              if not any.(x) then
                Alcotest.failf "p%d: job %d in DONE but in no done row" (i + 1) x)
            done_;
          List.iter
            (fun x ->
              if not (Ostree.mem x done_) then
                Alcotest.failf "p%d recorded job %d but DONE misses it" (i + 1) x)
            own.(i + 1);
          let a = Core.Kk.announced p in
          if a <> 0 && not (Core.Job.is_valid ~n a) then
            Alcotest.failf "bad announcement %d" a)
        procs;
      loop ()
    end
  in
  loop ();
  Alcotest.(check bool) "terminated" true (!steps < 100_000)

let test_done_set_matches_shared_memory () =
  let n = 40 and m = 3 in
  let _, procs, handles = make_kk_instance ~n ~m ~beta:m in
  let outcome =
    Shm.Executor.run
      ~scheduler:(Shm.Schedule.round_robin ())
      ~adversary:Shm.Adversary.none handles
  in
  let dos = Shm.Trace.do_events outcome.Shm.Executor.trace in
  check_amo dos;
  (* every performed job ends up in the performer's DONE set *)
  List.iter
    (fun (p, j) ->
      if not (Ostree.mem j (Core.Kk.done_set procs.(p - 1))) then
        Alcotest.failf "p%d did %d but DONE misses it" p j)
    dos;
  (* per-process do_count agrees with the trace *)
  let counts = Core.Spec.per_process_counts ~m dos in
  Array.iteri
    (fun i p ->
      Alcotest.(check int)
        (Printf.sprintf "do_count p%d" (i + 1))
        counts.(i + 1) (Core.Kk.do_count p))
    procs

let test_status_progression () =
  let _, _, handles = make_kk_instance ~n:10 ~m:2 ~beta:2 in
  let h = handles.(0) in
  Alcotest.(check string) "starts comp_next" "comp_next" (h.Shm.Automaton.phase ());
  ignore (h.Shm.Automaton.step ());
  Alcotest.(check string) "then set_next" "set_next" (h.Shm.Automaton.phase ());
  ignore (h.Shm.Automaton.step ());
  Alcotest.(check string) "then gather_try" "gather_try" (h.Shm.Automaton.phase ())

let test_crash_is_idempotent_and_final () =
  let _, _, handles = make_kk_instance ~n:10 ~m:2 ~beta:2 in
  let h = handles.(0) in
  h.Shm.Automaton.crash ();
  h.Shm.Automaton.crash ();
  Alcotest.(check bool) "dead" false (h.Shm.Automaton.alive ());
  Alcotest.(check string) "stopped" "stop" (h.Shm.Automaton.phase ())

let test_create_validation () =
  let metrics = Shm.Metrics.create ~m:2 in
  let shared = Core.Kk.make_shared ~metrics ~m:2 ~capacity:10 ~name:"kk" () in
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Kk.create: pid out of range") (fun () ->
      ignore
        (Core.Kk.create ~shared ~pid:3 ~beta:2 ~policy:Core.Policy.Rank_split
           ~free:(Core.Job.universe ~n:10) ~mode:Core.Kk.Standalone ()));
  Alcotest.check_raises "iter mode needs flag"
    (Invalid_argument "Kk.create: Iter_step mode needs a shared flag")
    (fun () ->
      ignore
        (Core.Kk.create ~shared ~pid:1 ~beta:2 ~policy:Core.Policy.Rank_split
           ~free:(Core.Job.universe ~n:10)
           ~mode:(Core.Kk.Iter_step { keep_try = false })
           ()))

(* ---- IterStepKK mode (Lemmas 6.1 / 6.2) ---- *)

let run_iter_step ~seed ~n ~m ~beta ~keep_try =
  let metrics = Shm.Metrics.create ~m in
  let shared =
    Core.Kk.make_shared ~metrics ~m ~capacity:n ~with_flag:true ~name:"is" ()
  in
  let procs =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n)
          ~mode:(Core.Kk.Iter_step { keep_try })
          ())
  in
  let handles = Array.map Core.Kk.handle procs in
  let outcome =
    Shm.Executor.run
      ~scheduler:(Shm.Schedule.random (Util.Prng.of_int seed))
      ~adversary:Shm.Adversary.none handles
  in
  (procs, shared, Shm.Trace.do_events outcome.Shm.Executor.trace)

let test_iter_step_amo () =
  for seed = 0 to 20 do
    let _, _, dos = run_iter_step ~seed ~n:100 ~m:3 ~beta:27 ~keep_try:false in
    check_amo dos
  done

let test_iter_step_flag_set_on_termination () =
  let _, shared, _ = run_iter_step ~seed:1 ~n:50 ~m:2 ~beta:12 ~keep_try:false in
  Alcotest.(check int) "flag raised" 1 (Core.Kk.flag_value shared)

let test_iter_step_outputs_unperformed () =
  (* Lemma 6.2: no job in any process's output set was ever performed *)
  for seed = 0 to 20 do
    let procs, _, dos =
      run_iter_step ~seed ~n:100 ~m:3 ~beta:27 ~keep_try:false
    in
    let performed = Core.Spec.performed_set dos in
    Array.iter
      (fun p ->
        match Core.Kk.result p with
        | None -> Alcotest.fail "no output set after termination"
        | Some out ->
            Ostree.iter
              (fun j ->
                if Ostree.mem j performed then
                  Alcotest.failf "seed %d: output job %d was performed" seed j)
              out)
      procs
  done

let test_iter_step_keep_try_covers_rest () =
  (* Write-All variant: output FREE must contain every unperformed job
     known to the process, i.e. outputs ∪ performed ⊇ J *)
  for seed = 0 to 10 do
    let procs, _, dos = run_iter_step ~seed ~n:80 ~m:3 ~beta:27 ~keep_try:true in
    let performed = Core.Spec.performed_set dos in
    let covered =
      Array.fold_left
        (fun acc p ->
          match Core.Kk.result p with
          | None -> acc
          | Some out -> Ostree.fold Ostree.add out acc)
        performed procs
    in
    for j = 1 to 80 do
      if not (Ostree.mem j covered) then
        Alcotest.failf "seed %d: job %d in nobody's FREE and unperformed" seed j
    done
  done

let test_heterogeneous_free_sets () =
  (* Lemma 6.1's observation: correctness holds even when processes
     start with different FREE subsets (as IterStepKK instances do).
     Overlapping halves: only the overlap is contested. *)
  let n = 60 and m = 2 in
  let metrics = Shm.Metrics.create ~m in
  let shared =
    Core.Kk.make_shared ~metrics ~m ~capacity:n ~with_flag:true ~name:"kk" ()
  in
  let mk pid free =
    Core.Kk.create ~shared ~pid ~beta:2 ~policy:Core.Policy.Rank_split ~free
      ~mode:(Core.Kk.Iter_step { keep_try = false })
      ()
  in
  let p1 = mk 1 (Core.Job.range_set ~lo:1 ~hi:40) in
  let p2 = mk 2 (Core.Job.range_set ~lo:21 ~hi:60) in
  let outcome =
    Shm.Executor.run
      ~scheduler:(Shm.Schedule.random (Util.Prng.of_int 3))
      ~adversary:Shm.Adversary.none
      [| Core.Kk.handle p1; Core.Kk.handle p2 |]
  in
  let dos = Shm.Trace.do_events outcome.Shm.Executor.trace in
  check_amo dos;
  (* p1 never performs outside its own FREE set, same for p2 *)
  List.iter
    (fun (p, j) ->
      let lo, hi = if p = 1 then (1, 40) else (21, 60) in
      if j < lo || j > hi then Alcotest.failf "p%d did foreign job %d" p j)
    dos

let test_verbose_traces_audit () =
  (* verbose mode emits one Read/Write/Internal event per action; the
     audited full trace must be structurally well-formed and its event
     counts must match the metrics ledger *)
  let s =
    Core.Harness.kk ~trace_level:`Full ~verbose:true ~n:50 ~m:3 ~beta:3 ()
  in
  Analysis.Audit.assert_ok ~m:3 s.Core.Harness.trace;
  let rows = Analysis.Timeline.of_trace ~m:3 s.Core.Harness.trace in
  for p = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "p%d reads = metrics" p)
      (Shm.Metrics.reads s.Core.Harness.metrics ~p)
      rows.(p).Analysis.Timeline.reads;
    Alcotest.(check int)
      (Printf.sprintf "p%d writes = metrics" p)
      (Shm.Metrics.writes s.Core.Harness.metrics ~p)
      rows.(p).Analysis.Timeline.writes
  done

(* Two seeded runs pinned by digest.  The printed trace fixes every
   emitted event with its cell name and write-id, the step count fixes
   the schedule, so any change to how events, names, the live set or
   the random stream are produced shows up here. *)
let test_pinned_seeded_traces () =
  let run ~verbose ~trace_level =
    let s =
      Core.Harness.kk ~verbose ~provenance:true ~trace_level
        ~scheduler:(Shm.Schedule.random (Util.Prng.of_int 5))
        ~n:24 ~m:3 ~beta:3 ()
    in
    let printed = Format.asprintf "%a" Shm.Trace.pp s.Core.Harness.trace in
    ( s.Core.Harness.steps,
      Shm.Trace.length s.Core.Harness.trace,
      Digest.to_hex (Digest.string printed) )
  in
  let pinned = Alcotest.(triple int int string) in
  Alcotest.check pinned "verbose `Full trace"
    (318, 370, "b7050b7adbede4516964eda4828f9b98")
    (run ~verbose:true ~trace_level:`Full);
  Alcotest.check pinned "quiet `Outcomes trace"
    (318, 78, "86547251bf0ce975d576fe3a7d3f16d3")
    (run ~verbose:false ~trace_level:`Outcomes)

(* ---- bounded-exhaustive interleaving check of the full automaton ---- *)

let test_bounded_exhaustive_small () =
  let factory () =
    let metrics = Shm.Metrics.create ~m:2 in
    let shared = Core.Kk.make_shared ~metrics ~m:2 ~capacity:4 ~name:"kk" () in
    Array.init 2 (fun i ->
        Core.Kk.handle
          (Core.Kk.create ~shared ~pid:(i + 1) ~beta:2
             ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n:4)
             ~mode:Core.Kk.Standalone ()))
  in
  let executions =
    Helpers.explore ~factory ~branch_depth:12 ~max_steps:10_000
      ~on_execution:(fun dos ->
        check_amo dos;
        (* Theorem 4.4 guarantee with f=0: at least n-(beta+m-2) = 2 jobs *)
        if Core.Spec.do_count dos < 2 then
          Alcotest.failf "did %d < 2" (Core.Spec.do_count dos))
  in
  Alcotest.(check bool) "explored many interleavings" true (executions > 500)

(* ---- backend independence ---- *)

module Kk_rb = Core.Kk.Make (Rbtree)

let run_rb_backend ~scheduler ~n ~m ~beta =
  let metrics = Shm.Metrics.create ~m in
  let shared = Kk_rb.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let handles =
    Array.init m (fun i ->
        Kk_rb.handle
          (Kk_rb.create ~shared ~pid:(i + 1) ~beta
             ~policy:Core.Policy.Rank_split ~free:(Rbtree.of_range 1 n)
             ~mode:Core.Kk.Standalone ()))
  in
  let outcome =
    Shm.Executor.run ~scheduler ~adversary:Shm.Adversary.none handles
  in
  Shm.Trace.do_events outcome.Shm.Executor.trace

let test_backends_produce_identical_executions () =
  (* the algorithm is deterministic given the schedule, and the two
     tree backends implement the same abstract set, so the executions
     must agree event-for-event *)
  let n = 120 and m = 4 in
  List.iter
    (fun beta ->
      let avl =
        (Core.Harness.kk ~scheduler:(Shm.Schedule.round_robin ()) ~n ~m ~beta ())
          .Core.Harness.dos
      in
      let rb =
        run_rb_backend ~scheduler:(Shm.Schedule.round_robin ()) ~n ~m ~beta
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "identical do-logs (beta=%d)" beta)
        avl rb)
    [ m; 2 * m; 3 * m * m ]

let test_backends_identical_under_random_schedule () =
  for seed = 0 to 5 do
    let record, picks =
      Shm.Schedule.recording (Shm.Schedule.random (Util.Prng.of_int seed))
    in
    let avl =
      (Core.Harness.kk ~scheduler:record ~n:80 ~m:3 ~beta:3 ())
        .Core.Harness.dos
    in
    let rb =
      run_rb_backend
        ~scheduler:(Shm.Schedule.fixed (picks ()))
        ~n:80 ~m:3 ~beta:3
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d" seed)
      avl rb
  done

(* ---- configuration fuzzing ---- *)

let prop_config_fuzz =
  QCheck.Test.make
    ~name:"safety + wait-freedom + Thm 4.4 over random configurations"
    ~count:60
    QCheck.(
      quad (int_range 2 10) (int_range 0 150) (int_range 1 3)
        (int_range 0 100_000))
    (fun (m, extra, beta_mult, seed) ->
      let n = (2 * m) - 1 + extra in
      let beta = beta_mult * m in
      let rng = Util.Prng.of_int seed in
      let f = Util.Prng.int rng m in
      let s =
        Core.Harness.kk
          ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
          ~adversary:(Shm.Adversary.random rng ~f ~m ~horizon:(4 * n))
          ~n ~m ~beta ()
      in
      let amo =
        match Core.Spec.check_at_most_once s.Core.Harness.dos with
        | Ok () -> true
        | Error _ -> false
      in
      amo && s.Core.Harness.wait_free
      && s.Core.Harness.do_count >= n - (beta + m - 2))

(* ---- allocation guards ---- *)

(* FREE and TRY are mutable (Core.Freeset), so once a process exists
   its quiet steps allocate nothing: a `Silent run with a null probe
   and a [perform] returning a preallocated list stays under one minor
   word per step. *)
let test_quiet_step_allocation_free () =
  let n = 4096 and m = 4 in
  let metrics = Shm.Metrics.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let events = [ Shm.Event.Do { p = 0; job = 0 } ] in
  let handles =
    Array.init m (fun i ->
        Core.Kk.handle
          (Core.Kk.create ~shared ~pid:(i + 1) ~beta:m
             ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n)
             ~perform:(fun ~p:_ _ -> events)
             ~mode:Core.Kk.Standalone ()))
  in
  let before = Gc.minor_words () in
  let outcome =
    Shm.Executor.run ~trace_level:`Silent
      ~scheduler:(Shm.Schedule.random (Util.Prng.of_int 3))
      ~adversary:Shm.Adversary.none handles
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "quiescent" true
    (outcome.Shm.Executor.reason = Shm.Executor.Quiescent);
  let per_step = words /. float_of_int outcome.Shm.Executor.steps in
  if per_step >= 1. then Alcotest.failf "%.2f minor words per step" per_step

(* The direct-style loop over plain arrays: under one minor word per
   job once its closures and set exist. *)
let test_direct_run_allocation_free () =
  let n = 4096 and m = 4 in
  let next = Array.make (m + 1) 0 in
  let done_m = Array.init (m + 1) (fun _ -> Array.make (n + 1) 0) in
  let regs pid =
    {
      Core.Kk_direct.read_next = (fun q -> next.(q));
      write_next = (fun v -> next.(pid) <- v);
      read_done = (fun q c -> done_m.(q).(c));
      write_done = (fun c v -> done_m.(pid).(c) <- v);
    }
  in
  let ledger = Shm.Metrics.create ~m in
  let jobs = ref 0 in
  let perform _ = incr jobs in
  let regs = regs 1 and free = Core.Freeset.interval 1 n in
  let before = Gc.minor_words () in
  ignore
    (Core.Kk_direct.run regs ~policy:Core.Policy.Rank_split ~budget:max_int
       ~ledger ~pid:1 ~m ~beta:m ~cols:n ~free ~perform);
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "jobs" (n - m + 1) !jobs;
  let per_job = words /. float_of_int !jobs in
  if per_job >= 1. then Alcotest.failf "%.2f minor words per job" per_job

let suite =
  [
    Helpers.qtest prop_config_fuzz;
    Alcotest.test_case "backends produce identical executions" `Quick
      test_backends_produce_identical_executions;
    Alcotest.test_case "backends identical under random schedules" `Quick
      test_backends_identical_under_random_schedule;
    Alcotest.test_case "amo: round robin" `Quick test_amo_round_robin;
    Alcotest.test_case "amo: all schedulers" `Quick test_amo_all_schedulers;
    Alcotest.test_case "amo: random crashes" `Quick test_amo_with_random_crashes;
    Alcotest.test_case "amo: random policy" `Quick test_amo_random_policy;
    Alcotest.test_case "amo: lowest-free policy" `Quick
      test_amo_lowest_free_policy;
    Alcotest.test_case "lowest-free livelocks under rr" `Quick
      test_lowest_free_can_livelock;
    Alcotest.test_case "amo: edge configs" `Quick test_amo_edge_configs;
    Alcotest.test_case "wait-free over many seeds" `Quick
      test_wait_free_many_seeds;
    Alcotest.test_case "effectiveness guarantee (Thm 4.4 >=)" `Quick
      test_effectiveness_guarantee;
    Alcotest.test_case "failure-free does all jobs" `Quick
      test_effectiveness_failure_free_is_n;
    Alcotest.test_case "upper bound n-f respected (Thm 2.1)" `Quick
      test_upper_bound_never_exceeded;
    Alcotest.test_case "worst-case adversary exact (Thm 4.4 tight)" `Quick
      test_worst_case_adversary_exact;
    Alcotest.test_case "worst-case leaves stuck jobs" `Quick
      test_worst_case_stuck_jobs_never_done;
    Alcotest.test_case "collision bound (Lemma 5.5)" `Quick
      test_collision_bound_beta_3m2;
    Alcotest.test_case "collision bound many seeds" `Quick
      test_collision_bound_many_seeds;
    Alcotest.test_case "work roughly linear in n" `Quick
      test_work_grows_linearly_in_n;
    Alcotest.test_case "internal invariants during run" `Quick
      test_internal_invariants_during_run;
    Alcotest.test_case "DONE matches trace" `Quick
      test_done_set_matches_shared_memory;
    Alcotest.test_case "status progression" `Quick test_status_progression;
    Alcotest.test_case "crash idempotent and final" `Quick
      test_crash_is_idempotent_and_final;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "iter-step: amo" `Quick test_iter_step_amo;
    Alcotest.test_case "iter-step: flag raised" `Quick
      test_iter_step_flag_set_on_termination;
    Alcotest.test_case "iter-step: outputs unperformed (Lemma 6.2)" `Quick
      test_iter_step_outputs_unperformed;
    Alcotest.test_case "iter-step: keep_try covers rest" `Quick
      test_iter_step_keep_try_covers_rest;
    Alcotest.test_case "heterogeneous FREE sets" `Quick
      test_heterogeneous_free_sets;
    Alcotest.test_case "pinned seeded traces" `Quick test_pinned_seeded_traces;
    Alcotest.test_case "quiet step allocation-free" `Quick
      test_quiet_step_allocation_free;
    Alcotest.test_case "direct run allocation-free" `Quick
      test_direct_run_allocation_free;
    Alcotest.test_case "verbose traces audit + match metrics" `Quick
      test_verbose_traces_audit;
    Alcotest.test_case "bounded-exhaustive interleavings" `Slow
      test_bounded_exhaustive_small;
  ]
