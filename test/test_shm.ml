(* Tests for the shared-memory machine: memory, metrics, trace,
   schedulers, adversaries, executor. *)

open Shm

(* ---- memory & metrics ---- *)

let test_vector_rw () =
  let metrics = Metrics.create ~m:2 in
  let v = Memory.vector ~metrics ~name:"v" ~len:3 ~init:0 in
  Alcotest.(check int) "init" 0 (Memory.vget v ~p:1 2);
  Memory.vset v ~p:2 2 42;
  Alcotest.(check int) "written" 42 (Memory.vget v ~p:1 2);
  Alcotest.(check int) "reads by p1" 2 (Metrics.reads metrics ~p:1);
  Alcotest.(check int) "writes by p2" 1 (Metrics.writes metrics ~p:2);
  Alcotest.(check int) "peek unmetered" 42 (Memory.vpeek v 2);
  Alcotest.(check int) "total reads still 2" 2 (Metrics.total_reads metrics)

let test_vector_bounds () =
  let metrics = Metrics.create ~m:1 in
  let v = Memory.vector ~metrics ~name:"v" ~len:3 ~init:0 in
  Alcotest.check_raises "index 0" (Invalid_argument "Memory.v: index 0 out of range")
    (fun () -> ignore (Memory.vget v ~p:1 0));
  Alcotest.check_raises "index 4" (Invalid_argument "Memory.v: index 4 out of range")
    (fun () -> ignore (Memory.vget v ~p:1 4))

let test_matrix_rw () =
  let metrics = Metrics.create ~m:2 in
  let m = Memory.matrix ~metrics ~name:"d" ~rows:2 ~cols:4 ~init:0 in
  Memory.mset m ~p:1 2 3 7;
  Alcotest.(check int) "written" 7 (Memory.mget m ~p:2 2 3);
  Alcotest.(check int) "other cell untouched" 0 (Memory.mget m ~p:2 1 3);
  Alcotest.(check int) "rows" 2 (Memory.matrix_rows m);
  Alcotest.(check int) "cols" 4 (Memory.matrix_cols m);
  Alcotest.(check string) "cell name" "d[2][3]" (Memory.mname m ~row:2 ~col:3)

let test_matrix_bounds () =
  let metrics = Metrics.create ~m:1 in
  let m = Memory.matrix ~metrics ~name:"d" ~rows:2 ~cols:2 ~init:0 in
  Alcotest.check_raises "row 3"
    (Invalid_argument "Memory.d: cell (3,1) out of range") (fun () ->
      ignore (Memory.mget m ~p:1 3 1))

(* Matrix write-ids are kept in 256-cell segments allocated by the first
   write into each; an unwritten cell reads 0 wherever it sits, and a
   written one reads the id its write drew from the ledger. *)
let test_matrix_write_ids () =
  let metrics = Metrics.create ~m:2 in
  let m = Memory.matrix ~metrics ~name:"d" ~rows:3 ~cols:200 ~init:5 in
  let v = Memory.vector ~metrics ~name:"v" ~len:2 ~init:0 in
  let all_zero () =
    let ok = ref true in
    for r = 1 to 3 do
      for c = 1 to 200 do
        if Memory.mwid m r c <> 0 then ok := false
      done
    done;
    !ok
  in
  Alcotest.(check bool) "unwritten cells read 0" true (all_zero ());
  (* cell (2,100) is flat index 299, in the second segment *)
  Memory.mset m ~p:1 2 100 9;
  Memory.vset v ~p:2 1 4;
  Memory.mset m ~p:2 3 200 8;
  Memory.mset m ~p:1 2 100 6;
  Alcotest.(check int) "rewritten cell: its last write" 4 (Memory.mwid m 2 100);
  Alcotest.(check int) "vector write drew id 2" 2 (Memory.vwid v 1);
  Alcotest.(check int) "last cell" 3 (Memory.mwid m 3 200);
  Alcotest.(check int) "same segment, unwritten" 0 (Memory.mwid m 2 101);
  Alcotest.(check int) "first segment, never written" 0 (Memory.mwid m 1 1);
  Alcotest.(check int) "values unchanged by the segments" 6 (Memory.mpeek m 2 100);
  Alcotest.(check int) "untouched value" 5 (Memory.mpeek m 1 1);
  let s = Memory.msnapshot m in
  Alcotest.(check int) "snapshot of a written cell" 8 s.(2).(199);
  Alcotest.(check int) "snapshot of an unwritten cell" 5 s.(0).(0);
  Alcotest.check_raises "mwid bounds"
    (Invalid_argument "Memory.d: cell (4,1) out of range") (fun () ->
      ignore (Memory.mwid m 4 1))

let test_metrics_accounting () =
  let t = Metrics.create ~m:3 in
  Metrics.on_read t ~p:1;
  Metrics.on_read t ~p:1;
  Metrics.on_write t ~p:2;
  Metrics.on_internal t ~p:3;
  Metrics.add_work t ~p:1 10;
  Alcotest.(check int) "total actions" 4 (Metrics.total_actions t);
  Alcotest.(check int) "total work" 10 (Metrics.total_work t);
  Metrics.reset t;
  Alcotest.(check int) "reset" 0 (Metrics.total_actions t)

let test_metrics_bad_pid () =
  let t = Metrics.create ~m:2 in
  Alcotest.check_raises "pid 3" (Invalid_argument "Metrics: process id out of range")
    (fun () -> Metrics.on_read t ~p:3)

let test_register () =
  let metrics = Metrics.create ~m:2 in
  let r = Register.create ~metrics ~name:"flag" ~init:0 in
  Alcotest.(check int) "init" 0 (Register.read r ~p:1);
  Register.write r ~p:2 1;
  Alcotest.(check int) "written" 1 (Register.read r ~p:1);
  Alcotest.(check int) "peek unmetered" 1 (Register.peek r);
  Alcotest.(check string) "name" "flag" (Register.name r);
  Alcotest.(check int) "reads metered" 2 (Metrics.total_reads metrics);
  Alcotest.(check int) "writes metered" 1 (Metrics.total_writes metrics)

let test_snapshots () =
  let metrics = Metrics.create ~m:1 in
  let v = Memory.vector ~metrics ~name:"v" ~len:3 ~init:0 in
  Memory.vset v ~p:1 2 9;
  Alcotest.(check (array int)) "vector snapshot" [| 0; 9; 0 |]
    (Memory.vsnapshot v);
  let m = Memory.matrix ~metrics ~name:"d" ~rows:2 ~cols:2 ~init:0 in
  Memory.mset m ~p:1 2 1 7;
  let s = Memory.msnapshot m in
  Alcotest.(check (array int)) "matrix row 1" [| 0; 0 |] s.(0);
  Alcotest.(check (array int)) "matrix row 2" [| 7; 0 |] s.(1);
  (* snapshots are copies, not views *)
  let before = Metrics.total_reads metrics in
  s.(1).(0) <- 99;
  Alcotest.(check int) "original untouched" 7 (Memory.mpeek m 2 1);
  Alcotest.(check int) "snapshots unmetered" before (Metrics.total_reads metrics)

(* ---- trace ---- *)

let test_trace_levels () =
  let record lvl =
    let tr = Trace.create lvl in
    Trace.record tr ~step:0 (Event.Do { p = 1; job = 5 });
    Trace.record tr ~step:1 (Event.Read { p = 1; cell = "x"; value = 0; wid = 0 });
    Trace.record tr ~step:2 (Event.Crash { p = 2 });
    Trace.record tr ~step:3 (Event.Internal { p = 1; action = "a" });
    Trace.record tr ~step:4 (Event.Terminate { p = 1 });
    tr
  in
  Alcotest.(check int) "silent keeps nothing" 0 (Trace.length (record `Silent));
  Alcotest.(check int) "outcomes keeps do/crash/term" 3
    (Trace.length (record `Outcomes));
  Alcotest.(check int) "full keeps everything" 5 (Trace.length (record `Full));
  let tr = record `Outcomes in
  Alcotest.(check (list (pair int int))) "do events" [ (1, 5) ] (Trace.do_events tr);
  Alcotest.(check (list int)) "crashes" [ 2 ] (Trace.crashes tr);
  Alcotest.(check (list int)) "terminations" [ 1 ] (Trace.terminations tr)

let test_trace_chronological () =
  let tr = Trace.create `Outcomes in
  for i = 1 to 5 do
    Trace.record tr ~step:i (Event.Do { p = 1; job = i })
  done;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ]
    (List.map snd (Trace.do_events tr))

(* ---- schedulers ---- *)

let test_round_robin_cycles () =
  let s = Schedule.round_robin () in
  let alive = [| 1; 2; 3 |] in
  let picks = List.init 6 (fun _ -> Schedule.choose s ~alive) in
  Alcotest.(check (list int)) "cycle" [ 1; 2; 3; 1; 2; 3 ] picks

let test_round_robin_skips_dead () =
  let s = Schedule.round_robin () in
  ignore (Schedule.choose s ~alive:[| 1; 2; 3 |]);
  (* process 2 died *)
  let p = Schedule.choose s ~alive:[| 1; 3 |] in
  Alcotest.(check int) "skips to 3" 3 p

let test_random_scheduler_valid () =
  let s = Schedule.random (Util.Prng.of_int 1) in
  let alive = [| 2; 5; 9 |] in
  for _ = 1 to 100 do
    let p = Schedule.choose s ~alive in
    if not (Array.mem p alive) then Alcotest.failf "invalid pick %d" p
  done

let test_bursty_valid () =
  let s = Schedule.bursty (Util.Prng.of_int 2) ~max_burst:5 in
  let alive = [| 1; 2 |] in
  for _ = 1 to 100 do
    let p = Schedule.choose s ~alive in
    if p <> 1 && p <> 2 then Alcotest.failf "invalid pick %d" p
  done

let test_biased_prefers_favourite () =
  let s = Schedule.biased (Util.Prng.of_int 3) ~favourite:2 ~weight:50 in
  let alive = [| 1; 2; 3 |] in
  let fav = ref 0 in
  for _ = 1 to 300 do
    if Schedule.choose s ~alive = 2 then incr fav
  done;
  Alcotest.(check bool) "favourite dominates" true (!fav > 200)

let test_fixed_replay () =
  let s = Schedule.fixed [ 3; 1; 3 ] in
  let alive = [| 1; 2; 3 |] in
  let picks = List.init 5 (fun _ -> Schedule.choose s ~alive) in
  (* after the script: round-robin fallback *)
  Alcotest.(check (list int)) "script then rr" [ 3; 1; 3; 1; 2 ] picks

let test_choose_empty () =
  let s = Schedule.round_robin () in
  Alcotest.check_raises "empty alive"
    (Invalid_argument "Schedule.choose: no live process") (fun () ->
      ignore (Schedule.choose s ~alive:[||]))

(* ---- a tiny stub automaton for executor tests ---- *)

let stub ~pid ~steps_to_do =
  let remaining = ref steps_to_do in
  let stopped = ref false in
  {
    Automaton.pid;
    step =
      (fun () ->
        decr remaining;
        if !remaining = 0 then [ Event.Terminate { p = pid } ]
        else [ Event.Do { p = pid; job = !remaining } ]);
    alive = (fun () -> (not !stopped) && !remaining > 0);
    crash = (fun () -> stopped := true);
    phase = (fun () -> if !remaining > 0 then "running" else "end");
    footprint = (fun () -> Footprint.Internal);
    fingerprint = (fun () -> Some (Util.Mix.pair pid !remaining));
  }

let test_executor_quiescence () =
  let handles = [| stub ~pid:1 ~steps_to_do:3; stub ~pid:2 ~steps_to_do:5 |] in
  let outcome =
    Executor.run ~scheduler:(Schedule.round_robin ()) ~adversary:Adversary.none
      handles
  in
  Alcotest.(check bool) "quiescent" true (outcome.Executor.reason = Executor.Quiescent);
  Alcotest.(check int) "total steps" 8 outcome.Executor.steps

let test_executor_max_steps () =
  let forever pid =
    let stopped = ref false in
    {
      Automaton.pid;
      step = (fun () -> []);
      alive = (fun () -> not !stopped);
      crash = (fun () -> stopped := true);
      phase = (fun () -> "loop");
      footprint = (fun () -> Footprint.Internal);
      fingerprint = Automaton.opaque;
    }
  in
  let outcome =
    Executor.run ~max_steps:100 ~scheduler:(Schedule.round_robin ())
      ~adversary:Adversary.none
      [| forever 1 |]
  in
  Alcotest.(check bool) "hit budget" true (outcome.Executor.reason = Executor.Max_steps);
  Alcotest.(check int) "exactly budget" 100 outcome.Executor.steps

let test_executor_crash () =
  let handles = [| stub ~pid:1 ~steps_to_do:100; stub ~pid:2 ~steps_to_do:3 |] in
  let outcome =
    Executor.run ~scheduler:(Schedule.round_robin ())
      ~adversary:(Adversary.at_steps [ (10, 1) ])
      handles
  in
  Alcotest.(check (list int)) "p1 crashed" [ 1 ] (Trace.crashes outcome.Executor.trace);
  Alcotest.(check bool) "still quiescent" true
    (outcome.Executor.reason = Executor.Quiescent)

let test_executor_validates_pids () =
  Alcotest.check_raises "pid mismatch"
    (Invalid_argument "Executor.run: handles.(i) must have pid i+1") (fun () ->
      ignore
        (Executor.run ~scheduler:(Schedule.round_robin ())
           ~adversary:Adversary.none
           [| stub ~pid:2 ~steps_to_do:1 |]))

(* ---- the executor's live set ---- *)

(* A process that can be crashed and revived from outside ([stopped]),
   and whose [alive] also turns false, without a step, once [gone ()]
   holds. *)
let revivable ~pid ~steps ~gone =
  let remaining = ref steps and stopped = ref false in
  ( {
      Automaton.pid;
      step =
        (fun () ->
          decr remaining;
          []);
      alive = (fun () -> (not !stopped) && !remaining > 0 && not (gone ()));
      crash = (fun () -> stopped := true);
      phase = (fun () -> "run");
      footprint = (fun () -> Footprint.Internal);
      fingerprint = Automaton.opaque;
    },
    stopped )

let test_executor_live_set () =
  let taken = ref 0 in
  let p1, stopped1 = revivable ~pid:1 ~steps:40 ~gone:(fun () -> false) in
  let p2, stopped2 = revivable ~pid:2 ~steps:40 ~gone:(fun () -> false) in
  let p3, _ = revivable ~pid:3 ~steps:40 ~gone:(fun () -> !taken >= 6) in
  let handles = [| p1; p2; p3 |] in
  (* every array the scheduler saw, with a copy taken when it saw it *)
  let seen = ref [] in
  let scheduler =
    Schedule.custom ~name:"check-live" (fun ~alive ->
        let want = Executor.live_pids handles in
        if alive <> want then
          Alcotest.failf "step %d: scheduler saw %d live, live_pids %d" !taken
            (Array.length alive) (Array.length want);
        seen := (alive, Array.copy alive) :: !seen;
        incr taken;
        alive.(!taken mod Array.length alive))
  in
  (* p2 crashes at step 3 and p3 is gone from step 6.  At step 12 p1
     crashes and p2 is revived in the same iteration: the live set
     changes but keeps its size.  At step 20 p2 crashes, nobody is
     live, and the restarter revives p1. *)
  let revivals = ref 0 in
  let restarter ~step:_ ~handles:_ =
    match !revivals with
    | 0 when !stopped1 ->
        incr revivals;
        stopped2 := false;
        [ 2 ]
    | 1 when !stopped2 ->
        incr revivals;
        stopped1 := false;
        [ 1 ]
    | _ -> []
  in
  let outcome =
    Executor.run ~restarter ~scheduler
      ~adversary:(Adversary.at_steps [ (3, 2); (12, 1); (20, 2) ])
      handles
  in
  Alcotest.(check bool) "quiescent" true
    (outcome.Executor.reason = Executor.Quiescent);
  Alcotest.(check (list int)) "crashes" [ 2; 1; 2 ]
    (Trace.crashes outcome.Executor.trace);
  Alcotest.(check (list int)) "revived" [ 2; 1 ]
    (Trace.restarts outcome.Executor.trace);
  Alcotest.(check int) "one choice per step" outcome.Executor.steps !taken;
  List.iter
    (fun (arr, copy) ->
      if arr <> copy then Alcotest.fail "a live array was mutated after use")
    !seen

(* The executor loop allocates nothing per step: a no-op automaton at
   [`Silent] with the null probe stays under one minor word a step. *)
let test_executor_loop_allocation_free () =
  let noop pid =
    {
      Automaton.pid;
      step = (fun () -> []);
      alive = (fun () -> true);
      crash = (fun () -> ());
      phase = (fun () -> "noop");
      footprint = (fun () -> Footprint.Internal);
      fingerprint = Automaton.opaque;
    }
  in
  List.iter
    (fun (name, scheduler) ->
      let handles = Array.init 8 (fun i -> noop (i + 1)) in
      let steps = 100_000 in
      let before = Gc.minor_words () in
      let outcome =
        Executor.run ~max_steps:steps ~trace_level:`Silent ~scheduler
          ~adversary:Adversary.none handles
      in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (name ^ ": steps") steps outcome.Executor.steps;
      let per_step = words /. float_of_int steps in
      if per_step >= 1. then
        Alcotest.failf "%s: %.2f minor words per step" name per_step)
    [
      ("round-robin", Schedule.round_robin ());
      ("random", Schedule.random (Util.Prng.of_int 1));
    ]

let test_adversary_at_start () =
  let handles = [| stub ~pid:1 ~steps_to_do:5; stub ~pid:2 ~steps_to_do:5 |] in
  let outcome =
    Executor.run ~scheduler:(Schedule.round_robin ())
      ~adversary:(Adversary.at_start [ 1 ])
      handles
  in
  Alcotest.(check (list int)) "crashed at start" [ 1 ]
    (Trace.crashes outcome.Executor.trace);
  (* only p2's work happened *)
  Alcotest.(check int) "steps" 5 outcome.Executor.steps

let test_adversary_random_budget () =
  for seed = 0 to 20 do
    let rng = Util.Prng.of_int seed in
    let adv = Adversary.random rng ~f:2 ~m:4 ~horizon:50 in
    let handles = Array.init 4 (fun i -> stub ~pid:(i + 1) ~steps_to_do:30) in
    let outcome =
      Executor.run ~scheduler:(Schedule.round_robin ()) ~adversary:adv handles
    in
    let crashed = Trace.crashes outcome.Executor.trace in
    if List.length crashed > 2 then Alcotest.fail "crash budget exceeded";
    if List.sort_uniq compare crashed <> List.sort compare crashed then
      Alcotest.fail "process crashed twice"
  done

let test_adversary_random_validates () =
  let rng = Util.Prng.of_int 0 in
  Alcotest.check_raises "f = m rejected"
    (Invalid_argument "Adversary.random: need 0 <= f < m") (fun () ->
      ignore (Adversary.random rng ~f:4 ~m:4 ~horizon:10))

let test_adversary_after_announce () =
  (* a stub whose phase flips to "announced" after its first step *)
  let announcing pid =
    let steps = ref 0 in
    let stopped = ref false in
    {
      Automaton.pid;
      step =
        (fun () ->
          incr steps;
          []);
      alive = (fun () -> (not !stopped) && !steps < 10);
      crash = (fun () -> stopped := true);
      phase = (fun () -> if !steps >= 1 then "announced" else "init");
      footprint = (fun () -> Footprint.Internal);
      fingerprint = Automaton.opaque;
    }
  in
  let handles = [| announcing 1; announcing 2 |] in
  let outcome =
    Executor.run ~scheduler:(Schedule.round_robin ())
      ~adversary:(Adversary.after_announce ~victims:[ 1 ] ~announce_phase:"announced")
      handles
  in
  Alcotest.(check (list int)) "victim crashed" [ 1 ]
    (Trace.crashes outcome.Executor.trace);
  (* p1 stepped once (to announce), then died; p2 ran out its 10 *)
  Alcotest.(check int) "steps" 11 outcome.Executor.steps

let suite =
  [
    Alcotest.test_case "vector read/write + metering" `Quick test_vector_rw;
    Alcotest.test_case "vector bounds" `Quick test_vector_bounds;
    Alcotest.test_case "matrix read/write" `Quick test_matrix_rw;
    Alcotest.test_case "matrix bounds" `Quick test_matrix_bounds;
    Alcotest.test_case "matrix write-ids" `Quick test_matrix_write_ids;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "metrics pid check" `Quick test_metrics_bad_pid;
    Alcotest.test_case "register" `Quick test_register;
    Alcotest.test_case "snapshots" `Quick test_snapshots;
    Alcotest.test_case "trace levels" `Quick test_trace_levels;
    Alcotest.test_case "trace chronological" `Quick test_trace_chronological;
    Alcotest.test_case "round-robin cycles" `Quick test_round_robin_cycles;
    Alcotest.test_case "round-robin skips dead" `Quick test_round_robin_skips_dead;
    Alcotest.test_case "random scheduler valid" `Quick test_random_scheduler_valid;
    Alcotest.test_case "bursty scheduler valid" `Quick test_bursty_valid;
    Alcotest.test_case "biased prefers favourite" `Quick
      test_biased_prefers_favourite;
    Alcotest.test_case "fixed replay" `Quick test_fixed_replay;
    Alcotest.test_case "choose on empty" `Quick test_choose_empty;
    Alcotest.test_case "executor quiescence" `Quick test_executor_quiescence;
    Alcotest.test_case "executor max steps" `Quick test_executor_max_steps;
    Alcotest.test_case "executor crash" `Quick test_executor_crash;
    Alcotest.test_case "executor live set" `Quick test_executor_live_set;
    Alcotest.test_case "executor loop allocation-free" `Quick
      test_executor_loop_allocation_free;
    Alcotest.test_case "executor validates pids" `Quick
      test_executor_validates_pids;
    Alcotest.test_case "adversary at start" `Quick test_adversary_at_start;
    Alcotest.test_case "adversary random budget" `Quick
      test_adversary_random_budget;
    Alcotest.test_case "adversary random validates" `Quick
      test_adversary_random_validates;
    Alcotest.test_case "adversary after announce" `Quick
      test_adversary_after_announce;
  ]
