(* Tests for the execution-analysis library: timelines, audits, CSV
   export, and schedule record/replay. *)

let run_kk_full ?(n = 40) ?(m = 3) ?(adversary = Shm.Adversary.none)
    ?(scheduler = Shm.Schedule.round_robin ()) () =
  Core.Harness.kk ~scheduler ~adversary ~trace_level:`Full ~verbose:true ~n ~m
    ~beta:m ()

(* ---- timeline ---- *)

let test_timeline_counts () =
  let s = run_kk_full () in
  let rows = Analysis.Timeline.of_trace ~m:3 s.Core.Harness.trace in
  let total_dos = Array.fold_left (fun a r -> a + r.Analysis.Timeline.dos) 0 rows in
  Alcotest.(check int) "dos total" (List.length s.Core.Harness.dos) total_dos;
  for p = 1 to 3 do
    let r = rows.(p) in
    Alcotest.(check bool) "terminated" true
      (r.Analysis.Timeline.fate = Analysis.Timeline.Terminated);
    Alcotest.(check bool) "appeared" true (r.Analysis.Timeline.first_step >= 0);
    Alcotest.(check bool) "ordered steps" true
      (r.Analysis.Timeline.first_step <= r.Analysis.Timeline.last_step);
    Alcotest.(check bool) "did reads" true (r.Analysis.Timeline.reads > 0);
    Alcotest.(check bool) "did writes" true (r.Analysis.Timeline.writes > 0)
  done

let test_timeline_crash_fate () =
  let s = run_kk_full ~adversary:(Shm.Adversary.at_steps [ (5, 2) ]) () in
  let rows = Analysis.Timeline.of_trace ~m:3 s.Core.Harness.trace in
  Alcotest.(check bool) "p2 crashed" true
    (rows.(2).Analysis.Timeline.fate = Analysis.Timeline.Crashed)

let test_timeline_outcomes_level () =
  (* at `Outcomes level, action-kind counters stay zero but dos work *)
  let s =
    Core.Harness.kk ~trace_level:`Outcomes ~n:30 ~m:2 ~beta:2 ()
  in
  let rows = Analysis.Timeline.of_trace ~m:2 s.Core.Harness.trace in
  Alcotest.(check int) "no reads recorded" 0 rows.(1).Analysis.Timeline.reads;
  Alcotest.(check bool) "dos recorded" true (rows.(1).Analysis.Timeline.dos > 0)

(* ---- audit ---- *)

let test_audit_accepts_real_traces () =
  List.iter
    (fun (name, sched) ->
      let s = run_kk_full ~scheduler:sched ~n:60 ~m:4 () in
      match Analysis.Audit.check ~m:4 s.Core.Harness.trace with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "%s: %s" name
            (Format.asprintf "%a" Analysis.Audit.pp_violation v))
    (Helpers.schedulers_for 3)

let test_audit_accepts_crash_traces () =
  let s =
    run_kk_full
      ~adversary:(Shm.Adversary.random (Util.Prng.of_int 4) ~f:2 ~m:3 ~horizon:500)
      ()
  in
  Analysis.Audit.assert_ok ~m:3 s.Core.Harness.trace

let make_trace events =
  let tr = Shm.Trace.create `Full in
  List.iteri (fun i e -> Shm.Trace.record tr ~step:i e) events;
  tr

let test_audit_rejects_event_after_crash () =
  let tr =
    make_trace [ Shm.Event.Crash { p = 1 }; Shm.Event.Do { p = 1; job = 1 } ]
  in
  match Analysis.Audit.check ~m:2 tr with
  | Ok () -> Alcotest.fail "missed zombie event"
  | Error v -> Alcotest.(check string) "what" "event after crash" v.Analysis.Audit.what

let test_audit_rejects_event_after_terminate () =
  let tr =
    make_trace [ Shm.Event.Terminate { p = 1 }; Shm.Event.Do { p = 1; job = 1 } ]
  in
  match Analysis.Audit.check ~m:2 tr with
  | Ok () -> Alcotest.fail "missed post-termination event"
  | Error v ->
      Alcotest.(check string) "what" "event after termination"
        v.Analysis.Audit.what

let test_audit_rejects_bad_pid () =
  let tr = make_trace [ Shm.Event.Do { p = 7; job = 1 } ] in
  match Analysis.Audit.check ~m:2 tr with
  | Ok () -> Alcotest.fail "missed bad pid"
  | Error v -> Alcotest.(check string) "what" "pid out of range" v.Analysis.Audit.what

(* ---- csv ---- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Analysis.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Analysis.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Analysis.Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Analysis.Csv.escape "a\nb")

let test_csv_document () =
  let doc =
    Analysis.Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "a,b" ]; [ "2"; "c" ] ]
  in
  Alcotest.(check string) "document" "x,y\n1,\"a,b\"\n2,c\n" doc

let test_csv_do_events () =
  let doc = Analysis.Csv.of_do_events [ (1, 5); (2, 7) ] in
  Alcotest.(check string) "do events" "seq,pid,job\n0,1,5\n1,2,7\n" doc

let test_csv_timeline_shape () =
  let s = run_kk_full () in
  let rows = Analysis.Timeline.of_trace ~m:3 s.Core.Harness.trace in
  let doc = Analysis.Csv.of_timeline rows in
  let lines = String.split_on_char '\n' (String.trim doc) in
  Alcotest.(check int) "header + m rows" 4 (List.length lines)

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "amo" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Analysis.Csv.write_file ~path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "file contents" "a\n1\n2\n" contents)

(* ---- schedule record/replay ---- *)

let test_record_replay_reproduces_trace () =
  let record, picks =
    Shm.Schedule.recording (Shm.Schedule.random (Util.Prng.of_int 11))
  in
  let s1 = Core.Harness.kk ~scheduler:record ~n:50 ~m:4 ~beta:4 () in
  let s2 =
    Core.Harness.kk ~scheduler:(Shm.Schedule.fixed (picks ())) ~n:50 ~m:4
      ~beta:4 ()
  in
  Alcotest.(check (list (pair int int))) "identical do log"
    s1.Core.Harness.dos s2.Core.Harness.dos;
  Alcotest.(check int) "identical step count" s1.Core.Harness.steps
    s2.Core.Harness.steps

let test_recording_is_transparent () =
  let plain = Core.Harness.kk ~scheduler:(Shm.Schedule.round_robin ()) ~n:40 ~m:3 ~beta:3 () in
  let rec_sched, _ = Shm.Schedule.recording (Shm.Schedule.round_robin ()) in
  let recorded = Core.Harness.kk ~scheduler:rec_sched ~n:40 ~m:3 ~beta:3 () in
  Alcotest.(check (list (pair int int))) "same behaviour"
    plain.Core.Harness.dos recorded.Core.Harness.dos

(* ---- gantt ---- *)

let test_gantt_shape () =
  let s = run_kk_full ~n:40 ~m:3 () in
  let chart = Analysis.Gantt.render ~m:3 ~width:40 s.Core.Harness.trace in
  let lines = String.split_on_char '\n' (String.trim chart) in
  Alcotest.(check int) "one lane per process" 3 (List.length lines);
  List.iter
    (fun line ->
      (* "pN   |" ++ width chars ++ "|" *)
      Alcotest.(check int) "lane width" (6 + 40 + 1) (String.length line))
    lines;
  (* every process performed jobs and terminated *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "has D" true (String.contains line 'D');
      Alcotest.(check bool) "has T" true (String.contains line 'T'))
    lines

let test_gantt_crash_mark () =
  let s =
    run_kk_full ~n:40 ~m:3 ~adversary:(Shm.Adversary.at_steps [ (10, 2) ]) ()
  in
  let chart = Analysis.Gantt.render ~m:3 ~width:40 s.Core.Harness.trace in
  let lines = String.split_on_char '\n' (String.trim chart) in
  let p2 = List.nth lines 1 in
  Alcotest.(check bool) "p2 crashed" true (String.contains p2 'X');
  Alcotest.(check bool) "p2 blank after crash" true (String.contains p2 ' ')

let test_gantt_empty_trace () =
  let chart = Analysis.Gantt.render ~m:2 ~width:10 (Shm.Trace.create `Outcomes) in
  let lines = String.split_on_char '\n' (String.trim chart) in
  Alcotest.(check int) "two lanes" 2 (List.length lines)

(* ---- monte carlo ---- *)

let test_montecarlo_summary () =
  let s =
    Analysis.Montecarlo.sweep
      ~seeds:[ 10; 20; 30; 40 ]
      ~f:(fun ~seed -> float_of_int seed)
  in
  Alcotest.(check int) "runs" 4 s.Analysis.Montecarlo.runs;
  Alcotest.(check (float 1e-9)) "mean" 25. s.Analysis.Montecarlo.mean;
  Alcotest.(check (float 1e-9)) "min" 10. s.Analysis.Montecarlo.min;
  Alcotest.(check (float 1e-9)) "max" 40. s.Analysis.Montecarlo.max;
  Alcotest.(check int) "argmin seed" 10 s.Analysis.Montecarlo.argmin_seed;
  Alcotest.(check int) "argmax seed" 40 s.Analysis.Montecarlo.argmax_seed;
  Alcotest.(check (float 1e-9)) "median" 25. s.Analysis.Montecarlo.p50

let test_montecarlo_empty () =
  Alcotest.check_raises "empty seeds"
    (Invalid_argument "Montecarlo.sweep: empty seed list") (fun () ->
      ignore (Analysis.Montecarlo.sweep ~seeds:[] ~f:(fun ~seed:_ -> 0.)))

let test_montecarlo_effectiveness_sweep () =
  (* end-to-end: the observable is KK effectiveness under crashes; the
     minimum across seeds must respect Theorem 4.4 *)
  let n = 80 and m = 4 in
  let s =
    Analysis.Montecarlo.sweep_runs ~k:10 ~base:500
      ~f:(fun ~seed ->
        let rng = Util.Prng.of_int seed in
        let r =
          Core.Harness.kk
            ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
            ~adversary:(Shm.Adversary.random rng ~f:(m - 1) ~m ~horizon:1000)
            ~n ~m ~beta:m ()
        in
        float_of_int r.Core.Harness.do_count)
      ()
  in
  Alcotest.(check bool) "min respects Thm 4.4" true
    (s.Analysis.Montecarlo.min >= float_of_int (n - (2 * m) + 2))

(* ---- explorer ---- *)

let test_explore_fully_exhaustive () =
  (* two tiny trivial processes: the schedule space is small enough to
     cover completely, and the do-multiset is schedule-independent *)
  let stats =
    Helpers.explore_dos
      ~factory:(fun () -> Core.Trivial.processes ~n:4 ~m:2)
      ~branch_depth:10 ~max_steps:100
      ~on_execution:(fun dos ->
        Alcotest.(check int) "all 4 jobs" 4 (Core.Spec.do_count dos))
      ()
  in
  Alcotest.(check bool) "fully exhaustive" true
    stats.Analysis.Explore.fully_exhaustive;
  (* interleavings of 2+2 atomic steps: C(4,2) = 6 *)
  Alcotest.(check int) "execution count" 6 stats.Analysis.Explore.executions

let test_explore_truncation_flag () =
  let stats =
    Helpers.explore_dos
      ~factory:(fun () -> Core.Trivial.processes ~n:40 ~m:2)
      ~branch_depth:3 ~max_steps:1000
      ~on_execution:(fun _ -> ())
      ()
  in
  Alcotest.(check bool) "truncated" false stats.Analysis.Explore.fully_exhaustive;
  Alcotest.(check int) "2^3 prefixes" 8 stats.Analysis.Explore.executions

let test_explore_detects_nontermination () =
  (* an automaton that never finishes must be reported, not hang; the
     exception carries the offending schedule prefix for replay *)
  let forever pid =
    let stopped = ref false in
    {
      Shm.Automaton.pid;
      step = (fun () -> []);
      alive = (fun () -> not !stopped);
      crash = (fun () -> stopped := true);
      phase = (fun () -> "loop");
      footprint = (fun () -> Shm.Footprint.Internal);
      fingerprint = Shm.Automaton.opaque;
    }
  in
  match
    Helpers.explore_dos
      ~factory:(fun () -> [| forever 1 |])
      ~branch_depth:2 ~max_steps:50
      ~on_execution:(fun _ -> ())
      ()
  with
  | _ -> Alcotest.fail "non-termination not reported"
  | exception Analysis.Explore.Max_steps_exceeded { schedule; steps } ->
      Alcotest.(check int) "steps at budget" 50 steps;
      Alcotest.(check int) "prefix length" 50 (List.length schedule);
      Alcotest.(check bool) "prefix names the looping pid" true
        (List.for_all (fun p -> p = 1) schedule)

let suite =
  [
    Alcotest.test_case "timeline counts" `Quick test_timeline_counts;
    Alcotest.test_case "gantt shape" `Quick test_gantt_shape;
    Alcotest.test_case "gantt crash mark" `Quick test_gantt_crash_mark;
    Alcotest.test_case "gantt empty trace" `Quick test_gantt_empty_trace;
    Alcotest.test_case "montecarlo summary" `Quick test_montecarlo_summary;
    Alcotest.test_case "montecarlo empty" `Quick test_montecarlo_empty;
    Alcotest.test_case "montecarlo effectiveness sweep" `Quick
      test_montecarlo_effectiveness_sweep;
    Alcotest.test_case "explore fully exhaustive" `Quick
      test_explore_fully_exhaustive;
    Alcotest.test_case "explore truncation flag" `Quick
      test_explore_truncation_flag;
    Alcotest.test_case "explore detects nontermination" `Quick
      test_explore_detects_nontermination;
    Alcotest.test_case "timeline crash fate" `Quick test_timeline_crash_fate;
    Alcotest.test_case "timeline at outcomes level" `Quick
      test_timeline_outcomes_level;
    Alcotest.test_case "audit accepts real traces" `Quick
      test_audit_accepts_real_traces;
    Alcotest.test_case "audit accepts crash traces" `Quick
      test_audit_accepts_crash_traces;
    Alcotest.test_case "audit rejects zombie events" `Quick
      test_audit_rejects_event_after_crash;
    Alcotest.test_case "audit rejects post-termination events" `Quick
      test_audit_rejects_event_after_terminate;
    Alcotest.test_case "audit rejects bad pid" `Quick test_audit_rejects_bad_pid;
    Alcotest.test_case "csv escaping" `Quick test_csv_escape;
    Alcotest.test_case "csv document" `Quick test_csv_document;
    Alcotest.test_case "csv do events" `Quick test_csv_do_events;
    Alcotest.test_case "csv timeline shape" `Quick test_csv_timeline_shape;
    Alcotest.test_case "csv file roundtrip" `Quick test_csv_roundtrip_file;
    Alcotest.test_case "record/replay reproduces trace" `Quick
      test_record_replay_reproduces_trace;
    Alcotest.test_case "recording is transparent" `Quick
      test_recording_is_transparent;
  ]
