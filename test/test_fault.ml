(* Tests for the fault-injection subsystem (lib/fault): the plan DSL
   and its JSON codec, compilation onto the executor/network seams,
   crash-recovery semantics, deterministic replay, ddmin shrinking,
   and the committed golden counterexample plans for both seeded
   mutants. *)

module P = Fault.Plan
module C = Fault.Chaos

let qtest = Helpers.qtest

let read_file = Helpers.read_file

let golden = Helpers.golden

let violation_names (vs : Analysis.Oracle.violation list) =
  List.sort_uniq compare (List.map (fun v -> v.Analysis.Oracle.oracle) vs)

(* ---- plan DSL ---- *)

let test_validate () =
  let ok p =
    match P.validate p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "expected valid: %s" e
  in
  let bad reason p =
    match P.validate p with
    | Ok () -> Alcotest.failf "expected invalid (%s)" reason
    | Error _ -> ()
  in
  ok (P.make ~n:4 ~m:2 ~beta:2 ());
  ok
    (P.make ~n:4 ~m:2 ~beta:2
       ~shm:[ P.Crash_at { pid = 1; step = 3 } ]
       ());
  bad "pid out of range"
    (P.make ~n:4 ~m:2 ~beta:2 ~shm:[ P.Crash_at { pid = 3; step = 0 } ] ());
  bad "m permanent crashes"
    (P.make ~n:4 ~m:2 ~beta:2
       ~shm:
         [ P.Crash_at { pid = 1; step = 0 }; P.Crash_at { pid = 2; step = 0 } ]
       ());
  (* a restart turns a permanent crash into a transient one *)
  ok
    (P.make ~n:4 ~m:2 ~beta:2
       ~shm:
         [
           P.Crash_at { pid = 1; step = 0 };
           P.Crash_at { pid = 2; step = 0 };
           P.Restart_at { pid = 2; step = 5 };
         ]
       ());
  bad "restart without crash"
    (P.make ~n:4 ~m:2 ~beta:2 ~shm:[ P.Restart_at { pid = 1; step = 5 } ] ());
  bad "mixed platforms"
    (P.make ~n:4 ~m:2 ~beta:2
       ~shm:[ P.Crash_at { pid = 1; step = 0 } ]
       ~net:[ P.Drop { prob = 0.5; from_tick = 0; len = 10 } ]
       ());
  bad "probability out of range"
    (P.make ~n:4 ~m:2 ~beta:2
       ~net:[ P.Drop { prob = 1.5; from_tick = 0; len = 10 } ]
       ())

let test_json_rejects_garbage () =
  (match P.of_string "{}" with
  | Ok _ -> Alcotest.fail "accepted empty object"
  | Error _ -> ());
  (match P.of_string {|{"version":99,"name":"x"}|} with
  | Ok _ -> Alcotest.fail "accepted future version"
  | Error _ -> ());
  match
    P.of_string
      {|{"version":1,"name":"x","algo":"kk","seed":1,"n":4,"m":2,"beta":2,
         "sched":{"kind":"fixed","picks":[7]},"shm":[],"net":[]}|}
  with
  | Ok _ -> Alcotest.fail "accepted out-of-range fixed pick"
  | Error _ -> ()

(* Satellite 1a: serialization round-trips for arbitrary generated
   plans, shared-memory and message-passing alike. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"plan JSON round-trip" ~count:300
    QCheck.(triple (int_range 0 100_000) (int_range 1 4) bool)
    (fun (seed, m, net) ->
      let rng = Util.Prng.of_int seed in
      let n = m + Util.Prng.int rng 12 in
      let plan =
        if net then P.gen_net ~name:"rt" ~n ~m ~beta:m ~servers:3 rng
        else
          P.gen
            ~recovery:(Util.Prng.bool rng)
            ~name:"rt" ~n ~m ~beta:m rng
      in
      match P.of_string (P.to_string plan) with
      | Ok plan' -> plan' = plan
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

(* Satellite 1b: every generated plan is valid and within the f <= m-1
   crash budget, and (with beta = m, Lemma 4.3's termination
   condition) the run preserves at-most-once, the recovery-aware
   floor n-(beta+m-2)-r and quiescence — i.e. run_plan reports no
   violation. *)
let prop_generated_plans_safe =
  QCheck.Test.make
    ~name:"generated plans: f <= m-1, AMO + recovery floor + quiescence"
    ~count:150
    QCheck.(triple (int_range 0 100_000) (int_range 2 4) bool)
    (fun (seed, m, recovery) ->
      let rng = Util.Prng.of_int seed in
      let n = m + Util.Prng.int rng 12 in
      let plan = P.gen ~recovery ~name:"prop" ~n ~m ~beta:m rng in
      (match P.validate plan with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "generated plan invalid: %s" e);
      if List.length (P.permanent_crashes plan) > m - 1 then
        QCheck.Test.fail_report "more than m-1 permanent crashes";
      if recovery && not (P.has_recovery plan) then
        QCheck.Test.fail_report "recovery plan without a restart";
      let r = C.run_plan plan in
      if r.C.violations <> [] then
        QCheck.Test.fail_reportf "oracle violation on %s: %s"
          (P.to_string plan)
          (String.concat ", " (violation_names r.C.violations));
      true)

(* ---- deterministic replay (satellite 2) ---- *)

let test_deterministic_replay () =
  let rng = Util.Prng.of_int 2024 in
  for _ = 1 to 10 do
    let plan =
      P.gen ~recovery:true ~name:"replay" ~n:10 ~m:3 ~beta:3
        (Util.Prng.split rng)
    in
    let a = C.run_plan plan and b = C.run_plan plan in
    (* byte-identical do-log, schedule and metrics *)
    Alcotest.(check (list (pair int int))) "same do-log" a.C.dos b.C.dos;
    Alcotest.(check (list int)) "same schedule" a.C.schedule b.C.schedule;
    Alcotest.(check string) "same metrics" a.C.metrics_json b.C.metrics_json;
    Alcotest.(check int) "same steps" a.C.steps b.C.steps
  done

(* ---- crash recovery ---- *)

let test_restart_rebuilds_from_registers () =
  (* crash p1 right after its first perform, restart it: recovery must
     re-scan its done row, re-mark the interrupted announcement, and
     the process must still terminate with AMO intact *)
  let plan =
    P.make ~name:"recovery" ~seed:11 ~n:6 ~m:2 ~beta:2
      ~shm:
        [
          P.Crash_in_phase { pid = 1; phase = "done" };
          P.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let r = C.run_plan plan in
  Alcotest.(check (list int)) "p1 crashed" [ 1 ] r.C.crashes;
  Alcotest.(check (list int)) "p1 restarted" [ 1 ] r.C.restarts;
  Alcotest.(check (list string)) "no violations" [] (violation_names r.C.violations);
  Alcotest.(check bool) "quiesced" true r.C.wait_free;
  (* the recovery-aware floor: one restart forfeits at most one job *)
  Alcotest.(check bool)
    (Printf.sprintf "do_count %d >= %d" r.C.do_count (6 - (2 + 2 - 2) - 1))
    true
    (r.C.do_count >= 6 - (2 + 2 - 2) - 1)

let test_recovery_mutant_caught () =
  (* the seeded recovery bug re-performs the job whose done-write the
     crash interrupted; the correct algorithm must not *)
  let plan algo =
    P.make ~name:"rec-mutant" ~algo ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          P.Crash_in_phase { pid = 1; phase = "done" };
          P.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let good = C.run_plan (plan P.Kk) in
  Alcotest.(check (list string)) "correct algo clean" []
    (violation_names good.C.violations);
  let bad = C.run_plan (plan P.Kk_mutant_skip_recovery_mark) in
  Alcotest.(check (list string)) "mutant trips at-most-once"
    [ "at-most-once" ]
    (violation_names bad.C.violations)

(* ---- stalls and fault kinds ---- *)

let test_stall_windows_harmless () =
  (* stalling a live process reorders but must not break anything *)
  let plan =
    P.make ~name:"stall" ~seed:3 ~n:8 ~m:3 ~beta:3
      ~shm:
        [
          P.Stall { pid = 1; from_step = 0; len = 40 };
          P.Stall { pid = 2; from_step = 10; len = 25 };
          P.Crash_after_writes { pid = 3; writes = 2 };
        ]
      ()
  in
  let r = C.run_plan plan in
  Alcotest.(check (list string)) "no violations" [] (violation_names r.C.violations);
  Alcotest.(check (list int)) "p3 crashed" [ 3 ] r.C.crashes

(* ---- ddmin ---- *)

let test_ddmin () =
  (* minimal failing subset is found, order preserved *)
  let violates l = List.mem 3 l && List.mem 7 l in
  Alcotest.(check (list int))
    "finds {3,7}" [ 3; 7 ]
    (Analysis.Explore.ddmin ~violates (List.init 10 (fun i -> i)));
  (* monotone single-element cause *)
  Alcotest.(check (list int))
    "finds {5}" [ 5 ]
    (Analysis.Explore.ddmin ~violates:(List.mem 5) (List.init 50 (fun i -> i)));
  (* non-failing input is returned unchanged *)
  Alcotest.(check (list int))
    "no failure: unchanged" [ 1; 2 ]
    (Analysis.Explore.ddmin ~violates:(fun _ -> false) [ 1; 2 ])

(* ---- shrinking failures to plans (satellite 3) ---- *)

let check_shrunk_plan ~name (mp : P.t) (mr : C.run_result) =
  if mr.C.violations = [] then
    Alcotest.failf "%s: shrunk plan does not reproduce" name;
  match mp.P.sched with
  | P.Fixed picks ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: shrunk schedule %d picks <= 30" name
           (List.length picks))
        true
        (List.length picks <= 30)
  | _ -> Alcotest.failf "%s: shrunk plan not pinned to a Fixed schedule" name

let test_skip_check_mutant_caught_and_shrunk () =
  let s =
    C.soak ~algo:P.Kk_mutant_skip_check ~seed:1 ~count:64 ~n:4 ~m:2 ~beta:2 ()
  in
  Alcotest.(check bool) "soak catches the mutant" true (s.C.failures > 0);
  match s.C.first_failure with
  | None -> Alcotest.fail "no shrunk failure recorded"
  | Some (mp, mr) -> check_shrunk_plan ~name:"skip-check" mp mr

let test_shrink_recovery_mutant () =
  let plan =
    P.make ~name:"rec-mutant" ~algo:P.Kk_mutant_skip_recovery_mark ~seed:7
      ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          P.Crash_in_phase { pid = 1; phase = "done" };
          P.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let r = C.run_plan plan in
  Alcotest.(check bool) "fails before shrink" true (r.C.violations <> []);
  let mp, mr = C.shrink_failure r in
  check_shrunk_plan ~name:"skip-recovery-mark" mp mr;
  (* shrinking must not lose the faults that matter: the crash and the
     restart are both load-bearing here *)
  Alcotest.(check int) "both faults survive" 2 (List.length mp.P.shm)

(* Golden counterexamples: the shrunk plans committed by the chaos
   harness must stay replayable and keep reproducing their violation
   (same contract as `amo_run chaos --plan FILE` exiting 1). *)
let test_golden_counterexamples () =
  List.iter
    (fun (file, expect_restart) ->
      let path = golden file in
      match P.of_string (read_file path) with
      | Error e -> Alcotest.failf "%s: does not parse: %s" file e
      | Ok plan ->
          let r = C.run_plan plan in
          Alcotest.(check (list string))
            (file ^ " reproduces at-most-once") [ "at-most-once" ]
            (violation_names r.C.violations);
          if expect_restart then
            Alcotest.(check bool) (file ^ " exercises recovery") true
              (r.C.restarts <> []))
    [
      ("chaos_skip_check.plan.json", false);
      ("chaos_skip_recovery_mark.plan.json", true);
    ]

(* The one-line ledger explanation `amo_run chaos --plan FILE` prints
   for each committed counterexample is part of the user-facing
   contract: golden-tested, byte for byte.  Regenerate a .explain.txt
   with the chaos subcommand after an intentional wording change. *)
let test_golden_explanations () =
  List.iter
    (fun (plan_file, explain_file) ->
      match P.of_string (read_file (golden plan_file)) with
      | Error e -> Alcotest.failf "%s: %s" plan_file e
      | Ok plan -> (
          let r = C.run_plan plan in
          let ledger =
            Obs.Ledger.of_trace ~n:plan.P.n ~m:plan.P.m r.C.trace
          in
          match Obs.Ledger.explain_violation ledger with
          | None -> Alcotest.failf "%s: no ledger explanation" plan_file
          | Some got ->
              let want = String.trim (read_file (golden explain_file)) in
              Alcotest.(check string) (plan_file ^ " explanation") want got))
    [
      ("chaos_skip_check.plan.json", "chaos_skip_check.explain.txt");
      ( "chaos_skip_recovery_mark.plan.json",
        "chaos_skip_recovery_mark.explain.txt" );
    ]

(* ---- message passing ---- *)

let test_net_faults_heal () =
  (* duplicate + delay + partition windows all heal: loss-free plans
     must complete every client with AMO and the floor intact *)
  let rng = Util.Prng.of_int 77 in
  let checked = ref 0 in
  for i = 0 to 14 do
    let plan =
      P.gen_net
        ~name:(Printf.sprintf "heal-%02d" i)
        ~n:6 ~m:2 ~beta:2 ~servers:3 (Util.Prng.split rng)
    in
    if not (P.lossy plan) then begin
      incr checked;
      let r = C.run_net_plan plan in
      Alcotest.(check (list string))
        (plan.P.name ^ " clean") []
        (violation_names r.C.violations)
    end
  done;
  Alcotest.(check bool) "checked some loss-free plans" true (!checked > 0)

(* regression: an oversized plan used to slip through replay silently
   — [run_plan] just reported [wait_free = false] and zero violations.
   [replay_plan] must raise with the recorded pick prefix instead. *)
let test_replay_plan_surfaces_max_steps () =
  let plan = P.make ~name:"oversized" ~seed:11 ~n:6 ~m:2 ~beta:2 () in
  let budget = 7 in
  (match C.replay_plan ~max_steps:budget plan with
  | _ -> Alcotest.fail "expected Max_steps_exceeded"
  | exception Analysis.Explore.Max_steps_exceeded { schedule; steps } ->
      Alcotest.(check int) "steps = budget" budget steps;
      Alcotest.(check int)
        "schedule prefix covers every step" budget
        (List.length schedule);
      List.iter
        (fun p ->
          Alcotest.(check bool) "picks are pids" true (p >= 1 && p <= 2))
        schedule);
  (* the same plan under the default budget quiesces and still runs
     clean through replay_plan *)
  let r = C.replay_plan plan in
  Alcotest.(check bool) "default budget quiesces" true r.C.wait_free;
  (* run_plan keeps the old non-raising contract *)
  let r = C.run_plan ~max_steps:budget plan in
  Alcotest.(check bool) "run_plan merely reports" false r.C.wait_free

let test_net_drop_keeps_amo () =
  (* an aggressively lossy channel may strand clients (the liveness
     oracles are waived) but never breaks at-most-once *)
  let plan =
    P.make ~name:"drop" ~seed:13 ~n:6 ~m:2 ~beta:2
      ~net:[ P.Drop { prob = 0.5; from_tick = 0; len = 400 } ]
      ()
  in
  let r = C.run_net_plan plan in
  Alcotest.(check (list string))
    "lossy plan: no violations (liveness waived, AMO holds)" []
    (violation_names r.C.violations)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_validate;
    Alcotest.test_case "plan JSON rejects garbage" `Quick
      test_json_rejects_garbage;
    qtest prop_roundtrip;
    qtest prop_generated_plans_safe;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "restart rebuilds from registers" `Quick
      test_restart_rebuilds_from_registers;
    Alcotest.test_case "recovery mutant caught" `Quick
      test_recovery_mutant_caught;
    Alcotest.test_case "stall windows harmless" `Quick
      test_stall_windows_harmless;
    Alcotest.test_case "ddmin" `Quick test_ddmin;
    Alcotest.test_case "skip-check mutant caught and shrunk" `Quick
      test_skip_check_mutant_caught_and_shrunk;
    Alcotest.test_case "recovery mutant shrunk" `Quick
      test_shrink_recovery_mutant;
    Alcotest.test_case "golden counterexamples replay" `Quick
      test_golden_counterexamples;
    Alcotest.test_case "golden ledger explanations" `Quick
      test_golden_explanations;
    Alcotest.test_case "replay surfaces max-steps" `Quick
      test_replay_plan_surfaces_max_steps;
    Alcotest.test_case "net fault windows heal" `Quick test_net_faults_heal;
    Alcotest.test_case "lossy net keeps AMO" `Quick test_net_drop_keeps_amo;
  ]
