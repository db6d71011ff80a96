(* E13 — chaos soak: composable fault plans and crash recovery.

   Three claims are exercised at once:

   1. Under seeded random fault plans (crash-at-step / after-k-writes
      / in-phase, restarts, scheduler stall windows) with at most m-1
      permanent crashes, KKβ preserves at-most-once and the
      recovery-aware effectiveness floor n-(β+m-2)-r (r = restarts,
      each conservatively forfeiting one re-marked job — DESIGN.md
      §7), and every run quiesces.

   2. The same holds over message passing: ABD-emulated registers
      under duplicate / delay / partition windows (all healing);
      at-most-once even under lossy windows.

   3. The harness can actually catch bugs: both seeded mutants
      (skip-check, skip-recovery-mark) produce violations that ddmin
      shrinks to minimal replayable plans (<= 30 pinned scheduler
      picks), written as CHAOS_*.json artifacts next to the snapshots
      so `amo_run chaos --plan` can reproduce them. *)

open Exp_common

let sched_len (p : Fault.Plan.t) =
  match p.sched with Fault.Plan.Fixed l -> List.length l | _ -> -1

(* Shrunk counterexample plans ride along with the snapshots (CI
   uploads the whole --json-dir). *)
let save_artifact (p : Fault.Plan.t) =
  match !json_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir ("CHAOS_" ^ p.name ^ ".json") in
      Fault.Plan.save ~path p;
      Printf.printf "  counterexample plan: %s\n" path

let run () =
  section ~id:"E13" ~title:"chaos soak: fault plans and crash recovery"
    ~claim:
      "at-most-once and the recovery-aware floor n-(beta+m-2)-r hold under \
       every composable fault plan (crashes, restarts, stalls; net \
       partitions/dups/delays); seeded mutants are caught and ddmin-shrunk \
       to minimal replayable plans";
  let all_ok = ref true in
  let violations = ref 0 in
  let plans = ref 0 in
  let recovery_plans = ref 0 in
  let restarts = ref 0 in
  (* -- 1. shared-memory soak, correct algorithm: expect zero -- *)
  let soak_row ~label ~seed ~count ~n ~m ~beta =
    let s = Fault.Chaos.soak ~seed ~count ~n ~m ~beta () in
    violations := !violations + s.failures;
    plans := !plans + s.runs;
    recovery_plans := !recovery_plans + s.recovery_runs;
    restarts := !restarts + s.total_restarts;
    if s.failures > 0 then begin
      all_ok := false;
      match s.first_failure with
      | Some (mp, _) -> save_artifact mp
      | None -> ()
    end;
    [
      S label; I n; I m; I beta; I s.runs; I s.recovery_runs;
      I s.total_restarts;
      S (if s.failures = 0 then "ok" else Printf.sprintf "%d VIOLATED" s.failures);
    ]
  in
  (* -- 2. message-passing soak: healing windows, occasional loss -- *)
  let net_row ~label ~seed ~count ~n ~m ~beta ~servers =
    let rng = Util.Prng.of_int seed in
    let bad = ref 0 and lossy = ref 0 in
    for i = 0 to count - 1 do
      let plan =
        Fault.Plan.gen_net
          ~name:(Printf.sprintf "net-%03d" i)
          ~n ~m ~beta ~servers (Util.Prng.split rng)
      in
      let r = Fault.Chaos.run_net_plan ~servers plan in
      if Fault.Plan.lossy plan then incr lossy;
      if r.violations <> [] then begin
        incr bad;
        save_artifact { plan with Fault.Plan.name = plan.Fault.Plan.name ^ "-bad" }
      end
    done;
    violations := !violations + !bad;
    plans := !plans + count;
    if !bad > 0 then all_ok := false;
    [
      S label; I n; I m; I beta; I count; I !lossy; I 0;
      S (if !bad = 0 then "ok" else Printf.sprintf "%d VIOLATED" !bad);
    ]
  in
  let count = if_smoke 100 300 in
  param_int "plans_per_config" count;
  let rows =
    [
      (* beta = m: Lemma 4.3's termination condition, so all three
         oracles (AMO, recovery floor, quiescence) are armed *)
      soak_row ~label:"shm soak" ~seed:101 ~count ~n:12 ~m:3 ~beta:3;
      soak_row ~label:"shm soak" ~seed:202 ~count ~n:10 ~m:4 ~beta:4;
      net_row ~label:"net soak" ~seed:303 ~count:(if_smoke 30 100) ~n:8 ~m:2
        ~beta:2 ~servers:3;
    ]
  in
  table
    ~header:
      [
        "scenario"; "n"; "m"; "beta"; "plans"; "recovery/lossy"; "restarts";
        "oracles";
      ]
    rows;
  (* -- 3. the mutants must be caught and shrunk -- *)
  Printf.printf "\n  mutant detection (the harness must catch seeded bugs):\n";
  let mutants_caught = ref 0 in
  let max_shrunk = ref 0 in
  let report_mutant label (mp, (mr : Fault.Chaos.run_result)) =
    let len = max 0 (sched_len mp) in
    let faults = List.length mp.Fault.Plan.shm in
    let reproduced = mr.violations <> [] in
    if reproduced then incr mutants_caught else all_ok := false;
    if len > 30 then all_ok := false;
    max_shrunk := max !max_shrunk len;
    Printf.printf
      "    %-22s caught, shrunk to %d fault(s) + %d pinned pick(s): %s\n" label
      faults len
      (if reproduced then
         String.concat ", "
           (List.map (fun v -> v.Analysis.Oracle.oracle) mr.violations)
       else "SHRUNK PLAN DOES NOT REPRODUCE");
    save_artifact mp
  in
  (* skip-check: random plans find it quickly at n=4, m=2 *)
  let sc =
    Fault.Chaos.soak ~algo:Fault.Plan.Kk_mutant_skip_check ~seed:1 ~count:64
      ~n:4 ~m:2 ~beta:2 ()
  in
  (match sc.first_failure with
  | Some failure -> report_mutant "mutant-skip-check" failure
  | None ->
      all_ok := false;
      Printf.printf "    mutant-skip-check      NOT caught in %d plans\n" sc.runs);
  (* skip-recovery-mark: deterministic crash in the Do->done-write
     window followed by a restart *)
  let rec_plan =
    Fault.Plan.make ~name:"mutant-skip-recovery-mark"
      ~algo:Fault.Plan.Kk_mutant_skip_recovery_mark ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let rr = Fault.Chaos.run_plan rec_plan in
  if rr.violations = [] then begin
    all_ok := false;
    Printf.printf "    mutant-skip-recovery-mark NOT caught\n"
  end
  else report_mutant "mutant-skip-recovery-mark" (Fault.Chaos.shrink_failure rr);
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:0.
    "oracle_violations"
    (float_of_int !violations);
  record_metric "plans" (float_of_int !plans);
  record_metric ~direction:Obs.Snapshot.Higher_is_better "recovery_plans"
    (float_of_int !recovery_plans);
  record_metric "restarts" (float_of_int !restarts);
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:2. "mutants_caught"
    (float_of_int !mutants_caught);
  record_metric ~direction:Obs.Snapshot.Lower_is_better "max_shrunk_picks"
    (float_of_int !max_shrunk);
  verdict !all_ok
    "0 oracle violations across %d plans (%d with recovery, %d restarts); \
     both mutants caught and shrunk to replayable plans"
    !plans !recovery_plans !restarts
