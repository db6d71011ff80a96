(* E14 — provenance ledger: oracle agreement and probe overhead.

   Two claims about the observability layer itself (DESIGN.md §8):

   1. Agreement: on every run — the E2 adversary grid (random
      schedules, f = m−1 crashes), the constructive worst-case
      adversary, and a sample of chaos fault plans with restarts —
      the per-job ledger reconciles exactly with the effectiveness
      oracles: the fates partition the job universe
      (performed + forfeited + lost + recovered + violations = n),
      the performed count equals Do(α), and the unperformed buckets
      fit the recovery-aware slack β + m − 2 + r.  As a negative
      control, the seeded skip-check mutant must make the
      ledger-agreement oracle fire.

   2. Cost: provenance annotations are pure trace decorations — with
      a [`Silent] trace and the null probe, a provenance-enabled run
      does the same metered work as a plain one and its CPU-time
      overhead on the E4 work grid stays under 5% (median of paired
      on/off ratios, worst grid row; [Exp_common.overhead_row]). *)

open Exp_common

let agreement_oracles ~n ~m ~beta =
  [
    Analysis.Oracle.at_most_once;
    Analysis.Oracle.recovery_effectiveness ~n ~m ~beta;
    Analysis.Oracle.ledger_agreement ~n ~m ~beta;
  ]

(* One agreement row: run, rebuild the ledger, check the oracles, and
   report the fate partition. *)
let check_trace ~label ~n ~m ~beta trace =
  let ledger = Obs.Ledger.of_trace ~n ~m trace in
  let c = Obs.Ledger.counts ledger in
  let violations =
    Analysis.Oracle.check_all (agreement_oracles ~n ~m ~beta) trace
  in
  let ok = violations = [] && Obs.Ledger.reconciles ledger in
  ( ok,
    [
      S label; I n; I m; I beta;
      I c.Obs.Ledger.performed;
      I c.Obs.Ledger.forfeited;
      I c.Obs.Ledger.lost;
      I c.Obs.Ledger.recovered;
      S
        (if ok then "agree"
         else
           String.concat "; "
             (List.map
                (fun v -> v.Analysis.Oracle.oracle)
                violations)
           ^ " FIRED");
    ] )

let kk_do_count ~provenance ~n ~m ~beta () =
  (Core.Harness.kk ~trace_level:`Silent ~provenance ~n ~m ~beta ())
    .Core.Harness.do_count

let run () =
  section ~id:"E14" ~title:"provenance ledger: agreement and overhead"
    ~claim:
      "per-job ledger fates partition the universe and reconcile with the \
       effectiveness oracles on adversary, worst-case and chaos runs; \
       provenance probes cost < 5% with no sink attached";
  let all_ok = ref true in
  let n = if_smoke 256 1024 in
  let n_seeds = if_smoke 2 5 in
  param_int "n" n;
  param_int "seeds" n_seeds;
  (* -- 1a. the E2 adversary grid: random schedules, f = m-1 -- *)
  let grid_rows =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun beta ->
            List.map
              (fun seed ->
                let s =
                  kk_random_run ~provenance:true ~seed ~n ~m ~beta ~f:(m - 1)
                    ()
                in
                let ok, row =
                  check_trace
                    ~label:(Printf.sprintf "random f=m-1 seed=%d" seed)
                    ~n ~m ~beta s.Core.Harness.trace
                in
                if not ok then all_ok := false;
                row)
              (seeds n_seeds))
          [ m; 2 * m ])
      (if_smoke [ 2; 4 ] [ 2; 4; 8 ])
  in
  (* -- 1b. the constructive worst-case adversary -- *)
  let worst_rows =
    List.map
      (fun m ->
        let beta = m in
        let s = Core.Harness.kk_worst_case ~provenance:true ~n ~m ~beta () in
        let ok, row =
          check_trace ~label:"worst-case adversary" ~n ~m ~beta
            s.Core.Harness.trace
        in
        if not ok then all_ok := false;
        row)
      (if_smoke [ 2; 4 ] [ 2; 4; 8 ])
  in
  (* -- 1c. chaos plans with crash recovery (restarts in play) -- *)
  let chaos_rows =
    let cn = 12 and cm = 3 in
    let root = Util.Prng.of_int 4242 in
    List.map
      (fun i ->
        let rng = Util.Prng.split root in
        let plan =
          Fault.Plan.gen ~recovery:(i mod 2 = 0) ~stalls:true
            ~name:(Printf.sprintf "e14-chaos-%02d" i)
            ~n:cn ~m:cm ~beta:cm rng
        in
        let r = Fault.Chaos.run_plan plan in
        let ok, row =
          check_trace
            ~label:(Printf.sprintf "chaos %s" plan.Fault.Plan.name)
            ~n:cn ~m:cm ~beta:cm r.Fault.Chaos.trace
        in
        if not ok then all_ok := false;
        row)
      (List.init (if_smoke 4 12) Fun.id)
  in
  table
    ~header:
      [
        "scenario"; "n"; "m"; "beta"; "performed"; "forfeited"; "lost";
        "recovered"; "ledger vs oracles";
      ]
    (grid_rows @ worst_rows @ chaos_rows);
  let agreement_runs = List.length grid_rows + List.length worst_rows
                       + List.length chaos_rows in
  record_metric ~direction:Obs.Snapshot.Higher_is_better
    ~predicted:(float_of_int agreement_runs)
    "agreement_runs_passed"
    (float_of_int (if !all_ok then agreement_runs else 0));
  (* -- 1d. negative control: the mutant must trip ledger agreement -- *)
  let mutant_plan =
    Fault.Plan.make ~name:"e14-mutant"
      ~algo:Fault.Plan.Kk_mutant_skip_recovery_mark ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let mr = Fault.Chaos.run_plan mutant_plan in
  let mutant_caught =
    Analysis.Oracle.check_all
      [ Analysis.Oracle.ledger_agreement ~n:2 ~m:2 ~beta:2 ]
      mr.Fault.Chaos.trace
    <> []
  in
  if not mutant_caught then all_ok := false;
  Printf.printf "\n  negative control: skip-recovery-mark mutant %s\n"
    (if mutant_caught then "trips ledger agreement (as it must)"
     else "NOT caught by ledger agreement");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "mutant_caught"
    (if mutant_caught then 1. else 0.);
  (* -- 2. probe overhead on the E4 work grid -- *)
  Printf.printf "\n  probe overhead (`Silent trace, null probe, m=4):\n";
  let m = 4 in
  let worst_overhead = ref 0. in
  let overhead_rows =
    List.map
      (fun n ->
        let beta = m in
        let o =
          overhead_row
            ~off:(kk_do_count ~provenance:false ~n ~m ~beta)
            ~on_:(kk_do_count ~provenance:true ~n ~m ~beta)
            ()
        in
        worst_overhead := max !worst_overhead o.pct;
        overhead_cells ~n ~m o)
      (if_smoke [ 256; 512 ] [ 256; 512; 1024 ])
  in
  table
    ~header:[ "n"; "m"; "off (ms)"; "on (ms)"; "overhead %" ]
    overhead_rows;
  let overhead_ok = !worst_overhead < 5. in
  if not overhead_ok then all_ok := false;
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:5.
    "probe_overhead_pct" !worst_overhead;
  verdict !all_ok
    "ledger fates partition n and agree with the oracles on %d runs; mutant \
     caught; provenance overhead %.1f%% (< 5%%)"
    agreement_runs !worst_overhead
