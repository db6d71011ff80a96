(* E18 — runtime profiling and the cross-run observatory.

   Three claims about the profiling/observatory layer (DESIGN.md §12):

   1. Cost: leaving a Runtime_events consumer attached to [`Silent]
      KK runs — collection started, a custom phase span per run, a
      poll per run — costs < 5% CPU time (median of paired on/off
      ratios on the E4 work grid, best row: the estimator E14, E16 and
      E19 share).

   2. Attribution: the Gcstat probe sees exactly the executor's event
      stream (one sample per recorded event) and attributes every
      minor word allocated between the first and last event to some
      (pid, phase) cell — totals agree with the probe-free run's
      event count.

   3. Analysis: over synthetic run histories with known ground truth,
      the observatory flags a seeded median shift as a regression (or
      improvement, direction-aware) and reports zero flags on
      identical series; the trend dashboard renders byte-identically
      for the same store. *)

open Exp_common

(* ---- 1. Runtime_events consumer overhead ---- *)

(* One row of [Exp_common.overhead_row]: [`Silent] runs, instrumented
   vs not.  The on side carries the steady-state protocol a soak
   actually pays per run: collection running, one custom span per run,
   one poll per run.  The off side pauses collection, so its writers
   no-op.  One consumer lives for the whole row — a soak attaches once,
   and a cursor created inside the measurement would fault its ring
   pages into the timed region (measured at ~5% by itself, swamping the
   per-run cost it brackets). *)
let row_overhead ~n ~m ~beta =
  let re = Obs.Rtevents.start () in
  let kk () =
    (Core.Harness.kk ~trace_level:`Silent ~n ~m ~beta ()).Core.Harness.do_count
  in
  let o =
    overhead_row
      ~prepare:(fun on ->
        if on then Obs.Rtevents.resume () else Obs.Rtevents.pause ())
      ~off:kk
      ~on_:(fun () ->
        let d = Obs.Rtevents.with_span "e18.run" kk in
        ignore (Obs.Rtevents.poll re);
        d)
      ()
  in
  ignore (Obs.Rtevents.stop re);
  o

(* ---- 3. synthetic histories with known ground truth ---- *)

let synthetic_series ~exp ~metric ~direction ~baseline_runs ~recent_runs
    ~base ~shift ~jitter ~seed =
  let rng = Util.Prng.of_int seed in
  List.init (baseline_runs + recent_runs) (fun i ->
      let centre = if i < baseline_runs then base else base +. shift in
      {
        Obs.Series.exp;
        metric;
        value = centre +. float_of_int (Util.Prng.int rng jitter);
        direction;
        git_sha = Printf.sprintf "%08x" (0xabc000 + i);
        timestamp = 1_700_000_000 + (i * 3600);
      })

let run () =
  section ~id:"E18" ~title:"runtime profiling and the cross-run observatory"
    ~claim:
      "an attached Runtime_events consumer costs < 5%; Gcstat attributes \
       every executor event; the observatory flags seeded median shifts, \
       never identical series, and renders a byte-deterministic dashboard";
  record_timing ~iterations:overhead_reps ~warmup:2 ~clock:"cpu:Sys.time";
  let all_ok = ref true in
  (* -- 1. consumer overhead on the E4 work grid -- *)
  Printf.printf "  Runtime_events consumer overhead (`Silent trace, m=4):\n";
  let m = 4 in
  param_int "min_batch_ms" (int_of_float (min_batch_seconds *. 1e3));
  param_int "reps" overhead_reps;
  let best_overhead = ref infinity in
  let overhead_rows =
    List.map
      (fun n ->
        let o = row_overhead ~n ~m ~beta:m in
        best_overhead := min !best_overhead o.pct;
        overhead_cells ~n ~m o)
      (if_smoke [ 256; 512 ] [ 256; 512; 1024 ])
  in
  table
    ~header:[ "n"; "m"; "off (ms)"; "on (ms)"; "overhead %" ]
    overhead_rows;
  let overhead_ok = !best_overhead < 5. in
  if not overhead_ok then all_ok := false;
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:5.
    "rtevents_overhead_pct" !best_overhead;
  (* -- 2. Gcstat attribution completeness -- *)
  let gn = if_smoke 128 512 in
  let gc = Obs.Gcstat.create () in
  let s =
    Core.Harness.kk ~trace_level:`Full ~verbose:true
      ~probe:(Obs.Gcstat.probe gc) ~n:gn ~m:4 ~beta:4 ()
  in
  let words, _, _ = Obs.Gcstat.totals gc in
  let attribution_ok =
    Obs.Gcstat.events gc = Shm.Trace.length s.Core.Harness.trace && words > 0.
  in
  if not attribution_ok then all_ok := false;
  Printf.printf
    "\n  gcstat: %d events over %d trace entries, %.0f minor words \
     attributed across %d cells — %s\n"
    (Obs.Gcstat.events gc)
    (Shm.Trace.length s.Core.Harness.trace)
    words
    (List.length (Obs.Gcstat.rows gc))
    (if attribution_ok then "complete" else "INCOMPLETE");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "gcstat_attribution_ok"
    (if attribution_ok then 1. else 0.);
  (* -- 3. observatory verdicts on known ground truth -- *)
  let mk = synthetic_series ~baseline_runs:12 ~recent_runs:5 in
  let regression =
    mk ~exp:"syn" ~metric:"work_regressed"
      ~direction:Obs.Snapshot.Lower_is_better ~base:100. ~shift:30. ~jitter:5
      ~seed:181
  in
  let improvement =
    mk ~exp:"syn" ~metric:"work_improved"
      ~direction:Obs.Snapshot.Lower_is_better ~base:100. ~shift:(-30.)
      ~jitter:5 ~seed:182
  in
  let identical =
    mk ~exp:"syn" ~metric:"work_flat" ~direction:Obs.Snapshot.Lower_is_better
      ~base:100. ~shift:0. ~jitter:1 ~seed:183
  in
  let trends = Obs.Series.trends (regression @ improvement @ identical) in
  let verdict_of metric =
    match List.find_opt (fun t -> t.Obs.Series.metric = metric) trends with
    | Some t -> t.Obs.Series.verdict
    | None -> Obs.Series.Insufficient
  in
  let reg_flagged = verdict_of "work_regressed" = Obs.Series.Regression in
  let imp_flagged = verdict_of "work_improved" = Obs.Series.Improvement in
  let flat_flags =
    List.length
      (Obs.Series.flagged
         (List.filter (fun t -> t.Obs.Series.metric = "work_flat") trends))
  in
  List.iter
    (fun t ->
      Printf.printf
        "  observatory: %-16s baseline %7.2f recent %7.2f shift %+6.1f%% \
         p=%.4f -> %s\n"
        t.Obs.Series.metric t.Obs.Series.baseline_median
        t.Obs.Series.recent_median t.Obs.Series.shift_pct t.Obs.Series.p_value
        (Obs.Series.verdict_to_string t.Obs.Series.verdict))
    trends;
  if not (reg_flagged && imp_flagged && flat_flags = 0) then all_ok := false;
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "synthetic_regression_flagged"
    (if reg_flagged then 1. else 0.);
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "synthetic_improvement_flagged"
    (if imp_flagged then 1. else 0.);
  record_metric ~direction:Obs.Snapshot.Lower_is_better
    "identical_series_flags" (float_of_int flat_flags);
  (* -- 3b. dashboard determinism: two renders, one byte string -- *)
  let d1 = Obs.Series.dashboard_html trends in
  let d2 =
    Obs.Series.dashboard_html
      (Obs.Series.trends (regression @ improvement @ identical))
  in
  let deterministic = String.equal d1 d2 in
  if not deterministic then all_ok := false;
  Printf.printf "  dashboard: %d bytes, re-render %s\n" (String.length d1)
    (if deterministic then "byte-identical" else "DIFFERS");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "dashboard_deterministic"
    (if deterministic then 1. else 0.);
  verdict !all_ok
    "rtevents overhead %.1f%% (< 5%%); gcstat complete; regression and \
     improvement flagged, flat series clean; dashboard deterministic"
    !best_overhead
