(* One run of one algorithm: kk, claim, worst, iterative, wa, trivial,
   pairing (simulated executor), msg (ABD message passing) and
   multicore (OCaml 5 domains). *)

open Cmdliner
module J = Obs.Json
open Cli

(* a Chrome trace needs the full event stream; plain runs keep the
   cheap outcome-only trace *)
let trace_level_for trace_out : Shm.Trace.level =
  if trace_out = None then `Outcomes else `Full

let write_trace ~json ~label ~m trace_out (trace : Shm.Trace.t) =
  Option.iter
    (fun path ->
      save ~json "chrome trace" path
        (Obs.Chrome_trace.to_string
           (Obs.Chrome_trace.events ~run_name:label
              ~heatmap:(Obs.Heatmap.of_trace trace) ~m trace)))
    trace_out

(* The summary of a simulated run; the upper bound counts the crashes
   that actually happened, not the requested budget. *)
let summary_rows ~label ~n ~m (s : Core.Harness.summary) =
  let f = List.length s.crashed in
  let upper = Core.Params.effectiveness_upper_bound ~n ~f in
  [
    fields (head ~algorithm:label ~n ~m);
    amo_row ~note:"" s.dos;
    row "algorithm" label [];
    row "jobs performed"
      (Printf.sprintf "%d / %d (upper bound with f=%d crashes: %d)" s.do_count n
         f upper)
      [ ("do_count", J.Int s.do_count); ("upper_bound", J.Int upper) ];
    row "wait-free" (string_of_bool s.wait_free) [ ("wait_free", J.Bool s.wait_free) ];
    int_row "steps" "steps" s.steps;
    row "crashed procs" (pids s.crashed) [ ("crashed", ints s.crashed) ];
    int_row "work (weighted)" "work" (Shm.Metrics.total_work s.metrics);
    int_row "shared reads" "reads" (Shm.Metrics.total_reads s.metrics);
    int_row "shared writes" "writes" (Shm.Metrics.total_writes s.metrics);
    int_row "collisions" "collisions" (Core.Collision.total s.collision);
    fields [ ("metrics", metrics_json s.metrics) ];
  ]

(* Print a simulated run's summary and [extra] rows, write its Chrome
   trace, and exit 1 unless at-most-once held and [ok]. *)
let finish ~json ~label ~m ~n ~trace_out ~ok extra (s : Core.Harness.summary) =
  print ~json (summary_rows ~label ~n ~m s @ extra);
  write_trace ~json ~label ~m trace_out s.trace;
  if not (ok && amo_ok s.dos) then exit 1

(* One-shot Prometheus snapshot of a finished KK run: headline
   counters plus a per-process work-distribution histogram. *)
let kk_metrics ~n ~m ~beta (s : Core.Harness.summary) reg =
  let labels = int_params [ ("n", n); ("m", m); ("beta", beta) ] in
  prom_counters reg ~labels
    [
      ("amo_kk_jobs_performed_total", "Distinct jobs performed", s.do_count);
      ("amo_kk_steps_total", "Executor steps", s.steps);
      ( "amo_kk_work_total",
        "Weighted work (Theorem 5.6 accounting)",
        Shm.Metrics.total_work s.metrics );
      ("amo_kk_reads_total", "Shared-register reads", Shm.Metrics.total_reads s.metrics);
      ( "amo_kk_writes_total",
        "Shared-register writes",
        Shm.Metrics.total_writes s.metrics );
      ( "amo_kk_collisions_total",
        "Collisions (Definition 5.2)",
        Core.Collision.total s.collision );
      ("amo_kk_crashes_total", "Crashed processes", List.length s.crashed);
    ];
  Obs.Prom.gauge reg ~name:"amo_kk_wait_free" ~labels
    ~help:"1 if the run reached quiescence"
    (if s.wait_free then 1. else 0.);
  let work = Obs.Sketch.create () in
  for p = 1 to m do
    Obs.Sketch.add work (Shm.Metrics.work s.metrics ~p)
  done;
  Obs.Prom.of_sketch reg ~name:"amo_kk_process_work" ~labels
    ~help:"Per-process weighted work (quantile sketch)" work

(* kk's text extras: CSV exports, the timeline and the Gantt chart *)
let exports ~m ~csv_dos ~csv_timeline ~show_timeline ~show_gantt
    (s : Core.Harness.summary) =
  let timeline () = Analysis.Timeline.of_trace ~m s.trace in
  Option.iter
    (fun path -> save ~json:false "do-log CSV" path (Analysis.Csv.of_do_events s.dos))
    csv_dos;
  Option.iter
    (fun path ->
      save ~json:false "timeline CSV" path (Analysis.Csv.of_timeline (timeline ())))
    csv_timeline;
  if show_timeline then
    Fmt.pr "timeline:@.%a" Analysis.Timeline.pp (timeline ());
  if show_gantt then
    Fmt.pr "gantt (D=do, X=crash, T=terminate):@.%s"
      (Analysis.Gantt.render ~m s.trace)

let csv_dos =
  let doc = "Export the linearized (pid, job) perform log as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-dos" ] ~docv:"FILE" ~doc)

let csv_timeline =
  let doc = "Export the per-process timeline as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-timeline" ] ~docv:"FILE" ~doc)

let show_timeline =
  let doc = "Print the per-process timeline after the run." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let show_gantt =
  let doc = "Print an ASCII Gantt chart of the run." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let kk_cmd =
  let run ({ n; m; seed; _ } as sim) beta_opt csv_dos csv_timeline show_timeline
      show_gantt json trace_out prom_out flight =
    let beta = Option.value beta_opt ~default:m in
    let label = Printf.sprintf "KK(beta=%d)" beta in
    let scheduler, adversary = sim_env sim in
    let s =
      Core.Harness.kk ~scheduler ~adversary
        ~trace_level:(trace_level_for trace_out)
        ?probe:(flight_probe flight)
        ~verbose:(trace_out <> None) ~n ~m ~beta ()
    in
    let guaranteed =
      Core.Params.predicted_effectiveness (Core.Params.make ~n ~m ~beta)
    in
    print ~json
      (summary_rows ~label ~n ~m s
      @ [
          row "guaranteed eff."
            (Printf.sprintf "%d  (Theorem 4.4: n - (beta + m - 2))" guaranteed)
            [ ("guaranteed_effectiveness", J.Int guaranteed) ];
        ]);
    Option.iter
      (fun path -> save ~json "prometheus" path (prom_snapshot (kk_metrics ~n ~m ~beta s)))
      prom_out;
    write_trace ~json ~label ~m trace_out s.trace;
    exports ~m ~csv_dos ~csv_timeline ~show_timeline ~show_gantt s;
    let ok = amo_ok s.dos in
    flight_dump ~json
      ~trigger:(if ok then "on-demand" else "violation")
      ~extra:
        [
          ("cmd", J.String "kk");
          ("n", J.Int n);
          ("m", J.Int m);
          ("beta", J.Int beta);
          ("seed", J.Int seed);
        ]
      flight;
    if not ok then exit 1
  in
  let prom_out =
    prom_out ~file:"amo_kk.prom"
      "Write a Prometheus text-exposition snapshot of the run to \
       $(docv)/amo_kk.prom."
  in
  cmd "kk" ~doc:"Run algorithm KKbeta (the paper's core contribution)."
    Term.(
      const run $ sim $ beta $ csv_dos $ csv_timeline $ show_timeline
      $ show_gantt $ json_flag $ trace_out $ prom_out $ flight_out)

let claim_cmd =
  let run ({ n; m; _ } as sim) json trace_out =
    let scheduler, adversary = sim_env sim in
    let s =
      Core.Harness.claim_scan ~scheduler ~adversary
        ~trace_level:(trace_level_for trace_out) ~n ~m ()
    in
    let optimal =
      Core.Claim_scan.predicted_effectiveness ~n ~f:(List.length s.crashed)
    in
    print ~json
      [
        fields (head ~algorithm:"claim-scan" ~n ~m);
        amo_row ~note:"" s.dos;
        row "algorithm" "claim-scan (test-and-set; outside the r/w model)" [];
        row "jobs performed"
          (Printf.sprintf "%d / %d (optimal n-f: %d)" s.do_count n optimal)
          [ ("do_count", J.Int s.do_count); ("optimal", J.Int optimal) ];
        int_row "total actions" "actions" (Shm.Metrics.total_actions s.metrics);
      ];
    write_trace ~json ~label:"claim-scan" ~m trace_out s.trace;
    if not (amo_ok s.dos) then exit 1
  in
  cmd "claim"
    ~doc:"Run the test-and-set claim scanner (the paper's RMW upper-bound witness)."
    Term.(const run $ sim $ json_flag $ trace_out)

let worst_cmd =
  let run n m beta_opt json trace_out =
    let beta = Option.value beta_opt ~default:m in
    let s =
      Core.Harness.kk_worst_case ~trace_level:(trace_level_for trace_out) ~n ~m
        ~beta ()
    in
    let predicted =
      Core.Params.predicted_effectiveness (Core.Params.make ~n ~m ~beta)
    in
    let matched = s.do_count = predicted in
    finish ~json
      ~label:(Printf.sprintf "KK(beta=%d) vs worst-case adversary" beta)
      ~n ~m ~trace_out ~ok:matched
      [
        row "prediction"
          (Printf.sprintf "exactly %d jobs (tight by Theorem 4.4): %s" predicted
             (if matched then "MATCHED" else "MISMATCH"))
          [ ("predicted_exact", J.Int predicted); ("matched", J.Bool matched) ];
      ]
      s
  in
  cmd "worst"
    ~doc:"Run KKbeta against the constructive worst-case adversary of Theorem 4.4."
    Term.(const run $ jobs $ procs $ beta $ json_flag $ trace_out)

let iterative_cmd =
  let run ({ n; m; _ } as sim) eps_inv json trace_out =
    let scheduler, adversary = sim_env sim in
    let s =
      Core.Harness.iterative ~scheduler ~adversary
        ~trace_level:(trace_level_for trace_out) ~n ~m ~epsilon_inv:eps_inv ()
    in
    let loss_bound = Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv:eps_inv in
    finish ~json
      ~label:(Printf.sprintf "IterativeKK(eps=1/%d)" eps_inv)
      ~n ~m ~trace_out ~ok:true
      [
        row "loss bound"
          (Printf.sprintf "<= %d jobs (Theorem 6.4)" loss_bound)
          [ ("loss_bound", J.Int loss_bound) ];
      ]
      s
  in
  cmd "iterative" ~doc:"Run IterativeKK(eps): work-optimal at-most-once."
    Term.(const run $ sim $ eps_inv $ json_flag $ trace_out)

let wa_cmd =
  let run ({ n; m; _ } as sim) eps_inv json trace_out =
    let label = Printf.sprintf "WA_IterativeKK(eps=1/%d)" eps_inv in
    let scheduler, adversary = sim_env sim in
    let s, complete =
      Core.Harness.writeall_iterative ~scheduler ~adversary
        ~trace_level:(trace_level_for trace_out) ~n ~m ~epsilon_inv:eps_inv ()
    in
    print ~json
      [
        row "algorithm" label (head ~algorithm:label ~n ~m);
        row "write-all done" (string_of_bool complete)
          [ ("write_all_complete", J.Bool complete) ];
        int_row "steps" "steps" s.steps;
        int_row "work (weighted)" "work" (Shm.Metrics.total_work s.metrics);
        int_row "shared writes" "writes" (Shm.Metrics.total_writes s.metrics);
      ];
    write_trace ~json ~label ~m trace_out s.trace;
    if not complete then exit 1
  in
  cmd "wa" ~doc:"Run WA_IterativeKK(eps): work-optimal Write-All."
    Term.(const run $ sim $ eps_inv $ json_flag $ trace_out)

let trivial_cmd =
  let run ({ n; m; f; _ } as sim) json trace_out =
    let scheduler, adversary = sim_env sim in
    let s =
      Core.Harness.trivial ~scheduler ~adversary
        ~trace_level:(trace_level_for trace_out) ~n ~m ()
    in
    let guaranteed = Core.Params.trivial_effectiveness ~n ~m ~f in
    finish ~json ~label:"trivial split" ~n ~m ~trace_out ~ok:true
      [
        row "guaranteed eff."
          (Printf.sprintf "%d  ((m-f) * n/m)" guaranteed)
          [ ("guaranteed_effectiveness", J.Int guaranteed) ];
      ]
      s
  in
  cmd "trivial" ~doc:"Run the trivial split baseline."
    Term.(const run $ sim $ json_flag $ trace_out)

let pairing_cmd =
  let run ({ n; m; _ } as sim) json trace_out =
    let scheduler, adversary = sim_env sim in
    Core.Harness.pairing ~scheduler ~adversary
      ~trace_level:(trace_level_for trace_out) ~n ~m ()
    |> finish ~json ~label:"two-process pairing" ~n ~m ~trace_out ~ok:true []
  in
  cmd "pairing" ~doc:"Run the two-process pairing baseline."
    Term.(const run $ sim $ json_flag $ trace_out)

let msg_cmd =
  let run n (m, f) servers seed json =
    let rng = Util.Prng.of_int seed in
    let crash_plan = List.init f (fun i -> ((i + 1) * 50 * n / m, `Client (i + 1))) in
    let o = Msg.Kk_mp.run_kk ~crash_plan ~servers ~n ~m ~beta:m ~rng () in
    let do_count = Core.Spec.do_count o.dos in
    let guarantee = n - (m + m - 2) in
    print ~json
      [
        fields
          (head ~algorithm:"KK over ABD message passing" ~n ~m
          @ [ ("servers", J.Int servers) ]);
        amo_row ~note:" (message passing, ABD registers)" o.dos;
        row "jobs performed"
          (Printf.sprintf "%d / %d (guarantee >= %d)" do_count n guarantee)
          [ ("do_count", J.Int do_count); ("guarantee", J.Int guarantee) ];
        row "clients crashed" (pids o.crashed_clients)
          [ ("crashed_clients", ints o.crashed_clients) ];
        row "stuck clients" (pids o.stuck) [ ("stuck", ints o.stuck) ];
        row "deliveries"
          (Printf.sprintf "%d (%.1f per job)" o.deliveries
             (float_of_int o.deliveries /. float_of_int n))
          [ ("deliveries", J.Int o.deliveries) ];
      ];
    if not (amo_ok o.dos) then exit 1
  in
  let servers =
    let doc = "Number of ABD replica servers." in
    Arg.(value & opt at_least_one 3 & info [ "servers" ] ~docv:"S" ~doc)
  in
  cmd "msg" ~doc:"Run KKbeta over message passing (ABD-emulated atomic registers)."
    Term.(const run $ jobs $ procs_crashes $ servers $ seed $ json_flag)

let multicore_cmd =
  let run n m beta_opt json =
    let beta = Option.value beta_opt ~default:m in
    let r = Multicore.Runner.run_kk ~n ~m ~beta () in
    let do_count = Core.Spec.do_count r.dos in
    print ~json
      [
        fields (head ~algorithm:(Printf.sprintf "KK(beta=%d) on domains" beta) ~n ~m);
        amo_row ~note:" (real domains)" r.dos;
        row "jobs performed" (Printf.sprintf "%d / %d" do_count n)
          [ ("do_count", J.Int do_count) ];
        row "wall time"
          (Printf.sprintf "%.3fs" r.wall_seconds)
          [ ("wall_seconds", J.Float r.wall_seconds) ];
        int_row "work (weighted)" "work" (Shm.Metrics.total_work r.metrics);
        {
          lines =
            List.init m (fun i ->
                line
                  (Printf.sprintf "  p%-2d performed" (i + 1))
                  (string_of_int r.per_process.(i + 1)));
          fields =
            [ ("per_process", ints (List.init m (fun i -> r.per_process.(i + 1)))) ];
        };
        fields [ ("metrics", metrics_json r.metrics) ];
      ];
    if not (amo_ok r.dos) then exit 1
  in
  cmd "multicore" ~doc:"Run KKbeta on real OCaml 5 domains with atomic registers."
    Term.(const run $ jobs $ procs $ beta $ json_flag)
