(* amo_run: command-line driver for every algorithm in the library.

   Examples:
     amo_run kk --jobs 1000 --procs 8
     amo_run kk --jobs 1000 --procs 8 --beta 192 --sched random --seed 7 --crashes 3
     amo_run kk --jobs 200 --procs 4 --trace-out kk.trace.json   # open in Perfetto
     amo_run kk --jobs 1000 --procs 8 --json                     # machine-readable
     amo_run worst --jobs 1000 --procs 8
     amo_run iterative --jobs 65536 --procs 8 --eps-inv 2
     amo_run wa --jobs 65536 --procs 8 --eps-inv 2
     amo_run trivial --jobs 1000 --procs 8 --crashes 2
     amo_run pairing --jobs 1000 --procs 8 --crashes 2
     amo_run multicore --jobs 20000 --procs 4
     amo_run chaos --soak 500 --jobs 20 --procs 4 --seed 3
     amo_run chaos --plan CHAOS_counterexample.json            # replay, exit 1
     amo_run explore --jobs 3 --procs 2 --domains 4 --fingerprint
     amo_run explore --jobs 4 --procs 2 --domains 2 --differential --json

   Exit status: 0 on success, 1 when a run violates its oracle
   (at-most-once, Write-All completeness, or a tight-bound prediction),
   2 on usage errors. *)

open Cmdliner
module J = Obs.Json

let version_string = "1.0.0"

let pp_summary ~label ~n ~m ~f:_ (s : Core.Harness.summary) =
  (* report the crashes that actually happened, not the requested budget *)
  let f = List.length s.crashed in
  let upper = Core.Params.effectiveness_upper_bound ~n ~f in
  (match Core.Spec.check_at_most_once s.dos with
  | Ok () -> Fmt.pr "at-most-once    : OK@."
  | Error v ->
      Fmt.pr "at-most-once    : VIOLATED (%a)@." Fmt.string
        (Format.asprintf "%a" Core.Spec.pp_violation v));
  Fmt.pr "algorithm       : %s@." label;
  Fmt.pr "jobs performed  : %d / %d (upper bound with f=%d crashes: %d)@."
    s.do_count n f upper;
  Fmt.pr "wait-free       : %b@." s.wait_free;
  Fmt.pr "steps           : %d@." s.steps;
  Fmt.pr "crashed procs   : [%s]@."
    (String.concat "; " (List.map string_of_int s.crashed));
  Fmt.pr "work (weighted) : %d@." (Shm.Metrics.total_work s.metrics);
  Fmt.pr "shared reads    : %d@." (Shm.Metrics.total_reads s.metrics);
  Fmt.pr "shared writes   : %d@." (Shm.Metrics.total_writes s.metrics);
  Fmt.pr "collisions      : %d@." (Core.Collision.total s.collision);
  ignore m

let exports ~m ~csv_dos ~csv_timeline ~show_timeline ~show_gantt
    (s : Core.Harness.summary) =
  let timeline () = Analysis.Timeline.of_trace ~m s.trace in
  (match csv_dos with
  | Some path ->
      let oc = open_out path in
      output_string oc (Analysis.Csv.of_do_events s.dos);
      close_out oc;
      Fmt.pr "do-log CSV      : %s@." path
  | None -> ());
  (match csv_timeline with
  | Some path ->
      let oc = open_out path in
      output_string oc (Analysis.Csv.of_timeline (timeline ()));
      close_out oc;
      Fmt.pr "timeline CSV    : %s@." path
  | None -> ());
  if show_timeline then
    Fmt.pr "timeline:@.%a" Analysis.Timeline.pp (timeline ());
  if show_gantt then
    Fmt.pr "gantt (D=do, X=crash, T=terminate):@.%s"
      (Analysis.Gantt.render ~m s.trace)

(* ---- observability helpers ---- *)

let apply_log_level = function
  | None -> ()
  | Some name -> (
      match Util.Logging.level_of_string name with
      | Some l -> Util.Logging.set_level l
      | None ->
          Fmt.epr "amo_run: unknown log level %S (use quiet|info|debug)@." name;
          exit 2)

(* a Chrome trace needs the full event stream; plain runs keep the
   cheap outcome-only trace *)
let trace_level_for trace_out : Shm.Trace.level =
  if trace_out = None then `Outcomes else `Full

let write_trace ~label ~m ~json trace_out (trace : Shm.Trace.t) =
  match trace_out with
  | None -> ()
  | Some path ->
      Obs.Chrome_trace.write_file ~run_name:label
        ~heatmap:(Obs.Heatmap.of_trace trace) ~m ~path trace;
      if not json then Fmt.pr "chrome trace    : %s@." path

let summary_json ~label ~n ~m extra (s : Core.Harness.summary) =
  let f = List.length s.crashed in
  let amo_ok = Result.is_ok (Core.Spec.check_at_most_once s.dos) in
  let metrics =
    match J.parse (Shm.Metrics.to_json s.metrics) with
    | Ok j -> j
    | Error _ -> J.Null
  in
  J.Obj
    ([
       ("algorithm", J.String label);
       ("n", J.Int n);
       ("m", J.Int m);
       ("amo_ok", J.Bool amo_ok);
       ("do_count", J.Int s.do_count);
       ("upper_bound", J.Int (Core.Params.effectiveness_upper_bound ~n ~f));
       ("wait_free", J.Bool s.wait_free);
       ("steps", J.Int s.steps);
       ("crashed", J.List (List.map (fun p -> J.Int p) s.crashed));
       ("work", J.Int (Shm.Metrics.total_work s.metrics));
       ("reads", J.Int (Shm.Metrics.total_reads s.metrics));
       ("writes", J.Int (Shm.Metrics.total_writes s.metrics));
       ("collisions", J.Int (Core.Collision.total s.collision));
       ("metrics", metrics);
     ]
    @ extra)

(* Print one summary (text or JSON), returning whether at-most-once
   held so the caller can set the exit status. *)
let report ~json ~label ~n ~m ?(extra_json = []) ?(extra_text = fun () -> ())
    (s : Core.Harness.summary) =
  if json then
    print_endline (J.to_string ~minify:false (summary_json ~label ~n ~m extra_json s))
  else begin
    pp_summary ~label ~n ~m ~f:0 s;
    extra_text ()
  end;
  Result.is_ok (Core.Spec.check_at_most_once s.dos)

(* ---- common options ---- *)

let jobs =
  let doc = "Number of jobs n." in
  Arg.(value & opt int 1000 & info [ "jobs"; "n" ] ~docv:"N" ~doc)

let procs =
  let doc = "Number of processes m." in
  Arg.(value & opt int 8 & info [ "procs"; "m" ] ~docv:"M" ~doc)

let beta =
  let doc = "Termination parameter beta (default: m, effectiveness-optimal)." in
  Arg.(value & opt (some int) None & info [ "beta" ] ~docv:"BETA" ~doc)

let seed =
  let doc = "PRNG seed for stochastic schedulers and crash times." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let sched =
  let doc = "Scheduler: rr, random, or bursty." in
  Arg.(
    value
    & opt (enum [ ("rr", `Rr); ("random", `Random); ("bursty", `Bursty) ]) `Rr
    & info [ "sched" ] ~docv:"SCHED" ~doc)

let crashes =
  let doc = "Number of random crash failures to inject (f < m)." in
  Arg.(value & opt int 0 & info [ "crashes"; "f" ] ~docv:"F" ~doc)

let eps_inv =
  let doc = "1/epsilon for the iterated algorithms (a positive integer)." in
  Arg.(value & opt int 2 & info [ "eps-inv" ] ~docv:"K" ~doc)

let csv_dos =
  let doc = "Export the linearized (pid, job) perform log as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-dos" ] ~docv:"FILE" ~doc)

let csv_timeline =
  let doc = "Export the per-process timeline as CSV to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "csv-timeline" ] ~docv:"FILE" ~doc)

let show_timeline =
  let doc = "Print the per-process timeline after the run." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let show_gantt =
  let doc = "Print an ASCII Gantt chart of the run." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let log_level =
  let doc =
    "Diagnostic verbosity for library logging: quiet, info or debug \
     (overrides the AMO_LOG environment variable)."
  in
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let json_flag =
  let doc = "Emit the run summary as a single JSON object on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_out =
  let doc =
    "Write the execution as Chrome trace_event JSON to $(docv) (open in \
     Perfetto or chrome://tracing).  Implies a full-detail trace."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let flight_out =
  let doc =
    "Arm an always-on binary flight recorder on the run: every executor \
     event is journaled into a bounded ring of fixed-size segments \
     (drop-oldest retention), and the retained tail plus a manifest is \
     dumped atomically into $(docv) — immediately on a violation, else at \
     run end.  Inspect with $(b,amo_run trace)."
  in
  Arg.(value & opt (some string) None & info [ "flight-out" ] ~docv:"DIR" ~doc)

(* One armed recorder per --flight-out run.  The dump is once-only —
   the first trigger (a violation) wins and later triggers are no-ops,
   so a soak's first failure is not overwritten by the end-of-run
   on-demand dump. *)
let make_flight = function
  | None -> None
  | Some dir -> Some (dir, Obs.Flight.create (), ref false)

let flight_probe = function
  | None -> None
  | Some (_, fl, _) -> Some (Obs.Journal.probe fl)

let flight_dump ~json ~trigger ?(extra = []) = function
  | None -> ()
  | Some (dir, fl, dumped) ->
      if not !dumped then begin
        dumped := true;
        let path = Obs.Journal.dump ~trigger ~extra ~dir fl in
        if not json then
          Fmt.pr "flight dump     : %s (%d records retained, trigger: %s)@."
            path
            (Obs.Flight.retained_records fl)
            trigger
      end

let make_sched kind rng =
  match kind with
  | `Rr -> Shm.Schedule.round_robin ()
  | `Random -> Shm.Schedule.random rng
  | `Bursty -> Shm.Schedule.bursty rng ~max_burst:64

let make_adversary rng ~f ~m ~n =
  if f = 0 then Shm.Adversary.none
  else Shm.Adversary.random rng ~f ~m ~horizon:(4 * n)

(* ---- subcommands ---- *)

(* One-shot Prometheus snapshot of a finished KK run: headline
   counters plus a per-process work-distribution histogram, written to
   <dir>/amo_kk.prom. *)
let kk_prom_snapshot ~dir ~n ~m ~beta ~do_count (s : Core.Harness.summary) =
  let reg = Obs.Prom.create () in
  let labels =
    [ ("n", string_of_int n); ("m", string_of_int m);
      ("beta", string_of_int beta) ]
  in
  let c name help v =
    Obs.Prom.counter reg ~name ~help ~labels (float_of_int v)
  in
  c "amo_kk_jobs_performed_total" "Distinct jobs performed" do_count;
  c "amo_kk_steps_total" "Executor steps" s.steps;
  c "amo_kk_work_total" "Weighted work (Theorem 5.6 accounting)"
    (Shm.Metrics.total_work s.metrics);
  c "amo_kk_reads_total" "Shared-register reads"
    (Shm.Metrics.total_reads s.metrics);
  c "amo_kk_writes_total" "Shared-register writes"
    (Shm.Metrics.total_writes s.metrics);
  c "amo_kk_collisions_total" "Collisions (Definition 5.2)"
    (Core.Collision.total s.collision);
  c "amo_kk_crashes_total" "Crashed processes" (List.length s.crashed);
  Obs.Prom.gauge reg ~name:"amo_kk_wait_free" ~labels
    ~help:"1 if the run reached quiescence"
    (if s.wait_free then 1. else 0.);
  let work = Obs.Sketch.create () in
  for p = 1 to m do
    Obs.Sketch.add work (Shm.Metrics.work s.metrics ~p)
  done;
  Obs.Prom.of_sketch reg ~name:"amo_kk_process_work" ~labels
    ~help:"Per-process weighted work (quantile sketch)" work;
  Obs.Prom.write_file reg (Filename.concat dir "amo_kk.prom")

let kk_cmd =
  let run n m beta_opt seed sched_kind f csv_dos csv_timeline show_timeline
      show_gantt log_level json trace_out prom_out flight_out =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let rng = Util.Prng.of_int seed in
    let label = Printf.sprintf "KK(beta=%d)" beta in
    let flight = make_flight flight_out in
    let s =
      Core.Harness.kk
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        ~trace_level:(trace_level_for trace_out)
        ?probe:(flight_probe flight)
        ~verbose:(trace_out <> None) ~n ~m ~beta ()
    in
    let guaranteed =
      Core.Params.predicted_effectiveness (Core.Params.make ~n ~m ~beta)
    in
    let ok =
      report ~json ~label ~n ~m
        ~extra_json:[ ("guaranteed_effectiveness", J.Int guaranteed) ]
        ~extra_text:(fun () ->
          Fmt.pr "guaranteed eff. : %d  (Theorem 4.4: n - (beta + m - 2))@."
            guaranteed)
        s
    in
    (match prom_out with
    | Some dir ->
        kk_prom_snapshot ~dir ~n ~m ~beta ~do_count:s.do_count s;
        if not json then
          Fmt.pr "prometheus      : %s@." (Filename.concat dir "amo_kk.prom")
    | None -> ());
    write_trace ~label ~m ~json trace_out s.trace;
    exports ~m ~csv_dos ~csv_timeline ~show_timeline ~show_gantt s;
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
    let doc =
      "Write a Prometheus text-exposition snapshot of the run to \
       $(docv)/amo_kk.prom."
    in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"DIR" ~doc)
  in
  let doc = "Run algorithm KKbeta (the paper's core contribution)." in
  Cmd.v (Cmd.info "kk" ~doc)
    Term.(
      const run $ jobs $ procs $ beta $ seed $ sched $ crashes $ csv_dos
      $ csv_timeline $ show_timeline $ show_gantt $ log_level $ json_flag
      $ trace_out $ prom_out $ flight_out)

let claim_cmd =
  let run n m seed sched_kind f log_level json trace_out =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let metrics = Shm.Metrics.create ~m in
    let handles = Core.Claim_scan.processes ~metrics ~n ~m () in
    let outcome =
      Shm.Executor.run
        ~trace_level:(trace_level_for trace_out)
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        handles
    in
    let dos = Shm.Trace.do_events outcome.Shm.Executor.trace in
    let amo_ok = Result.is_ok (Core.Spec.check_at_most_once dos) in
    let f_actual =
      List.length (Shm.Trace.crashes outcome.Shm.Executor.trace)
    in
    let optimal = Core.Claim_scan.predicted_effectiveness ~n ~f:f_actual in
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("algorithm", J.String "claim-scan");
                ("n", J.Int n);
                ("m", J.Int m);
                ("amo_ok", J.Bool amo_ok);
                ("do_count", J.Int (Core.Spec.do_count dos));
                ("optimal", J.Int optimal);
                ("actions", J.Int (Shm.Metrics.total_actions metrics));
              ]))
    else begin
      (match Core.Spec.check_at_most_once dos with
      | Ok () -> Fmt.pr "at-most-once    : OK@."
      | Error v ->
          Fmt.pr "at-most-once    : VIOLATED (%s)@."
            (Format.asprintf "%a" Core.Spec.pp_violation v));
      Fmt.pr
        "algorithm       : claim-scan (test-and-set; outside the r/w model)@.";
      Fmt.pr "jobs performed  : %d / %d (optimal n-f: %d)@."
        (Core.Spec.do_count dos) n optimal;
      Fmt.pr "total actions   : %d@." (Shm.Metrics.total_actions metrics)
    end;
    write_trace ~label:"claim-scan" ~m ~json trace_out
      outcome.Shm.Executor.trace;
    if not amo_ok then exit 1
  in
  let doc =
    "Run the test-and-set claim scanner (the paper's RMW upper-bound witness)."
  in
  Cmd.v (Cmd.info "claim" ~doc)
    Term.(
      const run $ jobs $ procs $ seed $ sched $ crashes $ log_level $ json_flag
      $ trace_out)

let worst_cmd =
  let run n m beta_opt log_level json trace_out =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let label = Printf.sprintf "KK(beta=%d) vs worst-case adversary" beta in
    let s =
      Core.Harness.kk_worst_case
        ~trace_level:(trace_level_for trace_out)
        ~n ~m ~beta ()
    in
    let predicted =
      Core.Params.predicted_effectiveness (Core.Params.make ~n ~m ~beta)
    in
    let matched = s.do_count = predicted in
    let ok =
      report ~json ~label ~n ~m
        ~extra_json:
          [
            ("predicted_exact", J.Int predicted); ("matched", J.Bool matched);
          ]
        ~extra_text:(fun () ->
          Fmt.pr "prediction      : exactly %d jobs (tight by Theorem 4.4): %s@."
            predicted
            (if matched then "MATCHED" else "MISMATCH"))
        s
    in
    write_trace ~label ~m ~json trace_out s.trace;
    if not (ok && matched) then exit 1
  in
  let doc =
    "Run KKbeta against the constructive worst-case adversary of Theorem 4.4."
  in
  Cmd.v (Cmd.info "worst" ~doc)
    Term.(const run $ jobs $ procs $ beta $ log_level $ json_flag $ trace_out)

let iterative_cmd =
  let run n m eps_inv seed sched_kind f log_level json trace_out =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let label = Printf.sprintf "IterativeKK(eps=1/%d)" eps_inv in
    let s =
      Core.Harness.iterative
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        ~trace_level:(trace_level_for trace_out)
        ~n ~m ~epsilon_inv:eps_inv ()
    in
    let loss_bound =
      Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv:eps_inv
    in
    let ok =
      report ~json ~label ~n ~m
        ~extra_json:[ ("loss_bound", J.Int loss_bound) ]
        ~extra_text:(fun () ->
          Fmt.pr "loss bound      : <= %d jobs (Theorem 6.4)@." loss_bound)
        s
    in
    write_trace ~label ~m ~json trace_out s.trace;
    if not ok then exit 1
  in
  let doc = "Run IterativeKK(eps): work-optimal at-most-once." in
  Cmd.v (Cmd.info "iterative" ~doc)
    Term.(
      const run $ jobs $ procs $ eps_inv $ seed $ sched $ crashes $ log_level
      $ json_flag $ trace_out)

let wa_cmd =
  let run n m eps_inv seed sched_kind f log_level json trace_out =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let label = Printf.sprintf "WA_IterativeKK(eps=1/%d)" eps_inv in
    let s, complete =
      Core.Harness.writeall_iterative
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        ~trace_level:(trace_level_for trace_out)
        ~n ~m ~epsilon_inv:eps_inv ()
    in
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("algorithm", J.String label);
                ("n", J.Int n);
                ("m", J.Int m);
                ("write_all_complete", J.Bool complete);
                ("steps", J.Int s.steps);
                ("work", J.Int (Shm.Metrics.total_work s.metrics));
                ("writes", J.Int (Shm.Metrics.total_writes s.metrics));
              ]))
    else begin
      Fmt.pr "algorithm       : %s@." label;
      Fmt.pr "write-all done  : %b@." complete;
      Fmt.pr "steps           : %d@." s.steps;
      Fmt.pr "work (weighted) : %d@." (Shm.Metrics.total_work s.metrics);
      Fmt.pr "shared writes   : %d@." (Shm.Metrics.total_writes s.metrics)
    end;
    write_trace ~label ~m ~json trace_out s.trace;
    if not complete then exit 1
  in
  let doc = "Run WA_IterativeKK(eps): work-optimal Write-All." in
  Cmd.v (Cmd.info "wa" ~doc)
    Term.(
      const run $ jobs $ procs $ eps_inv $ seed $ sched $ crashes $ log_level
      $ json_flag $ trace_out)

let trivial_cmd =
  let run n m seed sched_kind f log_level json trace_out =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let s =
      Core.Harness.trivial
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        ~trace_level:(trace_level_for trace_out)
        ~n ~m ()
    in
    let guaranteed = Core.Params.trivial_effectiveness ~n ~m ~f in
    let ok =
      report ~json ~label:"trivial split" ~n ~m
        ~extra_json:[ ("guaranteed_effectiveness", J.Int guaranteed) ]
        ~extra_text:(fun () ->
          Fmt.pr "guaranteed eff. : %d  ((m-f) * n/m)@." guaranteed)
        s
    in
    write_trace ~label:"trivial split" ~m ~json trace_out s.trace;
    if not ok then exit 1
  in
  let doc = "Run the trivial split baseline." in
  Cmd.v (Cmd.info "trivial" ~doc)
    Term.(
      const run $ jobs $ procs $ seed $ sched $ crashes $ log_level $ json_flag
      $ trace_out)

let pairing_cmd =
  let run n m seed sched_kind f log_level json trace_out =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let s =
      Core.Harness.pairing
        ~scheduler:(make_sched sched_kind rng)
        ~adversary:(make_adversary rng ~f ~m ~n)
        ~trace_level:(trace_level_for trace_out)
        ~n ~m ()
    in
    let ok = report ~json ~label:"two-process pairing" ~n ~m s in
    write_trace ~label:"two-process pairing" ~m ~json trace_out s.trace;
    if not ok then exit 1
  in
  let doc = "Run the two-process pairing baseline." in
  Cmd.v (Cmd.info "pairing" ~doc)
    Term.(
      const run $ jobs $ procs $ seed $ sched $ crashes $ log_level $ json_flag
      $ trace_out)

let msg_cmd =
  let run n m servers seed f log_level json =
    apply_log_level log_level;
    let rng = Util.Prng.of_int seed in
    let crash_plan =
      List.init (min f (m - 1)) (fun i ->
          ((i + 1) * 50 * n / m, `Client (i + 1)))
    in
    let o = Msg.Kk_mp.run_kk ~crash_plan ~servers ~n ~m ~beta:m ~rng () in
    let amo_ok = Result.is_ok (Core.Spec.check_at_most_once o.Msg.Kk_mp.dos) in
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("algorithm", J.String "KK over ABD message passing");
                ("n", J.Int n);
                ("m", J.Int m);
                ("servers", J.Int servers);
                ("amo_ok", J.Bool amo_ok);
                ("do_count", J.Int (Core.Spec.do_count o.Msg.Kk_mp.dos));
                ("guarantee", J.Int (n - (m + m - 2)));
                ( "crashed_clients",
                  J.List
                    (List.map (fun p -> J.Int p) o.Msg.Kk_mp.crashed_clients) );
                ( "stuck",
                  J.List (List.map (fun p -> J.Int p) o.Msg.Kk_mp.stuck) );
                ("deliveries", J.Int o.Msg.Kk_mp.deliveries);
              ]))
    else begin
      (match Core.Spec.check_at_most_once o.Msg.Kk_mp.dos with
      | Ok () ->
          Fmt.pr "at-most-once    : OK (message passing, ABD registers)@."
      | Error v ->
          Fmt.pr "at-most-once    : VIOLATED (%s)@."
            (Format.asprintf "%a" Core.Spec.pp_violation v));
      Fmt.pr "jobs performed  : %d / %d (guarantee >= %d)@."
        (Core.Spec.do_count o.Msg.Kk_mp.dos)
        n
        (n - (m + m - 2));
      Fmt.pr "clients crashed : [%s]@."
        (String.concat "; "
           (List.map string_of_int o.Msg.Kk_mp.crashed_clients));
      Fmt.pr "stuck clients   : [%s]@."
        (String.concat "; " (List.map string_of_int o.Msg.Kk_mp.stuck));
      Fmt.pr "deliveries      : %d (%.1f per job)@." o.Msg.Kk_mp.deliveries
        (float_of_int o.Msg.Kk_mp.deliveries /. float_of_int n)
    end;
    if not amo_ok then exit 1
  in
  let servers =
    let doc = "Number of ABD replica servers." in
    Cmdliner.Arg.(value & opt int 3 & info [ "servers" ] ~docv:"S" ~doc)
  in
  let doc =
    "Run KKbeta over message passing (ABD-emulated atomic registers)."
  in
  Cmd.v (Cmd.info "msg" ~doc)
    Term.(
      const run $ jobs $ procs $ servers $ seed $ crashes $ log_level
      $ json_flag)

let explore_cmd =
  let run n m beta_opt branch_depth max_steps domains fingerprint differential
      log_level json =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let factory () =
      let metrics = Shm.Metrics.create ~m in
      let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
      Array.init m (fun i ->
          Core.Kk.handle
            (Core.Kk.create ~shared ~pid:(i + 1) ~beta
               ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n)
               ~mode:Core.Kk.Standalone ()))
    in
    let oracles =
      [
        Analysis.Oracle.at_most_once;
        Analysis.Oracle.kk_effectiveness ~n ~m ~beta;
        Analysis.Oracle.quiescence ~m;
      ]
    in
    let t0 = Unix.gettimeofday () in
    let report =
      Analysis.Explore.check ~domains ~fingerprint ~factory ~branch_depth
        ~max_steps ~oracles ()
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let canonical_set explore_fn =
      let tbl = Hashtbl.create 1024 in
      ignore
        (explore_fn (fun (e : Analysis.Explore.execution) ->
             Hashtbl.replace tbl
               (Analysis.Explore.canonical_do_log e.Analysis.Explore.dos)
               ()));
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
    in
    let diff_ok =
      if not differential then None
      else
        (* cross-validate against one domain with the cache off: the
           canonical do-log sets must coincide exactly *)
        let set_of ~domains ~fingerprint =
          canonical_set (fun f ->
              Analysis.Explore.explore ~domains ~fingerprint ~factory
                ~branch_depth ~max_steps ~on_execution:f ())
        in
        Some
          (set_of ~domains:1 ~fingerprint:false = set_of ~domains ~fingerprint)
    in
    let stats = report.Analysis.Explore.stats in
    if json then
      let cache_json =
        match stats.Analysis.Explore.cache with
        | None -> J.Null
        | Some c ->
            J.Obj
              [
                ("hits", J.Int c.Analysis.Fingerprint.hits);
                ("misses", J.Int c.Analysis.Fingerprint.misses);
                ("evictions", J.Int c.Analysis.Fingerprint.evictions);
                ("capacity", J.Int c.Analysis.Fingerprint.capacity);
              ]
      in
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("n", J.Int n);
                ("m", J.Int m);
                ("beta", J.Int beta);
                ("domains", J.Int domains);
                ("fingerprint", J.Bool fingerprint);
                ("executions", J.Int stats.Analysis.Explore.executions);
                ( "fully_exhaustive",
                  J.Bool stats.Analysis.Explore.fully_exhaustive );
                ("work_items", J.Int stats.Analysis.Explore.work_items);
                ("steals", J.Int stats.Analysis.Explore.steals);
                ("cache", cache_json);
                ("violations", J.Int report.Analysis.Explore.violating);
                ( "differential_ok",
                  match diff_ok with Some b -> J.Bool b | None -> J.Null );
                ("seconds", J.Float elapsed);
              ]))
    else begin
      Fmt.pr "instance        : KK n=%d m=%d beta=%d@." n m beta;
      Fmt.pr "domains         : %d (%d work items, %d steals)@." domains
        stats.Analysis.Explore.work_items stats.Analysis.Explore.steals;
      Fmt.pr "executions      : %d%s@." stats.Analysis.Explore.executions
        (if stats.Analysis.Explore.fully_exhaustive then " (complete)"
         else " (budget-truncated)");
      (match stats.Analysis.Explore.cache with
      | None -> Fmt.pr "fingerprints    : off@."
      | Some c ->
          let total = c.Analysis.Fingerprint.hits + c.Analysis.Fingerprint.misses in
          Fmt.pr "fingerprints    : %d hits / %d lookups (%.1f%%), %d evictions@."
            c.Analysis.Fingerprint.hits total
            (if total = 0 then 0.
             else
               100.
               *. float_of_int c.Analysis.Fingerprint.hits
               /. float_of_int total)
            c.Analysis.Fingerprint.evictions);
      (match diff_ok with
      | Some true -> Fmt.pr "differential    : OK (canonical sets identical)@."
      | Some false -> Fmt.pr "differential    : MISMATCH@."
      | None -> ());
      Fmt.pr "oracles         : %s@."
        (if report.Analysis.Explore.violating = 0 then "OK"
         else Printf.sprintf "%d VIOLATED" report.Analysis.Explore.violating);
      Fmt.pr "wall clock      : %.2fs@." elapsed
    end;
    (match report.Analysis.Explore.shrunk with
    | Some (sched, vs) when not json ->
        Fmt.pr "counterexample  : %d-step schedule [%s]@." (List.length sched)
          (String.concat "; " (List.map string_of_int sched));
        List.iter
          (fun v ->
            Fmt.pr "violation       : %s@."
              (Format.asprintf "%a" Analysis.Oracle.pp_violation v))
          vs
    | _ -> ());
    if diff_ok = Some false then exit 4;
    if report.Analysis.Explore.violating > 0 then exit 1
  in
  let explore_jobs =
    let doc = "Number of jobs n." in
    Arg.(value & opt int 3 & info [ "jobs"; "n" ] ~docv:"N" ~doc)
  in
  let explore_procs =
    let doc = "Number of processes m." in
    Arg.(value & opt int 2 & info [ "procs"; "m" ] ~docv:"M" ~doc)
  in
  let branch_depth_arg =
    let doc =
      "Branching-decision budget per path; beyond it executions complete \
       round-robin and coverage is reported as truncated."
    in
    Arg.(value & opt int 1_000_000 & info [ "branch-depth" ] ~docv:"D" ~doc)
  in
  let max_steps_arg =
    let doc = "Per-execution step budget (wait-freedom guard)." in
    Arg.(value & opt int 50_000 & info [ "max-steps" ] ~docv:"STEPS" ~doc)
  in
  let domains_arg =
    let doc =
      "Explorer domains (OCaml 5 parallelism), an integer >= 1; 1 = \
       sequential."
    in
    let at_least_one =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some d when d >= 1 -> Ok d
            | _ ->
                Error
                  (`Msg
                     (Printf.sprintf "invalid value '%s', expected an integer >= 1"
                        s))),
          Format.pp_print_int )
    in
    Arg.(value & opt at_least_one 1 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let fingerprint_flag =
    let doc =
      "Enable the state-fingerprint cache: prune subtrees whose (state, \
       step, do-prefix, sleep-set) hash was already explored.  Preserves \
       canonical do-log sets and oracle verdicts, not execution counts."
    in
    Arg.(value & flag & info [ "fingerprint" ] ~doc)
  in
  let differential_flag =
    let doc =
      "Also explore on one domain with the cache off and verify that run \
       and the requested configuration produce identical canonical do-log \
       sets (exit 4 on mismatch)."
    in
    Arg.(value & flag & info [ "differential" ] ~doc)
  in
  let doc =
    "Exhaustively model-check KKbeta with the domain-parallel POR explorer: \
     every interleaving (up to commutation) is enumerated and judged \
     against the at-most-once, effectiveness and quiescence oracles."
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ explore_jobs $ explore_procs $ beta $ branch_depth_arg
      $ max_steps_arg $ domains_arg $ fingerprint_flag $ differential_flag
      $ log_level $ json_flag)

(* Render one dashboard frame from the soak's aggregated telemetry. *)
let chaos_dashboard_frame ~n ~m ~beta ~count ~runs_done ~dos_total ~steps_total
    ~crashes_total ~restarts_total ~failures ~aborted ~fates ~steps_sketch
    ~elapsed =
  let open Obs.Dashboard in
  let throughput =
    if elapsed > 0. then float_of_int dos_total /. elapsed else 0.
  in
  let fate_row label v =
    kvf label "%d (%.1f%%)" v
      (if runs_done = 0 then 0.
       else 100. *. float_of_int v /. float_of_int (runs_done * n))
  in
  let status =
    if aborted then "ABORTED (fail-fast: at-most-once tripped)"
    else if failures > 0 then Printf.sprintf "%d FAILURES" failures
    else "OK"
  in
  render
    ~title:(Printf.sprintf "amo_run chaos  n=%d m=%d beta=%d" n m beta)
    ~status
    [
      section ~title:"progress"
        [
          gauge ~label:"plans"
            ~frac:(float_of_int runs_done /. float_of_int (max 1 count))
            (Printf.sprintf "%d / %d" runs_done count);
          kvf "throughput" "%.0f jobs/s (%d jobs, %.1fs)" throughput dos_total
            elapsed;
          kvf "steps" "%d total" steps_total;
        ];
      section ~title:"job fates (cumulative)"
        [
          fate_row "performed" fates.Obs.Ledger.performed;
          fate_row "forfeited" fates.Obs.Ledger.forfeited;
          fate_row "lost to crash" fates.Obs.Ledger.lost;
          fate_row "recovered" fates.Obs.Ledger.recovered;
          fate_row "doubly performed" fates.Obs.Ledger.violations;
        ];
      section ~title:"injected faults"
        [ kvf "crashes" "%d" crashes_total; kvf "restarts" "%d" restarts_total ];
      section ~title:"latency (steps per plan)"
        [ percentiles ~label:"sketch" steps_sketch ];
      section ~title:"monitor"
        [
          kv "at-most-once"
            (if fates.Obs.Ledger.violations > 0 then "VIOLATED" else "OK");
          kvf "oracle failures" "%d" failures;
        ];
    ]

(* Write the soak's current telemetry as a Prometheus text-exposition
   snapshot: <dir>/amo_chaos.prom, atomically replaced on each flush. *)
let chaos_prom_flush ~dir ~n ~m ~beta ~seed ~runs_done ~dos_total ~steps_total
    ~crashes_total ~restarts_total ~failures ~aborted ~fates ~steps_sketch () =
  let reg = Obs.Prom.create () in
  let labels = [ ("n", string_of_int n); ("m", string_of_int m);
                 ("beta", string_of_int beta); ("seed", string_of_int seed) ] in
  let c name help v =
    Obs.Prom.counter reg ~name ~help ~labels (float_of_int v)
  in
  c "amo_soak_runs_total" "Chaos plans executed" runs_done;
  c "amo_soak_jobs_performed_total" "Distinct jobs performed across plans"
    dos_total;
  c "amo_soak_steps_total" "Executor steps across plans" steps_total;
  c "amo_soak_crashes_total" "Injected crashes observed" crashes_total;
  c "amo_soak_restarts_total" "Injected restarts observed" restarts_total;
  c "amo_soak_oracle_failures_total" "Plans with at least one oracle violation"
    failures;
  Obs.Prom.gauge reg ~name:"amo_soak_aborted" ~labels
    ~help:"1 if a fail-fast monitor aborted the soak"
    (if aborted then 1. else 0.);
  List.iter
    (fun (fate, v) ->
      Obs.Prom.counter reg ~name:"amo_soak_job_fate_total"
        ~help:"Cumulative per-job fates (Obs.Ledger semantics)"
        ~labels:(labels @ [ ("fate", fate) ])
        (float_of_int v))
    [
      ("performed", fates.Obs.Ledger.performed);
      ("forfeited", fates.Obs.Ledger.forfeited);
      ("lost_crash", fates.Obs.Ledger.lost);
      ("recovered", fates.Obs.Ledger.recovered);
      ("doubly_performed", fates.Obs.Ledger.violations);
    ];
  Obs.Prom.of_sketch reg ~name:"amo_soak_plan_steps" ~labels
    ~help:"Executor steps per chaos plan (quantile sketch)" steps_sketch;
  Obs.Prom.write_file reg (Filename.concat dir "amo_chaos.prom")

let chaos_cmd =
  let run plan_file soak_count n m beta_opt seed out_dir max_steps dashboard
      prom_out fail_fast flight_out log_level json =
    apply_log_level log_level;
    let flight = make_flight flight_out in
    let flight_extra trigger_cmd =
      [ ("cmd", J.String trigger_cmd); ("seed", J.Int seed) ]
    in
    let pr_violations vs =
      List.iter
        (fun v ->
          if not json then
            Fmt.pr "violation       : %s@."
              (Format.asprintf "%a" Analysis.Oracle.pp_violation v))
        vs
    in
    match plan_file with
    | Some path -> (
        (* replay mode: execute one plan file, exit 1 on violation *)
        match Fault.Plan.load path with
        | Error e ->
            Fmt.epr "amo_run: %s: %s@." path e;
            exit 2
        | Ok plan when plan.Fault.Plan.net <> [] ->
            let r = Fault.Chaos.run_net_plan plan in
            if json then
              print_endline
                (J.to_string ~minify:false
                   (J.Obj
                      [
                        ("plan", Fault.Plan.to_json plan);
                        ("do_count", J.Int (List.length r.dos));
                        ( "stuck",
                          J.List (List.map (fun p -> J.Int p) r.stuck) );
                        ("deliveries", J.Int r.deliveries);
                        ( "violations",
                          J.List
                            (List.map
                               (fun v ->
                                 J.String v.Analysis.Oracle.oracle)
                               r.violations) );
                      ]))
            else begin
              Fmt.pr "plan            : %a@." Fault.Plan.pp plan;
              Fmt.pr "platform        : message passing (ABD registers)@.";
              Fmt.pr "jobs performed  : %d@." (List.length r.dos);
              Fmt.pr "stuck clients   : [%s]@."
                (String.concat "; " (List.map string_of_int r.stuck));
              Fmt.pr "deliveries      : %d@." r.deliveries;
              Fmt.pr "oracles         : %s@."
                (if r.violations = [] then "OK"
                 else Printf.sprintf "%d VIOLATED" (List.length r.violations))
            end;
            pr_violations r.violations;
            if r.violations <> [] then exit 1
        | Ok plan ->
            let r =
              (* budget exhaustion must not masquerade as a passing
                 replay: surface the wedged prefix and exit non-zero *)
              try
                Fault.Chaos.replay_plan
                  ?probe:(flight_probe flight)
                  ?max_steps plan
              with Analysis.Explore.Max_steps_exceeded { schedule; steps } ->
                if json then
                  print_endline
                    (J.to_string ~minify:false
                       (J.Obj
                          [
                            ("error", J.String "max-steps-exceeded");
                            ("plan", Fault.Plan.to_json plan);
                            ("steps", J.Int steps);
                            ( "schedule_prefix",
                              J.List (List.map (fun p -> J.Int p) schedule) );
                          ]))
                else begin
                  Fmt.epr
                    "amo_run: %s: step budget exhausted after %d steps \
                     (schedule prefix of %d picks recorded)@."
                    path steps (List.length schedule);
                  Fmt.epr
                    "amo_run: the plan does not quiesce under this budget — \
                     a would-be wait-freedom counterexample@."
                end;
                (* the journal holds the wedged run's tail — keep it *)
                flight_dump ~json ~trigger:"max-steps"
                  ~extra:(flight_extra "chaos-replay") flight;
                exit 3
            in
            (* the ledger's one-line causal explanation of the violated
               job — what the raw oracle verdict lacks *)
            let explanation =
              if r.violations = [] then None
              else
                Obs.Ledger.explain_violation
                  (Obs.Ledger.of_trace ~n:plan.Fault.Plan.n
                     ~m:plan.Fault.Plan.m r.trace)
            in
            if json then
              print_endline
                (J.to_string ~minify:false
                   (J.Obj
                      [
                        ("plan", Fault.Plan.to_json plan);
                        ("do_count", J.Int r.do_count);
                        ("steps", J.Int r.steps);
                        ("wait_free", J.Bool r.wait_free);
                        ( "crashes",
                          J.List (List.map (fun p -> J.Int p) r.crashes) );
                        ( "restarts",
                          J.List (List.map (fun p -> J.Int p) r.restarts) );
                        ( "violations",
                          J.List
                            (List.map
                               (fun v ->
                                 J.String v.Analysis.Oracle.oracle)
                               r.violations) );
                        ( "explanation",
                          match explanation with
                          | Some line -> J.String line
                          | None -> J.Null );
                      ]))
            else begin
              Fmt.pr "plan            : %a@." Fault.Plan.pp plan;
              Fmt.pr "platform        : shared memory@.";
              Fmt.pr "jobs performed  : %d / %d@." r.do_count
                plan.Fault.Plan.n;
              Fmt.pr "steps           : %d@." r.steps;
              Fmt.pr "crashed procs   : [%s]@."
                (String.concat "; " (List.map string_of_int r.crashes));
              Fmt.pr "restarted procs : [%s]@."
                (String.concat "; " (List.map string_of_int r.restarts));
              Fmt.pr "oracles         : %s@."
                (if r.violations = [] then "OK"
                 else Printf.sprintf "%d VIOLATED" (List.length r.violations))
            end;
            Option.iter
              (fun line ->
                if not json then Fmt.pr "explanation     : %s@." line)
              explanation;
            pr_violations r.violations;
            flight_dump ~json
              ~trigger:
                (if r.violations <> [] then "violation" else "on-demand")
              ~extra:(flight_extra "chaos-replay") flight;
            if r.violations <> [] then exit 1)
    | None ->
        (* soak mode: seeded random plans, shrink + save any failure;
           optional live dashboard and periodic Prometheus snapshots *)
        let beta = Option.value beta_opt ~default:m in
        let t_start = Unix.gettimeofday () in
        let runs_done = ref 0 in
        let dos_total = ref 0 in
        let steps_total = ref 0 in
        let crashes_total = ref 0 in
        let restarts_total = ref 0 in
        let failures_seen = ref 0 in
        let fates =
          ref
            {
              Obs.Ledger.performed = 0;
              forfeited = 0;
              lost = 0;
              recovered = 0;
              violations = 0;
            }
        in
        let steps_sketch = Obs.Sketch.create () in
        let last_dash = ref neg_infinity in
        let last_prom = ref neg_infinity in
        let telemetry ~aborted ~final () =
          let now = Unix.gettimeofday () in
          (* fixed refresh rate: at most 10 frames/s, plus one final
             frame; prometheus flushes at most once a second *)
          if dashboard && (final || now -. !last_dash >= 0.1) then begin
            last_dash := now;
            print_string
              (Obs.Dashboard.ansi_home
              ^ chaos_dashboard_frame ~n ~m ~beta ~count:soak_count
                  ~runs_done:!runs_done ~dos_total:!dos_total
                  ~steps_total:!steps_total ~crashes_total:!crashes_total
                  ~restarts_total:!restarts_total ~failures:!failures_seen
                  ~aborted ~fates:!fates ~steps_sketch
                  ~elapsed:(now -. t_start));
            flush stdout
          end;
          match prom_out with
          | Some dir when final || now -. !last_prom >= 1.0 ->
              last_prom := now;
              chaos_prom_flush ~dir ~n ~m ~beta ~seed ~runs_done:!runs_done
                ~dos_total:!dos_total ~steps_total:!steps_total
                ~crashes_total:!crashes_total ~restarts_total:!restarts_total
                ~failures:!failures_seen ~aborted ~fates:!fates ~steps_sketch
                ()
          | _ -> ()
        in
        let on_run _i (r : Fault.Chaos.run_result) =
          incr runs_done;
          dos_total := !dos_total + r.Fault.Chaos.do_count;
          steps_total := !steps_total + r.Fault.Chaos.steps;
          crashes_total := !crashes_total + List.length r.Fault.Chaos.crashes;
          restarts_total :=
            !restarts_total + List.length r.Fault.Chaos.restarts;
          if r.Fault.Chaos.violations <> [] then incr failures_seen;
          Obs.Sketch.add steps_sketch r.Fault.Chaos.steps;
          let c =
            Obs.Ledger.counts
              (Obs.Ledger.of_trace ~n:r.Fault.Chaos.plan.Fault.Plan.n
                 ~m:r.Fault.Chaos.plan.Fault.Plan.m r.Fault.Chaos.trace)
          in
          (fates :=
             {
               Obs.Ledger.performed = !fates.Obs.Ledger.performed + c.Obs.Ledger.performed;
               forfeited = !fates.Obs.Ledger.forfeited + c.Obs.Ledger.forfeited;
               lost = !fates.Obs.Ledger.lost + c.Obs.Ledger.lost;
               recovered = !fates.Obs.Ledger.recovered + c.Obs.Ledger.recovered;
               violations =
                 !fates.Obs.Ledger.violations + c.Obs.Ledger.violations;
             });
          telemetry ~aborted:false ~final:false ()
        in
        let s =
          Fault.Chaos.soak ~fail_fast ?probe:(flight_probe flight)
            ~on_failure:(fun _r ->
              flight_dump ~json ~trigger:"violation"
                ~extra:(flight_extra "chaos-soak") flight)
            ~on_run ~seed ~count:soak_count ~n ~m ~beta ()
        in
        telemetry ~aborted:s.Fault.Chaos.aborted ~final:true ();
        if dashboard then print_newline ();
        let saved =
          match s.first_failure with
          | None -> None
          | Some (mp, _) ->
              let path =
                Filename.concat out_dir ("CHAOS_" ^ mp.Fault.Plan.name ^ ".json")
              in
              Fault.Plan.save ~path mp;
              Some path
        in
        if json then
          print_endline
            (J.to_string ~minify:false
               (J.Obj
                  [
                    ("plans", J.Int s.runs);
                    ("recovery_plans", J.Int s.recovery_runs);
                    ("failures", J.Int s.failures);
                    ("restarts", J.Int s.total_restarts);
                    ("aborted", J.Bool s.aborted);
                    ( "counterexample",
                      match saved with Some p -> J.String p | None -> J.Null );
                  ]))
        else begin
          Fmt.pr "chaos soak      : %d plans (n=%d m=%d beta=%d seed=%d)@."
            s.runs n m beta seed;
          Fmt.pr "recovery plans  : %d (%d restarts)@." s.recovery_runs
            s.total_restarts;
          Fmt.pr "oracle failures : %d@." s.failures;
          if s.aborted then
            Fmt.pr
              "fail-fast       : soak ABORTED mid-run by the streaming \
               at-most-once monitor@.";
          match saved with
          | Some p -> Fmt.pr "counterexample  : %s (shrunk, replayable)@." p
          | None -> ()
        end;
        flight_dump ~json ~trigger:"on-demand"
          ~extra:(flight_extra "chaos-soak") flight;
        if s.failures > 0 then exit 1
  in
  let plan_file =
    let doc =
      "Replay a fault plan from $(docv) (as produced by the chaos shrinker) \
       instead of soaking; exit 1 if any oracle fires."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let soak_count =
    let doc = "Number of random plans to soak when no --plan is given." in
    Arg.(value & opt int 200 & info [ "soak" ] ~docv:"COUNT" ~doc)
  in
  let out_dir =
    let doc = "Directory for shrunk counterexample plans found while soaking." in
    Arg.(value & opt string "." & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let max_steps_opt =
    let doc =
      "Step budget for a --plan replay (default 200000 + 1000*n*m); \
       exhausting it exits 3 with the recorded schedule prefix."
    in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"STEPS" ~doc)
  in
  let dashboard_flag =
    let doc =
      "Live TTY dashboard while soaking: throughput, cumulative job-fate \
       ledger, injected-fault counts, steps-per-plan percentiles and monitor \
       status, repainted at a fixed refresh rate."
    in
    Arg.(value & flag & info [ "dashboard" ] ~doc)
  in
  let prom_out =
    let doc =
      "Flush Prometheus text-exposition snapshots of the soak's telemetry to \
       $(docv)/amo_chaos.prom periodically (atomic replace; textfile-collector \
       compatible)."
    in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"DIR" ~doc)
  in
  let fail_fast_flag =
    let doc =
      "Attach a streaming oracle monitor to every soak run and abort the \
       whole soak the moment an at-most-once violation happens (Lemma 4.1), \
       instead of discovering it at run end."
    in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let doc =
    "Chaos-test KKbeta under composable fault plans (crashes, restarts, \
     stalls, partitions); replay or soak."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ plan_file $ soak_count $ jobs $ procs $ beta $ seed $ out_dir
      $ max_steps_opt $ dashboard_flag $ prom_out $ fail_fast_flag $ flight_out
      $ log_level $ json_flag)

let multicore_cmd =
  let run n m beta_opt log_level json =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let r = Multicore.Runner.run_kk ~n ~m ~beta () in
    let amo_ok = Result.is_ok (Core.Spec.check_at_most_once r.dos) in
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("algorithm", J.String (Printf.sprintf "KK(beta=%d) on domains" beta));
                ("n", J.Int n);
                ("m", J.Int m);
                ("amo_ok", J.Bool amo_ok);
                ("do_count", J.Int (Core.Spec.do_count r.dos));
                ("wall_seconds", J.Float r.wall_seconds);
                ("work", J.Int (Shm.Metrics.total_work r.metrics));
                ( "per_process",
                  J.List
                    (List.init m (fun i -> J.Int r.per_process.(i + 1))) );
                ( "metrics",
                  match J.parse (Shm.Metrics.to_json r.metrics) with
                  | Ok j -> j
                  | Error _ -> J.Null );
              ]))
    else begin
      (match Core.Spec.check_at_most_once r.dos with
      | Ok () -> Fmt.pr "at-most-once    : OK (real domains)@."
      | Error v ->
          Fmt.pr "at-most-once    : VIOLATED (%s)@."
            (Format.asprintf "%a" Core.Spec.pp_violation v));
      Fmt.pr "jobs performed  : %d / %d@." (Core.Spec.do_count r.dos) n;
      Fmt.pr "wall time       : %.3fs@." r.wall_seconds;
      Fmt.pr "work (weighted) : %d@." (Shm.Metrics.total_work r.metrics);
      for p = 1 to m do
        Fmt.pr "  p%-2d performed : %d@." p r.per_process.(p)
      done
    end;
    if not amo_ok then exit 1
  in
  let doc = "Run KKbeta on real OCaml 5 domains with atomic registers." in
  Cmd.v (Cmd.info "multicore" ~doc)
    Term.(const run $ jobs $ procs $ beta $ log_level $ json_flag)

let report_cmd =
  let run n m beta_opt seed sched_kind f plan_file whys out ledger_out
      log_level =
    apply_log_level log_level;
    (* obtain a provenance-rich `Full trace plus the run's identity:
       either a fault-plan replay or a plain KK run from the knobs *)
    let run_name, nn, mm, bb, trace, plan_json, params =
      match plan_file with
      | Some path -> (
          match Fault.Plan.load path with
          | Error e ->
              Fmt.epr "amo_run: %s: %s@." path e;
              exit 2
          | Ok plan when plan.Fault.Plan.net <> [] ->
              Fmt.epr
                "amo_run report: message-passing plans have no shared-memory \
                 trace to report on@.";
              exit 2
          | Ok plan ->
              let r = Fault.Chaos.run_plan ~trace_level:`Full plan in
              ( plan.Fault.Plan.name,
                plan.Fault.Plan.n,
                plan.Fault.Plan.m,
                plan.Fault.Plan.beta,
                r.Fault.Chaos.trace,
                Some (Fault.Plan.to_json plan),
                [
                  ("plan", path);
                  ("n", string_of_int plan.Fault.Plan.n);
                  ("m", string_of_int plan.Fault.Plan.m);
                  ("beta", string_of_int plan.Fault.Plan.beta);
                  ("seed", string_of_int plan.Fault.Plan.seed);
                ] ))
      | None ->
          let beta = Option.value beta_opt ~default:m in
          let rng = Util.Prng.of_int seed in
          let s =
            Core.Harness.kk
              ~scheduler:(make_sched sched_kind rng)
              ~adversary:(make_adversary rng ~f ~m ~n)
              ~trace_level:`Full ~verbose:true ~provenance:true ~vclocks:true
              ~n ~m ~beta ()
          in
          let sched_name =
            match sched_kind with
            | `Rr -> "rr"
            | `Random -> "random"
            | `Bursty -> "bursty"
          in
          ( Printf.sprintf "KK(beta=%d)" beta,
            n,
            m,
            beta,
            s.Core.Harness.trace,
            None,
            [
              ("n", string_of_int n);
              ("m", string_of_int m);
              ("beta", string_of_int beta);
              ("sched", sched_name);
              ("crashes", string_of_int f);
              ("seed", string_of_int seed);
            ] )
    in
    let ledger = Obs.Ledger.of_trace ~n:nn ~m:mm trace in
    let heatmap = Obs.Heatmap.of_trace trace in
    (* one verdict row per oracle, ledger agreement included;
       effectiveness/quiescence are gated on Lemma 4.3's termination
       condition (beta >= m), as in the chaos suite *)
    let oracles =
      Analysis.Oracle.suite ~n:nn ~m:mm ~beta:bb
      @ [ Analysis.Oracle.ledger_agreement ~n:nn ~m:mm ~beta:bb ]
    in
    let verdicts =
      List.map
        (fun (o : Analysis.Oracle.t) ->
          match o.Analysis.Oracle.check trace with
          | [] -> (o.Analysis.Oracle.name, true, "OK")
          | vs ->
              ( o.Analysis.Oracle.name,
                false,
                String.concat "; "
                  (List.map (fun v -> v.Analysis.Oracle.detail) vs) ))
        oracles
    in
    let why =
      List.map
        (fun job ->
          let chain = Obs.Span.causal_chain ~m:mm trace ~job in
          (job, Obs.Ledger.explain ledger job :: List.map Obs.Span.render chain))
        (List.sort_uniq compare whys)
    in
    (* --why also answers on stdout: the minimal causal chain *)
    List.iter
      (fun (job, lines) ->
        Fmt.pr "why job %d:@." job;
        List.iter (fun l -> Fmt.pr "  %s@." l) lines)
      why;
    let html =
      Obs.Report.make ~run_name ~params ~ledger ~heatmap ~verdicts ?plan_json
        ~why ~trace ()
    in
    Obs.Report.write_file ~path:out html;
    Fmt.pr "report          : %s@." out;
    (match ledger_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (J.to_string ~minify:false (Obs.Ledger.to_json ledger));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "ledger JSON     : %s@." path
    | None -> ());
    if List.exists (fun (_, ok, _) -> not ok) verdicts then exit 1
  in
  let plan_file =
    let doc =
      "Build the report from a fault-plan replay (shared-memory plans only) \
       instead of a plain KK run."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let whys =
    let doc =
      "Explain job $(docv): print its minimal causal chain and attach it to \
       the report (repeatable)."
    in
    Arg.(value & opt_all int [] & info [ "why" ] ~docv:"JOB" ~doc)
  in
  let out =
    let doc = "Output path for the self-contained HTML report." in
    Arg.(value & opt string "report.html" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let ledger_out =
    let doc = "Also write the per-job ledger as JSON to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "ledger-out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Run KKbeta (or replay a fault plan) and emit a self-contained HTML run \
     report: oracle verdicts, per-job provenance ledger, SVG timeline, \
     register-contention heatmap and causal why-chains."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ jobs $ procs $ beta $ seed $ sched $ crashes $ plan_file
      $ whys $ out $ ledger_out $ log_level)

(* ---- fuzz ---- *)

(* Render one dashboard frame from the fuzzer's running stats. *)
let fuzz_dashboard_frame ~n ~m ~beta ~budget ~blind ~elapsed
    (st : Analysis.Fuzz.stats) =
  let open Obs.Dashboard in
  let execs_per_s =
    if elapsed > 0. then float_of_int st.Analysis.Fuzz.execs /. elapsed else 0.
  in
  let status =
    if st.Analysis.Fuzz.violations > 0 then
      Printf.sprintf "%d VIOLATIONS" st.Analysis.Fuzz.violations
    else "OK"
  in
  render
    ~title:
      (Printf.sprintf "amo_run fuzz  n=%d m=%d beta=%d%s" n m beta
         (if blind then "  [blind]" else ""))
    ~status
    [
      section ~title:"progress"
        [
          gauge ~label:"budget"
            ~frac:
              (float_of_int st.Analysis.Fuzz.execs
              /. float_of_int (max 1 budget))
            (Printf.sprintf "%d / %d" st.Analysis.Fuzz.execs budget);
          kvf "throughput" "%.0f execs/s (%.1fs)" execs_per_s elapsed;
        ];
      section ~title:"coverage"
        [
          kvf "distinct states" "%d (%d lookups)"
            st.Analysis.Fuzz.distinct_states st.Analysis.Fuzz.lookups;
          gauge ~label:"hit rate" ~frac:(Analysis.Fuzz.hit_rate st)
            (Printf.sprintf "%.1f%%" (100. *. Analysis.Fuzz.hit_rate st));
          spark ~label:"novelty"
            (downsample ~width:44
               (List.map snd st.Analysis.Fuzz.novelty));
        ];
      section ~title:"corpus"
        [
          kvf "size" "%d (%d kept this run)" st.Analysis.Fuzz.corpus
            st.Analysis.Fuzz.kept;
        ];
      section ~title:"oracles"
        [
          kv "verdict"
            (if st.Analysis.Fuzz.violations = 0 then "OK"
             else Printf.sprintf "%d violations" st.Analysis.Fuzz.violations);
          kv "first violation"
            (match st.Analysis.Fuzz.first_violation_exec with
            | Some e -> Printf.sprintf "exec %d" e
            | None -> "-");
        ];
    ]

(* Prometheus snapshot of the fuzzer's running stats:
   <dir>/amo_fuzz.prom, atomically replaced on each flush. *)
let fuzz_prom_flush ~dir ~n ~m ~beta ~seed (st : Analysis.Fuzz.stats) =
  let reg = Obs.Prom.create () in
  let labels =
    [ ("n", string_of_int n); ("m", string_of_int m);
      ("beta", string_of_int beta); ("seed", string_of_int seed) ]
  in
  let c name help v =
    Obs.Prom.counter reg ~name ~help ~labels (float_of_int v)
  in
  c "amo_fuzz_execs_total" "Plan executions performed" st.Analysis.Fuzz.execs;
  c "amo_fuzz_kept_total" "Inputs kept for reaching a novel state"
    st.Analysis.Fuzz.kept;
  c "amo_fuzz_distinct_states_total" "Novel coverage fingerprints recorded"
    st.Analysis.Fuzz.distinct_states;
  c "amo_fuzz_state_lookups_total" "Coverage fingerprint observations"
    st.Analysis.Fuzz.lookups;
  c "amo_fuzz_violations_total" "Executions with an oracle violation"
    st.Analysis.Fuzz.violations;
  Obs.Prom.gauge reg ~name:"amo_fuzz_corpus_size" ~labels
    ~help:"Current corpus size (seeds + keepers)"
    (float_of_int st.Analysis.Fuzz.corpus);
  Obs.Prom.gauge reg ~name:"amo_fuzz_coverage_hit_rate" ~labels
    ~help:"Fraction of state observations already covered"
    (Analysis.Fuzz.hit_rate st);
  Obs.Prom.write_file reg (Filename.concat dir "amo_fuzz.prom")

let fuzz_cmd =
  let run budget corpus_dir n m beta_opt seed algo_kind blind minimize out_dir
      max_steps max_seconds table_bits stop_on_violation dashboard prom_out
      flight_out log_level json =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let flight = make_flight flight_out in
    let flight_extra =
      [ ("cmd", J.String "fuzz"); ("seed", J.Int seed) ]
    in
    let algo =
      match algo_kind with
      | `Kk -> Fault.Plan.Kk
      | `Skip_check -> Fault.Plan.Kk_mutant_skip_check
      | `Skip_recovery_mark -> Fault.Plan.Kk_mutant_skip_recovery_mark
    in
    (* corpus: load every *.json plan in the dir as a seed; a file that
       does not parse or validate is a hard usage error (exit 2) — a
       corrupted corpus must not silently shrink the seed set *)
    let load_corpus dir =
      let entries =
        List.sort compare
          (List.filter
             (fun f -> Filename.check_suffix f ".json")
             (Array.to_list (Sys.readdir dir)))
      in
      List.map
        (fun f ->
          let path = Filename.concat dir f in
          match Fault.Plan.load path with
          | Error e ->
              Fmt.epr "amo_run: bad corpus entry %s: %s@." path e;
              exit 2
          | Ok plan -> (
              match Fault.Plan.validate plan with
              | Error e ->
                  Fmt.epr "amo_run: bad corpus entry %s: %s@." path e;
                  exit 2
              | Ok () -> plan))
        entries
    in
    let seeds =
      match corpus_dir with
      | Some dir when Sys.file_exists dir && Sys.is_directory dir -> (
          match load_corpus dir with
          | [] -> Fault.Fuzz.default_seeds ~algo ~seed ~n ~m ~beta ()
          | plans -> plans)
      | Some dir when Sys.file_exists dir ->
          Fmt.epr "amo_run: --corpus %s is not a directory@." dir;
          exit 2
      | Some dir ->
          Sys.mkdir dir 0o755;
          Fault.Fuzz.default_seeds ~algo ~seed ~n ~m ~beta ()
      | None -> Fault.Fuzz.default_seeds ~algo ~seed ~n ~m ~beta ()
    in
    (* persistence: every keeper is written back content-addressed, so
       reloading a corpus never duplicates entries *)
    let on_keep =
      match corpus_dir with
      | None -> None
      | Some dir ->
          Some
            (fun (plan : Fault.Plan.t) ->
              let body = Fault.Plan.to_string plan in
              let path =
                Filename.concat dir
                  (Printf.sprintf "fuzz-%08x.json" (Hashtbl.hash body))
              in
              if not (Sys.file_exists path) then begin
                let oc = open_out path in
                output_string oc body;
                output_char oc '\n';
                close_out oc
              end)
    in
    let t_start = Unix.gettimeofday () in
    let last_dash = ref neg_infinity in
    let last_prom = ref neg_infinity in
    let telemetry ~final (st : Analysis.Fuzz.stats) =
      let now = Unix.gettimeofday () in
      if dashboard && (final || now -. !last_dash >= 0.1) then begin
        last_dash := now;
        print_string
          (Obs.Dashboard.ansi_home
          ^ fuzz_dashboard_frame ~n ~m ~beta ~budget ~blind
              ~elapsed:(now -. t_start) st);
        flush stdout
      end;
      match prom_out with
      | Some dir when final || now -. !last_prom >= 1.0 ->
          last_prom := now;
          fuzz_prom_flush ~dir ~n ~m ~beta ~seed st
      | _ -> ()
    in
    let harness =
      let probe = flight_probe flight in
      if blind then Fault.Fuzz.blind_harness ?probe ?max_steps ()
      else Fault.Fuzz.harness ?probe ?max_steps ()
    in
    (* retain the journal the moment the first violating execution is
       seen — the recorder still holds that execution's tail *)
    let on_exec (st : Analysis.Fuzz.stats) =
      if st.Analysis.Fuzz.violations > 0 then
        flight_dump ~json ~trigger:"violation" ~extra:flight_extra flight;
      telemetry ~final:false st
    in
    let outcome =
      Analysis.Fuzz.run ?table_bits ~stop_on_violation ?max_seconds ?on_keep
        ~on_exec ~seed ~budget ~harness ~seeds ()
    in
    let st = outcome.Analysis.Fuzz.stats in
    telemetry ~final:true st;
    if dashboard then print_newline ();
    let elapsed = Unix.gettimeofday () -. t_start in
    (* one replayable FUZZ_*.json per distinct failure; --minimize
       ddmin-shrinks each through the chaos shrinker first *)
    let distinct_failures =
      let tbl = Hashtbl.create 8 in
      List.filter
        (fun p ->
          let key = Fault.Plan.to_string p in
          if Hashtbl.mem tbl key then false
          else begin
            Hashtbl.add tbl key ();
            true
          end)
        outcome.Analysis.Fuzz.failures
    in
    let saved =
      List.mapi
        (fun i (p : Fault.Plan.t) ->
          let p =
            if not minimize then p
            else
              match Fault.Fuzz.minimize p with
              | Some (minimal, _) -> minimal
              | None -> p
          in
          let path =
            Filename.concat out_dir
              (Printf.sprintf "FUZZ_%02d_%s.json" i p.Fault.Plan.name)
          in
          Fault.Plan.save ~path p;
          path)
        distinct_failures
    in
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("budget", J.Int budget);
                ("execs", J.Int st.Analysis.Fuzz.execs);
                ("execs_per_sec",
                 J.Float
                   (if elapsed > 0. then
                      float_of_int st.Analysis.Fuzz.execs /. elapsed
                    else 0.));
                ("seeds", J.Int (List.length seeds));
                ("kept", J.Int st.Analysis.Fuzz.kept);
                ("corpus", J.Int st.Analysis.Fuzz.corpus);
                ("distinct_states", J.Int st.Analysis.Fuzz.distinct_states);
                ("lookups", J.Int st.Analysis.Fuzz.lookups);
                ("hit_rate", J.Float (Analysis.Fuzz.hit_rate st));
                ("violations", J.Int st.Analysis.Fuzz.violations);
                ( "first_violation_exec",
                  match st.Analysis.Fuzz.first_violation_exec with
                  | Some e -> J.Int e
                  | None -> J.Null );
                ("blind", J.Bool blind);
                ( "counterexamples",
                  J.List (List.map (fun p -> J.String p) saved) );
              ]))
    else begin
      Fmt.pr "fuzz            : %d execs in %.1fs (%.0f/s)%s@."
        st.Analysis.Fuzz.execs elapsed
        (if elapsed > 0. then float_of_int st.Analysis.Fuzz.execs /. elapsed
         else 0.)
        (if blind then "  [blind]" else "");
      Fmt.pr "instance        : n=%d m=%d beta=%d algo=%s seed=%d@." n m beta
        (Fault.Plan.algo_to_string algo)
        seed;
      Fmt.pr "corpus          : %d plans (%d seeds, %d kept)@."
        st.Analysis.Fuzz.corpus (List.length seeds) st.Analysis.Fuzz.kept;
      Fmt.pr "coverage        : %d distinct states, %d lookups (%.1f%% hit)@."
        st.Analysis.Fuzz.distinct_states st.Analysis.Fuzz.lookups
        (100. *. Analysis.Fuzz.hit_rate st);
      (match st.Analysis.Fuzz.first_violation_exec with
      | Some e ->
          Fmt.pr "violations      : %d (first at exec %d)@."
            st.Analysis.Fuzz.violations e
      | None -> Fmt.pr "violations      : 0@.");
      List.iter
        (fun p -> Fmt.pr "counterexample  : %s (replay: amo_run chaos --plan)@." p)
        saved
    end;
    flight_dump ~json
      ~trigger:
        (if st.Analysis.Fuzz.violations > 0 then "violation" else "on-demand")
      ~extra:flight_extra flight;
    if st.Analysis.Fuzz.violations > 0 then exit 1
  in
  let budget =
    let doc = "Total execution budget (seed runs included)." in
    Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"EXECS" ~doc)
  in
  let corpus_dir =
    let doc =
      "Persistent corpus directory: existing *.json plans seed the run \
       (a file that fails to parse or validate exits 2); every kept input \
       is written back content-addressed.  Created if missing."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let algo_arg =
    let doc =
      "Algorithm under test: kk, skip-check or skip-recovery-mark (the \
       seeded mutants)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("kk", `Kk);
               ("skip-check", `Skip_check);
               ("skip-recovery-mark", `Skip_recovery_mark);
             ])
          `Kk
      & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let blind_flag =
    let doc =
      "Disable coverage guidance: draw every input fresh instead of \
       mutating the corpus (the Monte-Carlo control of bench E17)."
    in
    Arg.(value & flag & info [ "blind" ] ~doc)
  in
  let minimize_flag =
    let doc =
      "ddmin-shrink each counterexample (pin the recorded schedule, \
       delta-minimize faults and picks) before saving it."
    in
    Arg.(value & flag & info [ "minimize" ] ~doc)
  in
  let out_dir =
    let doc = "Directory for FUZZ_*.json counterexample plans." in
    Arg.(value & opt string "." & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let max_steps_opt =
    let doc = "Per-execution step budget (default 200000 + 1000*n*m)." in
    Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"STEPS" ~doc)
  in
  let max_seconds_opt =
    let doc =
      "Wall-clock time box: stop drawing new inputs after $(docv) seconds \
       (the nightly-CI knob; the budget still caps total work)."
    in
    Arg.(
      value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECS" ~doc)
  in
  let table_bits_opt =
    let doc =
      "log2 of the novelty table size (default 20, a 1M-slot table).  \
       Affects search order only, never verdicts."
    in
    Arg.(value & opt (some int) None & info [ "table-bits" ] ~docv:"BITS" ~doc)
  in
  let stop_on_violation_flag =
    let doc = "Stop at the first oracle violation instead of spending the \
               whole budget." in
    Arg.(value & flag & info [ "stop-on-violation" ] ~doc)
  in
  let dashboard_flag =
    let doc =
      "Live TTY dashboard: budget progress, execs/sec, coverage hit rate, \
       the novelty curve as a sparkline, corpus size and oracle status."
    in
    Arg.(value & flag & info [ "dashboard" ] ~doc)
  in
  let prom_out =
    let doc =
      "Flush Prometheus text-exposition snapshots of the fuzzing stats to \
       $(docv)/amo_fuzz.prom periodically (atomic replace)."
    in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "Coverage-guided fuzzing over schedules and fault plans: mutate a \
     persistent corpus, keep inputs that reach novel behavioral states \
     (Mazurkiewicz-equivalent rediscoveries are discarded), ddmin-shrink \
     any oracle violation into a replayable FUZZ_*.json plan."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ budget $ corpus_dir $ jobs $ procs $ beta $ seed $ algo_arg
      $ blind_flag $ minimize_flag $ out_dir $ max_steps_opt $ max_seconds_opt
      $ table_bits_opt $ stop_on_violation_flag $ dashboard_flag $ prom_out
      $ flight_out $ log_level $ json_flag)

let profile_cmd =
  let run n m beta_opt seed sched_kind f mc rtevents_flag log_level json
      trace_out prom_out report_out =
    apply_log_level log_level;
    let beta = Option.value beta_opt ~default:m in
    let prom_write ~fill dir =
      let reg = Obs.Prom.create () in
      fill reg;
      let path = Filename.concat dir "amo_profile.prom" in
      Obs.Prom.write_file reg path;
      if not json then Fmt.pr "prometheus      : %s@." path
    in
    if mc then begin
      (* real domains: there is no executor probe seam, so profiling
         is runtime-events only — mc.run/mc.domain spans, GC phases
         and counters straight from the runtime *)
      (match report_out with
      | Some _ ->
          Fmt.epr
            "amo_run profile: --report-out needs the simulator (drop --mc)@.";
          exit 2
      | None -> ());
      let re = Obs.Rtevents.start () in
      let outcome = Multicore.Runner.run_kk ~n ~m ~beta ~rtevents:re () in
      let summary = Obs.Rtevents.stop re in
      let do_count = List.length outcome.Multicore.Runner.dos in
      if json then
        print_endline
          (J.to_string ~minify:false
             (J.Obj
                [
                  ("algorithm", J.String "mc-profile");
                  ("n", J.Int n);
                  ("m", J.Int m);
                  ("beta", J.Int beta);
                  ("do_count", J.Int do_count);
                  ( "wall_seconds",
                    J.Float outcome.Multicore.Runner.wall_seconds );
                  ("rtevents", Obs.Rtevents.summary_json summary);
                ]))
      else begin
        Fmt.pr "algorithm       : KK(beta=%d) on %d domains@." beta m;
        Fmt.pr "jobs performed  : %d / %d@." do_count n;
        Fmt.pr "wall seconds    : %.4f@." outcome.Multicore.Runner.wall_seconds;
        Fmt.pr "runtime events  : %d (%d lost), total GC %d us@."
          summary.Obs.Rtevents.events summary.Obs.Rtevents.lost
          (Obs.Rtevents.total_gc_us summary);
        List.iter
          (fun (name, count, dur_us) ->
            Fmt.pr "  %-24s %6d spans %10d us@." name count dur_us)
          (Obs.Rtevents.by_phase summary)
      end;
      (match trace_out with
      | Some path ->
          (* runtime tracks only: there is no logical-step trace here *)
          let doc =
            J.Obj
              [
                ( "traceEvents",
                  J.List (Obs.Rtevents.trace_events summary) );
                ("displayTimeUnit", J.String "ms");
              ]
          in
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (J.to_string ~minify:false doc));
          if not json then Fmt.pr "chrome trace    : %s@." path
      | None -> ());
      (match prom_out with
      | Some dir -> prom_write dir ~fill:(fun reg -> Obs.Rtevents.prom summary reg)
      | None -> ())
    end
    else begin
      (* simulator: a Gcstat probe rides the executor's event stream,
         attributing allocation to (pid, phase); --rtevents adds the
         runtime's own view on top.  The run is traced at `Full with
         verbose memory events so attribution has per-access
         granularity — profile numbers include tracing cost, which is
         the honest figure for an instrumented run. *)
      let rng = Util.Prng.of_int seed in
      let gc = Obs.Gcstat.create () in
      let re = if rtevents_flag then Some (Obs.Rtevents.start ()) else None in
      let body () =
        Core.Harness.kk
          ~scheduler:(make_sched sched_kind rng)
          ~adversary:(make_adversary rng ~f ~m ~n)
          ~trace_level:`Full ~verbose:true
          ~provenance:(report_out <> None)
          ~probe:(Obs.Gcstat.probe gc) ~n ~m ~beta ()
      in
      let s =
        match re with
        | Some _ -> Obs.Rtevents.with_span "kk.run" body
        | None -> body ()
      in
      let rsummary = Option.map Obs.Rtevents.stop re in
      if json then
        print_endline
          (J.to_string ~minify:false
             (J.Obj
                ([
                   ("algorithm", J.String "kk-profile");
                   ("n", J.Int n);
                   ("m", J.Int m);
                   ("beta", J.Int beta);
                   ("do_count", J.Int s.Core.Harness.do_count);
                   ("steps", J.Int s.Core.Harness.steps);
                   ("gcstat", Obs.Gcstat.to_json gc);
                 ]
                @
                match rsummary with
                | Some summary ->
                    [ ("rtevents", Obs.Rtevents.summary_json summary) ]
                | None -> [])))
      else begin
        Fmt.pr "algorithm       : KK(beta=%d), simulator@." beta;
        Fmt.pr "jobs performed  : %d / %d@." s.Core.Harness.do_count n;
        Fmt.pr "executor steps  : %d@." s.Core.Harness.steps;
        Fmt.pr "%a@." Obs.Gcstat.pp gc;
        match rsummary with
        | Some summary ->
            Fmt.pr "runtime events  : %d (%d lost), total GC %d us@."
              summary.Obs.Rtevents.events summary.Obs.Rtevents.lost
              (Obs.Rtevents.total_gc_us summary);
            List.iter
              (fun (name, count, dur_us) ->
                Fmt.pr "  %-24s %6d spans %10d us@." name count dur_us)
              (Obs.Rtevents.by_phase summary)
        | None -> ()
      end;
      (match trace_out with
      | Some path ->
          let extra =
            match rsummary with
            | Some summary -> Obs.Rtevents.trace_events summary
            | None -> []
          in
          Obs.Chrome_trace.write_file
            ~run_name:(Printf.sprintf "KK(beta=%d) profile" beta)
            ~heatmap:(Obs.Heatmap.of_trace s.Core.Harness.trace)
            ~extra ~m ~path s.Core.Harness.trace;
          if not json then Fmt.pr "chrome trace    : %s@." path
      | None -> ());
      (match prom_out with
      | Some dir ->
          prom_write dir ~fill:(fun reg ->
              Obs.Gcstat.prom gc reg;
              match rsummary with
              | Some summary -> Obs.Rtevents.prom summary reg
              | None -> ())
      | None -> ());
      match report_out with
      | Some path ->
          let trace = s.Core.Harness.trace in
          let ledger = Obs.Ledger.of_trace ~n ~m trace in
          let html =
            Obs.Report.make
              ~run_name:(Printf.sprintf "KK(beta=%d) profile" beta)
              ~params:
                [
                  ("n", string_of_int n);
                  ("m", string_of_int m);
                  ("beta", string_of_int beta);
                  ("seed", string_of_int seed);
                  ("crashes", string_of_int f);
                ]
              ~ledger
              ~heatmap:(Obs.Heatmap.of_trace trace)
              ~gcstat:gc ~trace ()
          in
          Obs.Report.write_file ~path html;
          if not json then Fmt.pr "html report     : %s@." path
      | None -> ()
    end
  in
  let mc_flag =
    let doc =
      "Profile the multicore runner (real domains) instead of the simulator: \
       runtime-events only, no per-phase allocation attribution."
    in
    Arg.(value & flag & info [ "mc" ] ~doc)
  in
  let rtevents_flag =
    let doc =
      "Also attach a Runtime_events consumer: GC phases, lifecycle and \
       counters from the runtime itself, merged into --trace-out as \
       dedicated tracks."
    in
    Arg.(value & flag & info [ "rtevents" ] ~doc)
  in
  let prom_out =
    let doc =
      "Write a Prometheus snapshot of the profile (GC attribution + runtime \
       events) to $(docv)/amo_profile.prom."
    in
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"DIR" ~doc)
  in
  let report_out =
    let doc =
      "Write the self-contained HTML run report, GC-attribution section \
       included, to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Profile a run: per-phase GC attribution via the executor probe seam, \
     and optionally the runtime's own event stream (GC phases, domain \
     lifecycle) via OCaml 5 Runtime_events."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ jobs $ procs $ beta $ seed $ sched $ crashes $ mc_flag
      $ rtevents_flag $ log_level $ json_flag $ trace_out $ prom_out
      $ report_out)

(* ------------------------------------------------------------------ *)
(* trace: the offline flight-journal engine (decode / query / merge).
   Exit contract: 0 clean, 1 only when --fail-empty matched nothing,
   2 on unreadable/corrupt input (recovered records are still
   printed — a truncated journal yields everything before the
   damage, plus the byte offset where decoding stopped). *)

let trace_cmd =
  (* a dump directory, its manifest.json, or a single segment file *)
  let load path =
    match Obs.Journal.load_dump path with
    | Error e ->
        Fmt.epr "amo_run: %s: %s@." path e;
        exit 2
    | Ok (items, damages) ->
        List.iter
          (fun (file, (d : Obs.Journal.damage)) ->
            Fmt.epr
              "amo_run: %s: damaged at byte %d: %s (recovered all prior \
               records)@."
              file d.Obs.Journal.offset d.Obs.Journal.reason)
          damages;
        (items, damages <> [])
  in
  let infer_m items =
    List.fold_left
      (fun acc it -> max acc (Obs.Journal.record_of_item it).Obs.Sink.pid)
      1 items
  in
  let jsonl_of_record r =
    J.to_string ~minify:true (Obs.Sink.record_to_json r)
  in
  (* generic records (e.g. multicore mc.do instants) are not executor
     events: they ride into the Chrome document through the ?extra
     seam *)
  let chrome_of_record (r : Obs.Sink.record) =
    let base =
      [
        ("name", J.String r.Obs.Sink.name);
        ("pid", J.Int r.Obs.Sink.pid);
        ("tid", J.Int r.Obs.Sink.pid);
        ("ts", J.Int r.Obs.Sink.ts);
      ]
    in
    let args =
      match r.Obs.Sink.args with [] -> [] | a -> [ ("args", J.Obj a) ]
    in
    match r.Obs.Sink.kind with
    | Obs.Sink.Span ->
        J.Obj
          (base @ [ ("ph", J.String "X"); ("dur", J.Int r.Obs.Sink.dur) ] @ args)
    | Obs.Sink.Counter -> J.Obj (base @ [ ("ph", J.String "C") ] @ args)
    | Obs.Sink.Instant | Obs.Sink.Log ->
        J.Obj (base @ [ ("ph", J.String "i"); ("s", J.String "t") ] @ args)
  in
  let in_arg =
    let doc =
      "Journal to read: a flight-dump directory (or its manifest.json), or a \
       single segment-*.amoj file."
    in
    Arg.(required & opt (some string) None & info [ "in" ] ~docv:"PATH" ~doc)
  in
  let decode_cmd =
    let run in_path jsonl_out chrome_out log_level =
      apply_log_level log_level;
      let items, damaged = load in_path in
      let emit_jsonl oc =
        List.iter
          (fun it ->
            output_string oc (jsonl_of_record (Obs.Journal.record_of_item it));
            output_char oc '\n')
          items
      in
      (match jsonl_out with
      | Some path ->
          let oc = open_out path in
          emit_jsonl oc;
          close_out oc
      | None -> if chrome_out = None then emit_jsonl stdout);
      (match chrome_out with
      | None -> ()
      | Some path ->
          let trace = Obs.Journal.to_trace items in
          let m = infer_m items in
          let extra =
            List.filter_map
              (function
                | Obs.Journal.Record r -> Some (chrome_of_record r)
                | Obs.Journal.Event _ -> None)
              items
          in
          let doc =
            Obs.Chrome_trace.to_string ~run_name:(Filename.basename in_path)
              ~extra ~m trace
          in
          let oc = open_out path in
          output_string oc doc;
          close_out oc);
      if damaged then exit 2
    in
    let jsonl_out =
      let doc = "Write the JSONL decode to $(docv) instead of stdout." in
      Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
    in
    let chrome_out =
      let doc =
        "Also render the journal as a Chrome trace_event document at $(docv) \
         (executor events become spans/marks; other records ride along as \
         extra events).  Suppresses the stdout JSONL unless --jsonl is also \
         given."
      in
      Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "Decode a binary journal to JSONL (one record per line) or a Chrome \
       trace; recovers every record before any damage and exits 2 if damage \
       was found."
    in
    Cmd.v (Cmd.info "decode" ~doc)
      Term.(const run $ in_arg $ jsonl_out $ chrome_out $ log_level)
  in
  let query_cmd =
    let run in_path pid_f kind_f name_f from_f to_f why procs fail_empty
        log_level =
      apply_log_level log_level;
      let items, damaged = load in_path in
      if damaged then exit 2;
      match why with
      | Some job ->
          let trace = Obs.Journal.to_trace items in
          let m = Option.value procs ~default:(infer_m items) in
          let chain = Obs.Span.causal_chain ~m trace ~job in
          List.iter (fun s -> print_endline (Obs.Span.render s)) chain;
          if chain = [] && fail_empty then exit 1
      | None ->
          let keep (r : Obs.Sink.record) =
            (match pid_f with None -> true | Some p -> r.Obs.Sink.pid = p)
            && (match kind_f with
               | None -> true
               | Some k -> r.Obs.Sink.kind = k)
            && (match name_f with
               | None -> true
               | Some sub ->
                   let name = r.Obs.Sink.name in
                   let nl = String.length name and sl = String.length sub in
                   let rec at i =
                     i + sl <= nl
                     && (String.sub name i sl = sub || at (i + 1))
                   in
                   at 0)
            && (match from_f with None -> true | Some t -> r.Obs.Sink.ts >= t)
            && match to_f with None -> true | Some t -> r.Obs.Sink.ts <= t
          in
          let matched =
            List.filter keep (List.map Obs.Journal.record_of_item items)
          in
          List.iter (fun r -> print_endline (jsonl_of_record r)) matched;
          if matched = [] && fail_empty then exit 1
    in
    let pid_f =
      let doc = "Keep only records of process $(docv)." in
      Arg.(value & opt (some int) None & info [ "pid" ] ~docv:"PID" ~doc)
    in
    let kind_f =
      let doc = "Keep only $(docv) records (span, instant, counter, log)." in
      Arg.(
        value
        & opt
            (some
               (enum
                  [
                    ("span", Obs.Sink.Span);
                    ("instant", Obs.Sink.Instant);
                    ("counter", Obs.Sink.Counter);
                    ("log", Obs.Sink.Log);
                  ]))
            None
        & info [ "kind" ] ~docv:"KIND" ~doc)
    in
    let name_f =
      let doc = "Keep only records whose name contains $(docv)." in
      Arg.(value & opt (some string) None & info [ "name" ] ~docv:"SUBSTR" ~doc)
    in
    let from_f =
      let doc = "Keep only records with ts >= $(docv)." in
      Arg.(value & opt (some int) None & info [ "from" ] ~docv:"TS" ~doc)
    in
    let to_f =
      let doc = "Keep only records with ts <= $(docv)." in
      Arg.(value & opt (some int) None & info [ "to" ] ~docv:"TS" ~doc)
    in
    let why =
      let doc =
        "Instead of filtering, print the minimal causal chain explaining job \
         $(docv)'s fate (Obs.Span.causal_chain over the journal's executor \
         events) — the offline twin of [amo_run report --why]."
      in
      Arg.(value & opt (some int) None & info [ "why" ] ~docv:"JOB" ~doc)
    in
    let procs_opt =
      let doc =
        "Process count for --why's causal reconstruction (default: the \
         largest pid seen in the journal)."
      in
      Arg.(value & opt (some int) None & info [ "procs" ] ~docv:"M" ~doc)
    in
    let fail_empty =
      let doc = "Exit 1 when nothing matches (for CI gating)." in
      Arg.(value & flag & info [ "fail-empty" ] ~doc)
    in
    let doc =
      "Filter a journal by pid/kind/name/time-window (JSONL output), or \
       explain one job's fate with --why; exits 1 with --fail-empty on no \
       match, 2 on a damaged journal."
    in
    Cmd.v (Cmd.info "query" ~doc)
      Term.(
        const run $ in_arg $ pid_f $ kind_f $ name_f $ from_f $ to_f $ why
        $ procs_opt $ fail_empty $ log_level)
  in
  let merge_cmd =
    let run in_paths out log_level =
      apply_log_level log_level;
      let loaded = List.map load in_paths in
      if List.exists snd loaded then exit 2;
      let merged = Obs.Journal.merge (Array.of_list (List.map fst loaded)) in
      match out with
      | Some path ->
          (* a merged stream is itself a valid journal segment *)
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          output_string oc Obs.Journal.header;
          List.iter
            (fun (_src, it) -> output_string oc (Obs.Journal.encode it))
            merged;
          close_out oc;
          Sys.rename tmp path;
          Fmt.pr "merged          : %d records from %d journals -> %s@."
            (List.length merged) (List.length in_paths) path
      | None ->
          List.iter
            (fun (src, it) ->
              let r = Obs.Journal.record_of_item it in
              let j =
                match Obs.Sink.record_to_json r with
                | J.Obj fields -> J.Obj (("src", J.Int src) :: fields)
                | j -> j
              in
              print_endline (J.to_string ~minify:true j))
            merged
    in
    let in_args =
      let doc = "A journal to merge (repeatable: one per multicore domain)." in
      Arg.(non_empty & opt_all string [] & info [ "in" ] ~docv:"PATH" ~doc)
    in
    let out =
      let doc =
        "Write the merged stream as a binary journal to $(docv) (atomic \
         tmp+rename) instead of JSONL on stdout."
      in
      Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "Merge k per-domain journals into one stream ordered by (ts, pid, \
       source) — repeated merges of the same journals are byte-identical."
    in
    Cmd.v (Cmd.info "merge" ~doc) Term.(const run $ in_args $ out $ log_level)
  in
  let doc =
    "Offline engine over binary flight journals: decode to JSONL/Chrome, \
     query by pid/kind/name/time or causal --why, merge per-domain journals \
     deterministically."
  in
  Cmd.group (Cmd.info "trace" ~doc) [ decode_cmd; query_cmd; merge_cmd ]

let version_cmd =
  let run json =
    (* archived artifacts (BENCH_*.json baselines, Prometheus
       snapshots) are attributable to a binary + snapshot schema pair *)
    if json then
      print_endline
        (J.to_string ~minify:false
           (J.Obj
              [
                ("version", J.String version_string);
                ("snapshot_schema_version", J.Int Obs.Snapshot.schema_version);
              ]))
    else begin
      Fmt.pr "amo_run %s@." version_string;
      Fmt.pr "snapshot schema : v%d (BENCH_*.json / bench/compare.exe)@."
        Obs.Snapshot.schema_version
    end
  in
  let doc =
    "Print the binary version and the Obs.Snapshot schema version, so \
     archived BENCH_*.json and Prometheus artifacts are attributable."
  in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ json_flag)

let () =
  let doc = "at-most-once and Write-All algorithms (Kentros & Kiayias)" in
  let info = Cmd.info "amo_run" ~version:version_string ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            kk_cmd;
            claim_cmd;
            worst_cmd;
            iterative_cmd;
            wa_cmd;
            trivial_cmd;
            pairing_cmd;
            msg_cmd;
            explore_cmd;
            chaos_cmd;
            fuzz_cmd;
            multicore_cmd;
            report_cmd;
            profile_cmd;
            trace_cmd;
            version_cmd;
          ]))
