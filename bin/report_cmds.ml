(* Explaining one run: report (HTML run report, causal why-chains) and
   profile (GC attribution and runtime events). *)

open Cmdliner
module J = Obs.Json
open Cli

let report_cmd =
  let run ({ n; m; f; seed; sched } as sim) beta_opt plan_file whys out ledger_out =
    (* obtain a provenance-rich `Full trace plus the run's identity:
       either a fault-plan replay or a plain KK run from the knobs *)
    let run_name, n, m, beta, trace, plan_json, params =
      match plan_file with
      | Some path -> (
          match Fault.Plan.load path with
          | Error e ->
              Fmt.epr "amo_run: %s: %s@." path e;
              exit 2
          | Ok plan when plan.net <> [] ->
              Fmt.epr
                "amo_run report: message-passing plans have no shared-memory \
                 trace to report on@.";
              exit 2
          | Ok plan ->
              let r = Fault.Chaos.run_plan ~trace_level:`Full plan in
              ( plan.name,
                plan.n,
                plan.m,
                plan.beta,
                r.trace,
                Some (Fault.Plan.to_json plan),
                ("plan", path)
                :: int_params
                     [ ("n", plan.n); ("m", plan.m); ("beta", plan.beta); ("seed", plan.seed) ]
              ))
      | None ->
          let beta = Option.value beta_opt ~default:m in
          let scheduler, adversary = sim_env sim in
          let s =
            Core.Harness.kk ~scheduler ~adversary ~trace_level:`Full ~verbose:true
              ~provenance:true ~n ~m ~beta ()
          in
          ( Printf.sprintf "KK(beta=%d)" beta,
            n,
            m,
            beta,
            s.trace,
            None,
            int_params [ ("n", n); ("m", m); ("beta", beta) ]
            @ (("sched", sched_name sched) :: int_params [ ("crashes", f); ("seed", seed) ]) )
    in
    let ledger = Obs.Ledger.of_trace ~n ~m trace in
    (* one verdict row per oracle, ledger agreement included;
       effectiveness/quiescence are gated on Lemma 4.3's termination
       condition (beta >= m), as in the chaos suite *)
    let verdicts =
      List.map
        (fun (o : Analysis.Oracle.t) ->
          match o.check trace with
          | [] -> (o.name, true, "OK")
          | vs ->
              ( o.name,
                false,
                String.concat "; " (List.map (fun v -> v.Analysis.Oracle.detail) vs) ))
        (Analysis.Oracle.suite ~n ~m ~beta
        @ [ Analysis.Oracle.ledger_agreement ~n ~m ~beta ])
    in
    let why =
      List.map
        (fun job ->
          let chain = Obs.Span.causal_chain ~m trace ~job in
          (job, Obs.Ledger.explain ledger job :: List.map Obs.Span.render chain))
        (List.sort_uniq compare whys)
    in
    (* --why also answers on stdout: the minimal causal chain *)
    List.iter
      (fun (job, lines) ->
        Fmt.pr "why job %d:@." job;
        List.iter (fun l -> Fmt.pr "  %s@." l) lines)
      why;
    save ~json:false "report" out
      (Obs.Report.make ~run_name ~params ~ledger ~heatmap:(Obs.Heatmap.of_trace trace)
         ~verdicts ?plan_json ~why ~trace ());
    Option.iter
      (fun path ->
        save ~json:false "ledger JSON" path
          (J.to_string ~minify:false (Obs.Ledger.to_json ledger) ^ "\n"))
      ledger_out;
    if List.exists (fun (_, ok, _) -> not ok) verdicts then exit 1
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
    Arg.(value & opt (some string) None & info [ "ledger-out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Run KKbeta (or replay a fault plan) and emit a self-contained HTML run \
     report: oracle verdicts, per-job provenance ledger, SVG timeline, \
     register-contention heatmap and causal why-chains."
  in
  cmd "report" ~doc
    Term.(
      const run $ sim $ beta
      $ plan_file
          "Build the report from a fault-plan replay (shared-memory plans \
           only) instead of a plain KK run."
      $ whys $ out $ ledger_out)

(* ---- profile ---- *)

let rtevents_row (summary : Obs.Rtevents.summary) =
  {
    lines =
      line "runtime events"
        (Printf.sprintf "%d (%d lost), total GC %d us" summary.events summary.lost
           (Obs.Rtevents.total_gc_us summary))
      :: List.map
           (fun (name, count, dur_us) ->
             Printf.sprintf "  %-24s %6d spans %10d us" name count dur_us)
           (Obs.Rtevents.by_phase summary);
    fields = [ ("rtevents", Obs.Rtevents.summary_json summary) ];
  }

(* The Chrome trace and Prometheus snapshot of a profile *)
let write_profile ~json ~trace_out ~prom_out chrome metrics =
  Option.iter (fun path -> save ~json "chrome trace" path (chrome ())) trace_out;
  Option.iter (fun path -> save ~json "prometheus" path (prom_snapshot metrics)) prom_out

(* real domains: there is no executor probe seam, so profiling is
   runtime-events only — mc.run/mc.domain spans, GC phases and
   counters straight from the runtime *)
let profile_mc ~json ~n ~m ~beta ~trace_out ~prom_out =
  let re = Obs.Rtevents.start () in
  let outcome = Multicore.Runner.run_kk ~n ~m ~beta ~rtevents:re () in
  let summary = Obs.Rtevents.stop re in
  let do_count = List.length outcome.dos in
  print ~json
    [
      row "algorithm"
        (Printf.sprintf "KK(beta=%d) on %d domains" beta m)
        (head ~algorithm:"mc-profile" ~n ~m @ [ ("beta", J.Int beta) ]);
      row "jobs performed" (Printf.sprintf "%d / %d" do_count n)
        [ ("do_count", J.Int do_count) ];
      row "wall seconds"
        (Printf.sprintf "%.4f" outcome.wall_seconds)
        [ ("wall_seconds", J.Float outcome.wall_seconds) ];
      rtevents_row summary;
    ];
  (* runtime tracks only: there is no logical-step trace here *)
  write_profile ~json ~trace_out ~prom_out
    (fun () -> Obs.Chrome_trace.to_string (Obs.Rtevents.trace_events summary))
    (Obs.Rtevents.prom summary)

(* simulator: a Gcstat probe rides the executor's event stream,
   attributing allocation to (pid, phase); --rtevents adds the
   runtime's own view on top.  The run is traced at `Full with verbose
   memory events so attribution has per-access granularity — profile
   numbers include tracing cost, which is the honest figure for an
   instrumented run. *)
let profile_sim ~json ({ n; m; f; seed; _ } as sim) ~beta ~rtevents ~trace_out
    ~prom_out ~report_out =
  let gc = Obs.Gcstat.create () in
  let re = if rtevents then Some (Obs.Rtevents.start ()) else None in
  let scheduler, adversary = sim_env sim in
  let body () =
    Core.Harness.kk ~scheduler ~adversary ~trace_level:`Full ~verbose:true
      ~provenance:(report_out <> None) ~probe:(Obs.Gcstat.probe gc) ~n ~m ~beta ()
  in
  let s =
    match re with
    | Some _ -> Obs.Rtevents.with_span "kk.run" body
    | None -> body ()
  in
  let rsummary = Option.map Obs.Rtevents.stop re in
  let run_name = Printf.sprintf "KK(beta=%d) profile" beta in
  print ~json
    ([
       row "algorithm"
         (Printf.sprintf "KK(beta=%d), simulator" beta)
         (head ~algorithm:"kk-profile" ~n ~m @ [ ("beta", J.Int beta) ]);
       row "jobs performed" (Printf.sprintf "%d / %d" s.do_count n)
         [ ("do_count", J.Int s.do_count) ];
       int_row "executor steps" "steps" s.steps;
       {
         lines = [ Format.asprintf "%a" Obs.Gcstat.pp gc ];
         fields = [ ("gcstat", Obs.Gcstat.to_json gc) ];
       };
     ]
    @ Option.to_list (Option.map rtevents_row rsummary));
  let heatmap = Obs.Heatmap.of_trace s.trace in
  write_profile ~json ~trace_out ~prom_out
    (fun () ->
      Obs.Chrome_trace.to_string
        (Obs.Chrome_trace.events ~run_name ~heatmap ~m s.trace
        @ Option.fold ~none:[] ~some:Obs.Rtevents.trace_events rsummary))
    (fun reg ->
      Obs.Gcstat.prom gc reg;
      Option.iter (fun summary -> Obs.Rtevents.prom summary reg) rsummary);
  Option.iter
    (fun path ->
      save ~json "html report" path
        (Obs.Report.make ~run_name
           ~params:
             (int_params
                [ ("n", n); ("m", m); ("beta", beta); ("seed", seed); ("crashes", f) ])
           ~ledger:(Obs.Ledger.of_trace ~n ~m s.trace)
           ~heatmap ~gcstat:gc ~trace:s.trace ()))
    report_out

let profile_cmd =
  let run ({ n; m; _ } as sim) beta_opt mc rtevents json trace_out prom_out report_out =
    let beta = Option.value beta_opt ~default:m in
    if not mc then
      profile_sim ~json sim ~beta ~rtevents ~trace_out ~prom_out ~report_out
    else if report_out <> None then begin
      Fmt.epr "amo_run profile: --report-out needs the simulator (drop --mc)@.";
      exit 2
    end
    else profile_mc ~json ~n ~m ~beta ~trace_out ~prom_out
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
    prom_out ~file:"amo_profile.prom"
      "Write a Prometheus snapshot of the profile (GC attribution + runtime \
       events) to $(docv)/amo_profile.prom."
  in
  let report_out =
    let doc =
      "Write the self-contained HTML run report, GC-attribution section \
       included, to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Profile a run: per-phase GC attribution via the executor probe seam, \
     and optionally the runtime's own event stream (GC phases, domain \
     lifecycle) via OCaml 5 Runtime_events."
  in
  cmd "profile" ~doc
    Term.(
      const run $ sim $ beta $ mc_flag $ rtevents_flag $ json_flag $ trace_out
      $ prom_out $ report_out)
