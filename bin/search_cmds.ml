(* Searching for violations: explore (exhaustive model checking),
   chaos (fault-plan soak and replay) and fuzz (coverage-guided). *)

open Cmdliner
module J = Obs.Json
open Cli

let violation_lines vs =
  text
    (List.map
       (fun v -> line "violation" (Format.asprintf "%a" Analysis.Oracle.pp_violation v))
       vs)

let violation_names vs =
  J.List (List.map (fun v -> J.String v.Analysis.Oracle.oracle) vs)

let explore_cmd =
  let run n m beta_opt branch_depth max_steps domains fingerprint differential json =
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
    let diff_ok =
      if not differential then None
      else
        (* cross-validate against one domain with the cache off: the
           canonical do-log sets must coincide exactly *)
        let set_of ~domains ~fingerprint =
          let tbl = Hashtbl.create 1024 in
          ignore
            (Analysis.Explore.explore ~domains ~fingerprint ~factory ~branch_depth
               ~max_steps
               ~on_execution:(fun e ->
                 Hashtbl.replace tbl (Analysis.Explore.canonical_do_log e.dos) ())
               ());
          List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
        in
        Some (set_of ~domains:1 ~fingerprint:false = set_of ~domains ~fingerprint)
    in
    let stats = report.stats in
    let cache_row =
      match stats.cache with
      | None -> row "fingerprints" "off" [ ("cache", J.Null) ]
      | Some c ->
          let total = c.hits + c.misses in
          row "fingerprints"
            (Printf.sprintf "%d hits / %d lookups (%.1f%%), %d evictions" c.hits total
               (if total = 0 then 0.
                else 100. *. float_of_int c.hits /. float_of_int total)
               c.evictions)
            [
              ( "cache",
                J.Obj
                  [
                    ("hits", J.Int c.hits);
                    ("misses", J.Int c.misses);
                    ("evictions", J.Int c.evictions);
                    ("capacity", J.Int c.capacity);
                  ] );
            ]
    in
    let counterexample =
      match report.shrunk with
      | None -> []
      | Some (sched, vs) ->
          [
            text
              [
                line "counterexample"
                  (Printf.sprintf "%d-step schedule %s" (List.length sched) (pids sched));
              ];
            violation_lines vs;
          ]
    in
    print ~json
      ([
         row "instance"
           (Printf.sprintf "KK n=%d m=%d beta=%d" n m beta)
           [ ("n", J.Int n); ("m", J.Int m); ("beta", J.Int beta) ];
         row "domains"
           (Printf.sprintf "%d (%d work items, %d steals)" domains stats.work_items
              stats.steals)
           [ ("domains", J.Int domains); ("fingerprint", J.Bool fingerprint) ];
         row "executions"
           (Printf.sprintf "%d%s" stats.executions
              (if stats.fully_exhaustive then " (complete)" else " (budget-truncated)"))
           [
             ("executions", J.Int stats.executions);
             ("fully_exhaustive", J.Bool stats.fully_exhaustive);
             ("work_items", J.Int stats.work_items);
             ("steals", J.Int stats.steals);
           ];
         cache_row;
         fields [ ("violations", J.Int report.violating) ];
         {
           lines =
             (match diff_ok with
             | Some true -> [ line "differential" "OK (canonical sets identical)" ]
             | Some false -> [ line "differential" "MISMATCH" ]
             | None -> []);
           fields =
             [ ("differential_ok", match diff_ok with Some b -> J.Bool b | None -> J.Null) ];
         };
         text [ line "oracles" (verdict report.violating) ];
         row "wall clock" (Printf.sprintf "%.2fs" elapsed) [ ("seconds", J.Float elapsed) ];
       ]
      @ counterexample);
    if diff_ok = Some false then exit 4;
    if report.violating > 0 then exit 1
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
  cmd "explore" ~doc
    Term.(
      const run $ jobs_with 3 $ procs_with 2 $ beta $ branch_depth_arg
      $ max_steps_arg $ domains_arg $ fingerprint_flag $ differential_flag
      $ json_flag)

(* ---- chaos ---- *)

(* A soak's running telemetry, fed one finished plan at a time. *)
type tally = {
  mutable runs_done : int;
  mutable dos_total : int;
  mutable steps_total : int;
  mutable crashes_total : int;
  mutable restarts_total : int;
  mutable failures : int;
  fates : int array;  (** cumulative counts, in [fate_labels] order *)
  steps_sketch : Obs.Sketch.t;
}

(* Job fates (Obs.Ledger semantics): dashboard label, Prometheus label *)
let fate_labels =
  [
    ("performed", "performed");
    ("forfeited", "forfeited");
    ("lost to crash", "lost_crash");
    ("recovered", "recovered");
    ("doubly performed", "doubly_performed");
  ]

let doubly_performed t = t.fates.(4)

let tally_run t (r : Fault.Chaos.run_result) =
  t.runs_done <- t.runs_done + 1;
  t.dos_total <- t.dos_total + r.do_count;
  t.steps_total <- t.steps_total + r.steps;
  t.crashes_total <- t.crashes_total + List.length r.crashes;
  t.restarts_total <- t.restarts_total + List.length r.restarts;
  if r.violations <> [] then t.failures <- t.failures + 1;
  Obs.Sketch.add t.steps_sketch r.steps;
  let c = Obs.Ledger.counts (Obs.Ledger.of_trace ~n:r.plan.n ~m:r.plan.m r.trace) in
  List.iteri
    (fun i v -> t.fates.(i) <- t.fates.(i) + v)
    [ c.performed; c.forfeited; c.lost; c.recovered; c.violations ]

(* One dashboard frame of the soak. *)
let chaos_frame ~n ~m ~beta ~count t ~aborted elapsed =
  let open Obs.Dashboard in
  let throughput = per_second t.dos_total elapsed in
  let fate_row label v =
    kvf label "%d (%.1f%%)" v
      (if t.runs_done = 0 then 0.
       else 100. *. float_of_int v /. float_of_int (t.runs_done * n))
  in
  let status =
    if aborted then "ABORTED (fail-fast: at-most-once tripped)"
    else if t.failures > 0 then Printf.sprintf "%d FAILURES" t.failures
    else "OK"
  in
  render
    ~title:(Printf.sprintf "amo_run chaos  n=%d m=%d beta=%d" n m beta)
    ~status
    [
      section ~title:"progress"
        [
          gauge ~label:"plans"
            ~frac:(float_of_int t.runs_done /. float_of_int (max 1 count))
            (Printf.sprintf "%d / %d" t.runs_done count);
          kvf "throughput" "%.0f jobs/s (%d jobs, %.1fs)" throughput t.dos_total elapsed;
          kvf "steps" "%d total" t.steps_total;
        ];
      section ~title:"job fates (cumulative)"
        (List.mapi (fun i (label, _) -> fate_row label t.fates.(i)) fate_labels);
      section ~title:"injected faults"
        [ kvf "crashes" "%d" t.crashes_total; kvf "restarts" "%d" t.restarts_total ];
      section ~title:"latency (steps per plan)"
        [ percentiles ~label:"sketch" t.steps_sketch ];
      section ~title:"monitor"
        [
          kv "at-most-once" (if doubly_performed t > 0 then "VIOLATED" else "OK");
          kvf "oracle failures" "%d" t.failures;
        ];
    ]

(* The soak's Prometheus snapshot, <dir>/amo_chaos.prom. *)
let chaos_metrics ~n ~m ~beta ~seed t ~aborted reg =
  let labels = int_params [ ("n", n); ("m", m); ("beta", beta); ("seed", seed) ] in
  prom_counters reg ~labels
    [
      ("amo_soak_runs_total", "Chaos plans executed", t.runs_done);
      ( "amo_soak_jobs_performed_total",
        "Distinct jobs performed across plans",
        t.dos_total );
      ("amo_soak_steps_total", "Executor steps across plans", t.steps_total);
      ("amo_soak_crashes_total", "Injected crashes observed", t.crashes_total);
      ("amo_soak_restarts_total", "Injected restarts observed", t.restarts_total);
      ( "amo_soak_oracle_failures_total",
        "Plans with at least one oracle violation",
        t.failures );
    ];
  Obs.Prom.gauge reg ~name:"amo_soak_aborted" ~labels
    ~help:"1 if a fail-fast monitor aborted the soak"
    (if aborted then 1. else 0.);
  List.iteri
    (fun i (_, fate) ->
      Obs.Prom.counter reg ~name:"amo_soak_job_fate_total"
        ~help:"Cumulative per-job fates (Obs.Ledger semantics)"
        ~labels:(labels @ [ ("fate", fate) ])
        (float_of_int t.fates.(i)))
    fate_labels;
  Obs.Prom.of_sketch reg ~name:"amo_soak_plan_steps" ~labels
    ~help:"Executor steps per chaos plan (quantile sketch)" t.steps_sketch

let save_plan path (plan : Fault.Plan.t) =
  write_file path (Fault.Plan.to_string plan ^ "\n")

(* A replayed plan's result: the plan and platform, [middle], the
   oracle verdict, [after] and one line per violation *)
let replay_rows (plan : Fault.Plan.t) ~platform violations middle after =
  [
    row "plan" (Format.asprintf "%a" Fault.Plan.pp plan) [ ("plan", Fault.Plan.to_json plan) ];
    text [ line "platform" platform ];
  ]
  @ middle
  @ [ row "oracles" (verdict (List.length violations)) [ ("violations", violation_names violations) ] ]
  @ after
  @ [ violation_lines violations ]

(* --plan FILE: replay one plan, exit 1 on a violation *)
let chaos_replay ~json ~flight ~max_steps ~seed path =
  let extra = [ ("cmd", J.String "chaos-replay"); ("seed", J.Int seed) ] in
  match Fault.Plan.load path with
  | Error e ->
      Fmt.epr "amo_run: %s: %s@." path e;
      exit 2
  | Ok plan when plan.net <> [] ->
      let r = Fault.Chaos.run_net_plan plan in
      print ~json
        (replay_rows plan ~platform:"message passing (ABD registers)" r.violations
           [
             int_row "jobs performed" "do_count" (List.length r.dos);
             row "stuck clients" (pids r.stuck) [ ("stuck", ints r.stuck) ];
             int_row "deliveries" "deliveries" r.deliveries;
           ]
           []);
      if r.violations <> [] then exit 1
  | Ok plan ->
      let r =
        (* budget exhaustion must not masquerade as a passing
           replay: surface the wedged prefix and exit non-zero *)
        try Fault.Chaos.replay_plan ?probe:(flight_probe flight) ?max_steps plan
        with Analysis.Explore.Max_steps_exceeded { schedule; steps } ->
          if json then
            print ~json
              [
                fields
                  [
                    ("error", J.String "max-steps-exceeded");
                    ("plan", Fault.Plan.to_json plan);
                    ("steps", J.Int steps);
                    ("schedule_prefix", ints schedule);
                  ];
              ]
          else begin
            Fmt.epr
              "amo_run: %s: step budget exhausted after %d steps (schedule \
               prefix of %d picks recorded)@."
              path steps (List.length schedule);
            Fmt.epr
              "amo_run: the plan does not quiesce under this budget — a \
               would-be wait-freedom counterexample@."
          end;
          (* the journal holds the wedged run's tail — keep it *)
          flight_dump ~json ~trigger:"max-steps" ~extra flight;
          exit 3
      in
      (* the ledger's one-line causal explanation of the violated
         job — what the raw oracle verdict lacks *)
      let explanation =
        if r.violations = [] then None
        else
          Obs.Ledger.explain_violation
            (Obs.Ledger.of_trace ~n:plan.n ~m:plan.m r.trace)
      in
      print ~json
        (replay_rows plan ~platform:"shared memory" r.violations
           [
             row "jobs performed"
               (Printf.sprintf "%d / %d" r.do_count plan.n)
               [ ("do_count", J.Int r.do_count) ];
             row "steps" (string_of_int r.steps)
               [ ("steps", J.Int r.steps); ("wait_free", J.Bool r.wait_free) ];
             row "crashed procs" (pids r.crashes) [ ("crashes", ints r.crashes) ];
             row "restarted procs" (pids r.restarts) [ ("restarts", ints r.restarts) ];
           ]
           [
             {
               lines = Option.to_list (Option.map (line "explanation") explanation);
               fields =
                 [
                   ( "explanation",
                     match explanation with Some l -> J.String l | None -> J.Null );
                 ];
             };
           ]);
      flight_dump ~json
        ~trigger:(if r.violations <> [] then "violation" else "on-demand")
        ~extra flight;
      if r.violations <> [] then exit 1

(* no --plan: seeded random plans, the first failure shrunk and saved;
   optional live dashboard and periodic Prometheus snapshots *)
let chaos_soak ~json ~flight ~count ~n ~m ~beta ~seed ~out_dir ~live ~fail_fast =
  let extra = [ ("cmd", J.String "chaos-soak"); ("seed", J.Int seed) ] in
  let t =
    {
      runs_done = 0;
      dos_total = 0;
      steps_total = 0;
      crashes_total = 0;
      restarts_total = 0;
      failures = 0;
      fates = Array.make (List.length fate_labels) 0;
      steps_sketch = Obs.Sketch.create ();
    }
  in
  let telemetry =
    live
      ~frame:(fun aborted -> chaos_frame ~n ~m ~beta ~count t ~aborted)
      ~metrics:(fun aborted -> chaos_metrics ~n ~m ~beta ~seed t ~aborted)
  in
  let s =
    Fault.Chaos.soak ~fail_fast ?probe:(flight_probe flight)
      ~on_failure:(fun _ -> flight_dump ~json ~trigger:"violation" ~extra flight)
      ~on_run:(fun _ r ->
        tally_run t r;
        telemetry ~final:false false)
      ~seed ~count ~n ~m ~beta ()
  in
  telemetry ~final:true s.aborted;
  let saved =
    Option.map
      (fun ((mp : Fault.Plan.t), _) ->
        let path = Filename.concat out_dir ("CHAOS_" ^ mp.name ^ ".json") in
        save_plan path mp;
        path)
      s.first_failure
  in
  print ~json
    [
      row "chaos soak"
        (Printf.sprintf "%d plans (n=%d m=%d beta=%d seed=%d)" s.runs n m beta seed)
        [ ("plans", J.Int s.runs) ];
      row "recovery plans"
        (Printf.sprintf "%d (%d restarts)" s.recovery_runs s.total_restarts)
        [ ("recovery_plans", J.Int s.recovery_runs) ];
      row "oracle failures" (string_of_int s.failures)
        [ ("failures", J.Int s.failures); ("restarts", J.Int s.total_restarts) ];
      {
        lines =
          (if s.aborted then
             [
               line "fail-fast"
                 "soak ABORTED mid-run by the streaming at-most-once monitor";
             ]
           else []);
        fields = [ ("aborted", J.Bool s.aborted) ];
      };
      {
        lines =
          Option.to_list
            (Option.map (fun p -> line "counterexample" (p ^ " (shrunk, replayable)")) saved);
        fields =
          [ ("counterexample", match saved with Some p -> J.String p | None -> J.Null) ];
      };
    ];
  flight_dump ~json ~trigger:"on-demand" ~extra flight;
  if s.failures > 0 then exit 1

let chaos_cmd =
  let run plan_file count n m beta_opt seed out_dir max_steps live fail_fast flight
      json =
    match plan_file with
    | Some path -> chaos_replay ~json ~flight ~max_steps ~seed path
    | None ->
        let beta = Option.value beta_opt ~default:m in
        chaos_soak ~json ~flight ~count ~n ~m ~beta ~seed ~out_dir ~live ~fail_fast
  in
  let plan_file =
    plan_file
      "Replay a fault plan from $(docv) (as produced by the chaos shrinker) \
       instead of soaking; exit 1 if any oracle fires."
  in
  let soak_count =
    let doc = "Number of random plans to soak when no --plan is given." in
    Arg.(value & opt int 200 & info [ "soak" ] ~docv:"COUNT" ~doc)
  in
  let live =
    live_flags
      ~dashboard_doc:
        "Live TTY dashboard while soaking: throughput, cumulative job-fate \
         ledger, injected-fault counts, steps-per-plan percentiles and \
         monitor status, repainted at a fixed refresh rate."
      ~prom_file:"amo_chaos.prom"
      "Flush Prometheus text-exposition snapshots of the soak's telemetry to \
       $(docv)/amo_chaos.prom periodically (atomic replace; textfile-collector \
       compatible)."
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
  cmd "chaos" ~doc
    Term.(
      const run $ plan_file $ soak_count $ jobs $ procs $ beta $ seed
      $ out_dir "Directory for shrunk counterexample plans found while soaking."
      $ max_steps
          "Step budget for a --plan replay (default 200000 + 1000*n*m); \
           exhausting it exits 3 with the recorded schedule prefix."
      $ live $ fail_fast_flag $ flight_out $ json_flag)

(* ---- fuzz ---- *)

(* One dashboard frame of the fuzzer's running stats. *)
let fuzz_frame ~n ~m ~beta ~budget ~blind (st : Analysis.Fuzz.stats) elapsed =
  let open Obs.Dashboard in
  let execs_per_s = per_second st.execs elapsed in
  let status =
    if st.violations > 0 then Printf.sprintf "%d VIOLATIONS" st.violations else "OK"
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
            ~frac:(float_of_int st.execs /. float_of_int (max 1 budget))
            (Printf.sprintf "%d / %d" st.execs budget);
          kvf "throughput" "%.0f execs/s (%.1fs)" execs_per_s elapsed;
        ];
      section ~title:"coverage"
        [
          kvf "distinct states" "%d (%d lookups)" st.distinct_states st.lookups;
          gauge ~label:"hit rate" ~frac:(Analysis.Fuzz.hit_rate st)
            (Printf.sprintf "%.1f%%" (100. *. Analysis.Fuzz.hit_rate st));
          spark ~label:"novelty" (downsample ~width:44 (List.map snd st.novelty));
        ];
      section ~title:"corpus"
        [ kvf "size" "%d (%d kept this run)" st.corpus st.kept ];
      section ~title:"oracles"
        [
          kv "verdict"
            (if st.violations = 0 then "OK"
             else Printf.sprintf "%d violations" st.violations);
          kv "first violation"
            (match st.first_violation_exec with
            | Some e -> Printf.sprintf "exec %d" e
            | None -> "-");
        ];
    ]

(* The fuzzer's Prometheus snapshot, <dir>/amo_fuzz.prom. *)
let fuzz_metrics ~n ~m ~beta ~seed (st : Analysis.Fuzz.stats) reg =
  let labels = int_params [ ("n", n); ("m", m); ("beta", beta); ("seed", seed) ] in
  prom_counters reg ~labels
    [
      ("amo_fuzz_execs_total", "Plan executions performed", st.execs);
      ("amo_fuzz_kept_total", "Inputs kept for reaching a novel state", st.kept);
      ( "amo_fuzz_distinct_states_total",
        "Novel coverage fingerprints recorded",
        st.distinct_states );
      ("amo_fuzz_state_lookups_total", "Coverage fingerprint observations", st.lookups);
      ("amo_fuzz_violations_total", "Executions with an oracle violation", st.violations);
    ];
  Obs.Prom.gauge reg ~name:"amo_fuzz_corpus_size" ~labels
    ~help:"Current corpus size (seeds + keepers)" (float_of_int st.corpus);
  Obs.Prom.gauge reg ~name:"amo_fuzz_coverage_hit_rate" ~labels
    ~help:"Fraction of state observations already covered" (Analysis.Fuzz.hit_rate st)

(* corpus: every *.json plan in the dir seeds the run; a file that does
   not parse or validate is a hard usage error (exit 2) — a corrupted
   corpus must not silently shrink the seed set *)
let load_corpus dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         match Result.bind (Fault.Plan.load path) (fun plan ->
                   Result.map (fun () -> plan) (Fault.Plan.validate plan))
         with
         | Ok plan -> plan
         | Error e ->
             Fmt.epr "amo_run: bad corpus entry %s: %s@." path e;
             exit 2)

let fuzz_cmd =
  let run budget corpus_dir n m beta_opt seed algo blind minimize out_dir max_steps
      max_seconds table_bits stop_on_violation live flight json =
    let beta = Option.value beta_opt ~default:m in
    let extra = [ ("cmd", J.String "fuzz"); ("seed", J.Int seed) ] in
    let default_seeds () = Fault.Fuzz.default_seeds ~algo ~seed ~n ~m ~beta () in
    let seeds =
      match corpus_dir with
      | Some dir when Sys.file_exists dir && not (Sys.is_directory dir) ->
          Fmt.epr "amo_run: --corpus %s is not a directory@." dir;
          exit 2
      | Some dir when Sys.file_exists dir -> (
          match load_corpus dir with [] -> default_seeds () | plans -> plans)
      | Some dir ->
          Util.Files.ensure_dir dir;
          default_seeds ()
      | None -> default_seeds ()
    in
    (* persistence: every keeper is written back content-addressed, so
       reloading a corpus never duplicates entries *)
    let on_keep =
      Option.map
        (fun dir (plan : Fault.Plan.t) ->
          let body = Fault.Plan.to_string plan in
          let path =
            Filename.concat dir (Printf.sprintf "fuzz-%08x.json" (Hashtbl.hash body))
          in
          if not (Sys.file_exists path) then write_file path (body ^ "\n"))
        corpus_dir
    in
    let t_start = Unix.gettimeofday () in
    let telemetry =
      live
        ~frame:(fuzz_frame ~n ~m ~beta ~budget ~blind)
        ~metrics:(fuzz_metrics ~n ~m ~beta ~seed)
    in
    let harness =
      let probe = flight_probe flight in
      if blind then Fault.Fuzz.blind_harness ?probe ?max_steps ()
      else Fault.Fuzz.harness ?probe ?max_steps ()
    in
    (* retain the journal the moment the first violating execution is
       seen — the recorder still holds that execution's tail *)
    let on_exec (st : Analysis.Fuzz.stats) =
      if st.violations > 0 then flight_dump ~json ~trigger:"violation" ~extra flight;
      telemetry ~final:false st
    in
    let outcome =
      Analysis.Fuzz.run ?table_bits ~stop_on_violation ?max_seconds ?on_keep ~on_exec
        ~seed ~budget ~harness ~seeds ()
    in
    let st = outcome.stats in
    telemetry ~final:true st;
    let elapsed = Unix.gettimeofday () -. t_start in
    let execs_per_sec = per_second st.execs elapsed in
    (* one replayable FUZZ_*.json per distinct failure; --minimize
       ddmin-shrinks each through the chaos shrinker first *)
    let rec distinct seen = function
      | [] -> []
      | p :: rest ->
          let key = Fault.Plan.to_string p in
          if List.mem key seen then distinct seen rest
          else p :: distinct (key :: seen) rest
    in
    let saved =
      distinct [] outcome.failures
      |> List.mapi (fun i (p : Fault.Plan.t) ->
             let p =
               match if minimize then Fault.Fuzz.minimize p else None with
               | Some (minimal, _) -> minimal
               | None -> p
             in
             let path =
               Filename.concat out_dir (Printf.sprintf "FUZZ_%02d_%s.json" i p.name)
             in
             save_plan path p;
             path)
    in
    print ~json
      [
        fields [ ("budget", J.Int budget) ];
        row "fuzz"
          (Printf.sprintf "%d execs in %.1fs (%.0f/s)%s" st.execs elapsed execs_per_sec
             (if blind then "  [blind]" else ""))
          [ ("execs", J.Int st.execs); ("execs_per_sec", J.Float execs_per_sec) ];
        text
          [
            line "instance"
              (Printf.sprintf "n=%d m=%d beta=%d algo=%s seed=%d" n m beta
                 (Fault.Plan.algo_to_string algo) seed);
          ];
        row "corpus"
          (Printf.sprintf "%d plans (%d seeds, %d kept)" st.corpus (List.length seeds)
             st.kept)
          [
            ("seeds", J.Int (List.length seeds));
            ("kept", J.Int st.kept);
            ("corpus", J.Int st.corpus);
          ];
        row "coverage"
          (Printf.sprintf "%d distinct states, %d lookups (%.1f%% hit)"
             st.distinct_states st.lookups
             (100. *. Analysis.Fuzz.hit_rate st))
          [
            ("distinct_states", J.Int st.distinct_states);
            ("lookups", J.Int st.lookups);
            ("hit_rate", J.Float (Analysis.Fuzz.hit_rate st));
          ];
        row "violations"
          (match st.first_violation_exec with
          | Some e -> Printf.sprintf "%d (first at exec %d)" st.violations e
          | None -> "0")
          [
            ("violations", J.Int st.violations);
            ( "first_violation_exec",
              match st.first_violation_exec with Some e -> J.Int e | None -> J.Null );
          ];
        fields [ ("blind", J.Bool blind) ];
        {
          lines =
            List.map
              (fun p -> line "counterexample" (p ^ " (replay: amo_run chaos --plan)"))
              saved;
          fields = [ ("counterexamples", J.List (List.map (fun p -> J.String p) saved)) ];
        };
      ];
    flight_dump ~json
      ~trigger:(if st.violations > 0 then "violation" else "on-demand")
      ~extra flight;
    if st.violations > 0 then exit 1
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
               ("kk", Fault.Plan.Kk);
               ("skip-check", Fault.Plan.Kk_mutant_skip_check);
               ("skip-recovery-mark", Fault.Plan.Kk_mutant_skip_recovery_mark);
             ])
          Fault.Plan.Kk
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
  let max_seconds_opt =
    let doc =
      "Wall-clock time box: stop drawing new inputs after $(docv) seconds \
       (the nightly-CI knob; the budget still caps total work)."
    in
    Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECS" ~doc)
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
  let live =
    live_flags
      ~dashboard_doc:
        "Live TTY dashboard: budget progress, execs/sec, coverage hit rate, \
         the novelty curve as a sparkline, corpus size and oracle status."
      ~prom_file:"amo_fuzz.prom"
      "Flush Prometheus text-exposition snapshots of the fuzzing stats to \
       $(docv)/amo_fuzz.prom periodically (atomic replace)."
  in
  let doc =
    "Coverage-guided fuzzing over schedules and fault plans: mutate a \
     persistent corpus, keep inputs that reach novel behavioral states \
     (Mazurkiewicz-equivalent rediscoveries are discarded), ddmin-shrink \
     any oracle violation into a replayable FUZZ_*.json plan."
  in
  cmd "fuzz" ~doc
    Term.(
      const run $ budget $ corpus_dir $ jobs $ procs $ beta $ seed $ algo_arg
      $ blind_flag $ minimize_flag
      $ out_dir "Directory for FUZZ_*.json counterexample plans."
      $ max_steps "Per-execution step budget (default 200000 + 1000*n*m)."
      $ max_seconds_opt $ table_bits_opt $ stop_on_violation_flag $ live
      $ flight_out $ json_flag)
