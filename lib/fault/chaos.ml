(* The chaos engine: execute fault plans, check trace oracles, shrink
   failures with ddmin, and soak over seeded random plans. *)

open Util

type run_result = {
  plan : Plan.t;
  schedule : int list;
  violations : Analysis.Oracle.violation list;
  dos : (int * int) list;
  do_count : int;
  steps : int;
  wait_free : bool;
  crashes : int list;
  restarts : int list;
  metrics_json : string;
  trace : Shm.Trace.t;
}

let oracles_for (plan : Plan.t) =
  Analysis.Oracle.suite ~n:plan.n ~m:plan.m ~beta:plan.beta

let run_plan ?(provenance = true) ?trace_level ?probe ?state_probe ?monitor
    ?(fail_fast = false) ?max_steps (plan : Plan.t) =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos.run_plan: " ^ e));
  if plan.net <> [] then
    invalid_arg "Chaos.run_plan: message-passing plan (use run_net_plan)";
  let n = plan.n and m = plan.m and beta = plan.beta in
  let rng = Prng.of_int plan.seed in
  let sched_rng = Prng.split rng in
  let metrics = Shm.Metrics.create ~m in
  let collision = Core.Collision.create ~m in
  let shared = Core.Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let mutant_skip_check = plan.algo = Plan.Kk_mutant_skip_check in
  let mutant_skip_recovery_mark =
    plan.algo = Plan.Kk_mutant_skip_recovery_mark
  in
  let kks =
    Array.init m (fun i ->
        Core.Kk.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n) ~collision ~mutant_skip_check
          ~mutant_skip_recovery_mark ~provenance ~mode:Core.Kk.Standalone ())
  in
  let handles = Array.map Core.Kk.handle kks in
  (* compose the caller's probe, the coverage probe (built late — it
     needs the handles), and the online monitor's; the caller probe
     runs first so its record of the fatal event is emitted before a
     fail-fast abort unwinds the executor *)
  let probe =
    let probes =
      List.filter_map Fun.id
        [
          probe;
          Option.map (fun f -> f handles) state_probe;
          Option.map (fun mon -> Obs.Bridge.monitor_probe ~fail_fast mon) monitor;
        ]
    in
    match probes with
    | [] -> None
    | p :: rest -> Some (List.fold_left Shm.Probe.compose p rest)
  in
  let scheduler, picks =
    Shm.Schedule.recording (Inject.scheduler ~plan ~rng:sched_rng)
  in
  let adversary = Inject.adversary ~plan ~metrics in
  let restarter =
    Inject.restarter ~plan ~restart:(fun pid -> Core.Kk.restart kks.(pid - 1))
  in
  let max_steps =
    match max_steps with Some s -> s | None -> 200_000 + (1_000 * n * m)
  in
  let outcome =
    Shm.Executor.run ~max_steps ?trace_level ?probe ?restarter ~scheduler
      ~adversary handles
  in
  let trace = outcome.Shm.Executor.trace in
  (* the verdict and Do(α) from one fold of a fresh monitor: a caller's
     [monitor] may have watched other runs *)
  let verdict = Obs.Monitor.create ~n ~m ~beta () in
  Obs.Monitor.observe_trace verdict trace;
  {
    plan;
    schedule = picks ();
    violations = Obs.Monitor.finalize verdict;
    dos = Shm.Trace.do_events trace;
    do_count = Obs.Monitor.distinct verdict;
    steps = outcome.Shm.Executor.steps;
    wait_free = outcome.Shm.Executor.reason = Shm.Executor.Quiescent;
    crashes = Shm.Trace.crashes trace;
    restarts = Shm.Trace.restarts trace;
    metrics_json = Shm.Metrics.to_json metrics;
    trace;
  }

(* A run that exhausts the step budget used to look like an ordinary
   non-wait-free result: [wait_free = false], usually zero violations,
   so a replay reported success.  [replay_plan] turns it into the same
   exception the model checker raises, carrying the recorded pick
   prefix so the wedged interleaving is reproducible. *)
let replay_plan ?provenance ?trace_level ?probe ?max_steps (plan : Plan.t) =
  let r = run_plan ?provenance ?trace_level ?probe ?max_steps plan in
  if not r.wait_free then
    raise
      (Analysis.Explore.Max_steps_exceeded
         { schedule = r.schedule; steps = r.steps });
  r

(* ---- shrinking ---- *)

let violation_names r =
  List.sort_uniq compare
    (List.map (fun v -> v.Analysis.Oracle.oracle) r.violations)

(* A candidate plan "still fails" when it trips at least one of the
   oracles the original failure tripped — shrinking must not wander to
   a different bug. *)
let reproduces ~names plan =
  match Plan.validate plan with
  | Error _ -> false
  | Ok () ->
      let r = run_plan plan in
      List.exists
        (fun v -> List.mem v.Analysis.Oracle.oracle names)
        r.violations

let shrink_failure r0 =
  let names = violation_names r0 in
  if names = [] then invalid_arg "Chaos.shrink_failure: run has no violations";
  (* 1. pin the interleaving: the recorded pick sequence replayed as a
     Fixed schedule makes the failure deterministic and shrinkable *)
  let pinned = { r0.plan with Plan.sched = Plan.Fixed r0.schedule } in
  let base = if reproduces ~names pinned then pinned else r0.plan in
  (* 2. ddmin the fault list *)
  let shm =
    Analysis.Explore.ddmin
      ~violates:(fun shm -> reproduces ~names { base with Plan.shm })
      base.Plan.shm
  in
  let base = { base with Plan.shm } in
  (* 3. ddmin the pinned schedule itself *)
  let base =
    match base.Plan.sched with
    | Plan.Fixed picks ->
        let picks =
          Analysis.Explore.ddmin
            ~violates:(fun picks ->
              reproduces ~names { base with Plan.sched = Plan.Fixed picks })
            picks
        in
        { base with Plan.sched = Plan.Fixed picks }
    | _ -> base
  in
  let minimal = { base with Plan.name = r0.plan.Plan.name ^ "-min" } in
  (minimal, run_plan minimal)

(* ---- soak ---- *)

type soak_stats = {
  runs : int;
  recovery_runs : int;
  failures : int;
  total_steps : int;
  total_dos : int;
  total_restarts : int;
  aborted : bool;
  first_failure : (Plan.t * run_result) option;
}

(* every [recovery_every]-th soaked plan is crash-recovery flavoured *)
let recovery_every = 4

let soak ?(algo = Plan.Kk) ?(fail_fast = false) ?probe ?on_run ?on_failure
    ~seed ~count ~n ~m ~beta () =
  let root = Prng.of_int seed in
  let runs = ref 0 in
  let recovery_runs = ref 0 in
  let failures = ref 0 in
  let total_steps = ref 0 in
  let total_dos = ref 0 in
  let total_restarts = ref 0 in
  let aborted = ref false in
  let first_failure = ref None in
  (try
     for i = 0 to count - 1 do
       let rng = Prng.split root in
       let recovery = i mod recovery_every = 0 in
       let plan =
         Plan.gen ~algo ~recovery ~stalls:true
           ~name:(Printf.sprintf "chaos-%03d" i)
           ~n ~m ~beta rng
       in
       let r =
         if not fail_fast then run_plan ?probe plan
         else begin
           (* a streaming monitor aborts the executor on the first
              repeat Do; the plan is deterministic, so re-running it
              without the monitor rebuilds the full (shrinkable)
              result for the violating run *)
           let monitor =
             Obs.Monitor.create ~n:plan.n ~m:plan.m ~beta:plan.beta ()
           in
           try run_plan ?probe ~monitor ~fail_fast:true plan
           with Obs.Monitor.Tripped _ ->
             aborted := true;
             run_plan ?probe plan
         end
       in
       incr runs;
       if Plan.has_recovery plan then incr recovery_runs;
       total_steps := !total_steps + r.steps;
       total_dos := !total_dos + r.do_count;
       total_restarts := !total_restarts + List.length r.restarts;
       if r.violations <> [] then begin
         incr failures;
         (* dump-on-failure seam: fires before shrinking so a flight
            recorder attached via [probe] is persisted while it still
            holds the failing run's tail (the shrink re-runs below use
            bare [run_plan] and never touch the caller's probe) *)
         (match on_failure with Some f -> f r | None -> ());
         if Option.is_none !first_failure then
           first_failure := Some (shrink_failure r)
       end;
       (match on_run with Some f -> f i r | None -> ());
       if !aborted then raise Exit
     done
   with Exit -> ());
  {
    runs = !runs;
    recovery_runs = !recovery_runs;
    failures = !failures;
    total_steps = !total_steps;
    total_dos = !total_dos;
    total_restarts = !total_restarts;
    aborted = !aborted;
    first_failure = !first_failure;
  }

(* ---- message passing ---- *)

type net_result = {
  plan : Plan.t;
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  deliveries : int;
  violations : Analysis.Oracle.violation list;
}

let run_net_plan ?(servers = 3) (plan : Plan.t) =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos.run_net_plan: " ^ e));
  if plan.shm <> [] then
    invalid_arg "Chaos.run_net_plan: shared-memory plan (use run_plan)";
  let n = plan.n and m = plan.m and beta = plan.beta in
  let rng = Prng.of_int plan.seed in
  let bodies =
    Array.init m (fun i -> Msg.Kk_mp.kk_body ~n ~m ~beta ~pid:(i + 1))
  in
  let outcome =
    Msg.Abd.run
      ~deliver:(Inject.net_deliver ~plan ())
      ~servers
      ~registers:(Msg.Kk_mp.register_count ~n ~m)
      ~rng ~client_bodies:bodies ()
  in
  (* The monitor judges the client log: a completed client terminated,
     a crashed one crashed, a stuck one neither. *)
  let mon = Obs.Monitor.create ~n ~m ~beta () in
  List.iter
    (fun (p, job) -> Obs.Monitor.observe mon (Shm.Event.Do { p; job }))
    outcome.Msg.Abd.dos;
  List.iter
    (fun p -> Obs.Monitor.observe mon (Shm.Event.Terminate { p }))
    outcome.Msg.Abd.completed;
  List.iter
    (fun p -> Obs.Monitor.observe mon (Shm.Event.Crash { p }))
    outcome.Msg.Abd.crashed_clients;
  (* At-most-once holds under every network fault, loss included.
     Liveness is only promised without message loss (every non-Drop
     window heals, so all clients must complete), and the floor needs
     Lemma 4.3's termination condition as well, as in [oracles_for]. *)
  let violations =
    if Plan.lossy plan then Obs.Monitor.at_most_once mon
    else if beta >= m then Obs.Monitor.finalize mon
    else Obs.Monitor.at_most_once mon @ Obs.Monitor.quiescence mon
  in
  {
    plan;
    dos = outcome.Msg.Abd.dos;
    completed = outcome.Msg.Abd.completed;
    stuck = outcome.Msg.Abd.stuck;
    deliveries = outcome.Msg.Abd.deliveries;
    violations;
  }
