open Shm

type summary = {
  steps : int;
  wait_free : bool;
  dos : (int * int) list;
  do_count : int;
  crashed : int list;
  metrics : Metrics.t;
  collision : Collision.t;
  trace : Trace.t;
}

let summarize ~metrics ~collision (outcome : Executor.outcome) =
  let dos = Trace.do_events outcome.trace in
  {
    steps = outcome.steps;
    wait_free = (outcome.reason = Executor.Quiescent);
    dos;
    do_count = Spec.do_count dos;
    crashed = Trace.crashes outcome.trace;
    metrics;
    collision;
    trace = outcome.trace;
  }

let kk_processes ~metrics ~collision ~policy ~verbose ~provenance ~n ~m ~beta =
  let shared = Kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  Array.init m (fun i ->
      let t =
        Kk.create ~shared ~pid:(i + 1) ~beta ~policy ~free:(Job.universe ~n)
          ~collision ~verbose ~provenance ~mode:Kk.Standalone ()
      in
      Kk.handle t)

let kk ?(policy = Policy.Rank_split) ?scheduler
    ?(adversary = Adversary.none) ?(trace_level = `Outcomes) ?max_steps
    ?(verbose = false) ?(provenance = false) ?probe ~n ~m ~beta () =
  let scheduler =
    match scheduler with Some s -> s | None -> Schedule.round_robin ()
  in
  let metrics = Metrics.create ~m in
  let collision = Collision.create ~m in
  let handles =
    kk_processes ~metrics ~collision ~policy ~verbose ~provenance ~n ~m ~beta
  in
  let outcome =
    Executor.run ?max_steps ~trace_level ?probe ~scheduler ~adversary handles
  in
  summarize ~metrics ~collision outcome

let kk_worst_case ?(trace_level = `Outcomes) ?(provenance = false)
    ?(verbose = false) ~n ~m ~beta () =
  let victims = List.init (m - 1) (fun i -> i + 1) in
  kk ~scheduler:(Schedule.round_robin ())
    ~adversary:(Adversary.after_announce ~victims ~announce_phase:"gather_try")
    ~trace_level ~provenance ~verbose ~n ~m ~beta ()

let run_plan ?scheduler ?(adversary = Adversary.none)
    ?(trace_level = `Outcomes) ?max_steps ?(policy = Policy.Rank_split) ~n ~m
    ~epsilon_inv ~mode () =
  let scheduler =
    match scheduler with Some s -> s | None -> Schedule.round_robin ()
  in
  let metrics = Metrics.create ~m in
  let collision = Collision.create ~m in
  let plan = Iterative.create ~metrics ~n ~m ~epsilon_inv ~mode in
  let handles = Iterative.processes ~collision ~policy plan in
  let outcome =
    Executor.run ?max_steps ~trace_level ~scheduler ~adversary handles
  in
  (summarize ~metrics ~collision outcome, plan)

let iterative ?scheduler ?adversary ?policy ?trace_level ?max_steps ~n ~m
    ~epsilon_inv () =
  fst
    (run_plan ?scheduler ?adversary ?trace_level ?max_steps ?policy ~n ~m
       ~epsilon_inv ~mode:`Amo ())

let writeall_iterative ?scheduler ?adversary ?trace_level ?max_steps ~n ~m
    ~epsilon_inv () =
  let summary, plan =
    run_plan ?scheduler ?adversary ?trace_level ?max_steps ~n ~m ~epsilon_inv
      ~mode:`Wa ()
  in
  (summary, Iterative.wa_complete plan)

let run_baseline ?scheduler ?(adversary = Adversary.none)
    ?(trace_level = `Outcomes) ~m handles =
  let scheduler =
    match scheduler with Some s -> s | None -> Schedule.round_robin ()
  in
  let outcome = Executor.run ~trace_level ~scheduler ~adversary handles in
  summarize ~metrics:(Metrics.create ~m) ~collision:(Collision.create ~m)
    outcome

let trivial ?scheduler ?adversary ?trace_level ~n ~m () =
  run_baseline ?scheduler ?adversary ?trace_level ~m (Trivial.processes ~n ~m)

let claim_scan ?scheduler ?adversary ?trace_level ~n ~m () =
  let metrics = Metrics.create ~m in
  let handles = Claim_scan.processes ~metrics ~n ~m () in
  let scheduler =
    match scheduler with Some s -> s | None -> Schedule.round_robin ()
  in
  let adversary = Option.value adversary ~default:Adversary.none in
  let outcome =
    Executor.run ~trace_level:(Option.value trace_level ~default:`Outcomes)
      ~scheduler ~adversary handles
  in
  summarize ~metrics ~collision:(Collision.create ~m) outcome

let pairing ?scheduler ?adversary ?trace_level ~n ~m () =
  let metrics = Metrics.create ~m in
  let handles = Pairing.processes ~metrics ~n ~m in
  let scheduler =
    match scheduler with Some s -> s | None -> Schedule.round_robin ()
  in
  let adversary = Option.value adversary ~default:Adversary.none in
  let outcome =
    Executor.run ~trace_level:(Option.value trace_level ~default:`Outcomes)
      ~scheduler ~adversary handles
  in
  summarize ~metrics ~collision:(Collision.create ~m) outcome
