(** The chaos engine: run plans, check oracles, shrink failures.

    Everything here is deterministic in the plan: {!run_plan} derives
    all randomness (scheduler, adversary, network) from [plan.seed],
    so the same plan value always produces the identical execution —
    the property the replay tests and the shrinker rely on. *)

type run_result = {
  plan : Plan.t;
  schedule : int list;
      (** the recorded scheduler pick sequence; replaying it as
          [Plan.Fixed] reproduces the interleaving exactly *)
  violations : Analysis.Oracle.violation list;  (** empty = run passed *)
  dos : (int * int) list;  (** chronological (pid, job) performs *)
  do_count : int;  (** distinct jobs performed *)
  steps : int;
  wait_free : bool;  (** executor reached quiescence within budget *)
  crashes : int list;
  restarts : int list;
  metrics_json : string;  (** work-complexity counters, serialized *)
  trace : Shm.Trace.t;
}

val oracles_for : Plan.t -> Analysis.Oracle.t list
(** [Analysis.Oracle.suite] at the plan's [n], [m] and [beta]:
    at-most-once always; recovery-aware effectiveness (floor
    [n - (beta + m - 2) - r] for [r] restarts) and quiescence only
    when [beta >= m], Lemma 4.3's termination condition — below it a
    crash may legitimately wedge a job in every survivor's TRY set,
    so the execution need not quiesce.  {!run_plan}'s [violations]
    are this suite's verdicts, taken from one {!Obs.Monitor} fold. *)

val run_plan :
  ?provenance:bool ->
  ?trace_level:Shm.Trace.level ->
  ?probe:Shm.Probe.t ->
  ?state_probe:(Shm.Automaton.handle array -> Shm.Probe.t) ->
  ?monitor:Obs.Monitor.t ->
  ?fail_fast:bool ->
  ?max_steps:int ->
  Plan.t ->
  run_result
(** Execute a shared-memory plan to quiescence and check the oracles.

    [provenance] (default [true]) makes the automata emit job-lifecycle
    annotations (pick/announce/forfeit/recover), so [result.trace]
    feeds {!Obs.Ledger} directly and [amo_run chaos --replay] can
    explain violations causally.  Annotations ride along existing
    steps — schedules, step counts and metrics are unchanged.
    [trace_level] and [probe] pass through to {!Shm.Executor.run}.
    [state_probe] is a late-bound probe factory: it is applied to the
    automaton handle array once the processes exist, letting callers
    observe machine state per event — the coverage-guided fuzzer
    ({!Fuzz}) builds its {!Analysis.Fingerprint.cover} feed this way.
    It composes between [probe] and the monitor.
    [monitor] attaches an online {!Obs.Monitor} fed every executor
    event (composed after [probe], so probe records are emitted before
    any abort); with [fail_fast] (default [false]) the run raises
    {!Obs.Monitor.Tripped} the moment a repeat [Do] streams past
    instead of reporting the violation at run end.
    [max_steps] overrides the default budget of
    [200_000 + 1_000 * n * m]; on exhaustion the result has
    [wait_free = false] (no exception — see {!replay_plan}).
    @raise Obs.Monitor.Tripped under [fail_fast] on a streaming
    at-most-once violation.
    @raise Invalid_argument on an invalid or message-passing plan. *)

val replay_plan :
  ?provenance:bool ->
  ?trace_level:Shm.Trace.level ->
  ?probe:Shm.Probe.t ->
  ?max_steps:int ->
  Plan.t ->
  run_result
(** {!run_plan} for replay contexts, where budget exhaustion must not
    pass silently: if the executor stops on its step budget instead of
    reaching quiescence, raises {!Analysis.Explore.Max_steps_exceeded}
    carrying the recorded scheduler pick prefix (replayable as
    [Plan.Fixed]) and the step count.  [amo_run chaos --plan] uses
    this to exit non-zero with the prefix in its JSON error payload.
    @raise Analysis.Explore.Max_steps_exceeded on budget exhaustion.
    @raise Invalid_argument on an invalid or message-passing plan. *)

val shrink_failure : run_result -> Plan.t * run_result
(** ddmin a failing run to a minimal deterministic plan tripping (at
    least one of) the same oracles: the recorded schedule is pinned as
    [Plan.Fixed], then the fault list and the pick sequence are each
    delta-minimized with {!Analysis.Explore.ddmin}.  Returns the
    minimal plan (renamed [<name>-min]) and its run.
    @raise Invalid_argument if the run has no violations. *)

type soak_stats = {
  runs : int;
  recovery_runs : int;  (** plans that actually contained a restart *)
  failures : int;  (** runs with at least one violation *)
  total_steps : int;
  total_dos : int;
  total_restarts : int;
  aborted : bool;
      (** a fail-fast monitor tripped mid-run and stopped the soak *)
  first_failure : (Plan.t * run_result) option;
      (** first failing run, already shrunk *)
}

val soak :
  ?algo:Plan.algo ->
  ?fail_fast:bool ->
  ?probe:Shm.Probe.t ->
  ?on_run:(int -> run_result -> unit) ->
  ?on_failure:(run_result -> unit) ->
  seed:int ->
  count:int ->
  n:int ->
  m:int ->
  beta:int ->
  unit ->
  soak_stats
(** Run [count] seeded random plans with stalls (every 4th one
    crash-recovery flavoured); the first failure is shrunk.  Fully
    deterministic in [seed].

    [fail_fast] (default [false]) attaches a streaming
    {!Obs.Monitor} to every run: the soak stops at the first
    at-most-once violation the moment the repeat [Do] happens — the
    violating plan is deterministically re-run (and shrunk) to build
    its full [run_result], and the stats carry [aborted = true].
    [on_run] is invoked after each completed run with its index and
    result — the live-dashboard / Prometheus-flush hook; statistics
    visible to it are already updated.

    [probe] is attached to every soaked run (composed before any
    fail-fast monitor, so it observes the events leading up to an
    abort) — the seam an always-on {!Obs.Journal.probe} flight
    recorder plugs into.  [on_failure] fires on each run with
    violations, before that failure is shrunk and before any later
    run can overwrite a bounded recorder's retained tail — the
    dump-on-failure trigger ([amo_run chaos --flight-out] persists
    the flight dump from it).  Shrinking re-runs plans without
    [probe], so the recorder's contents stay those of the original
    failing run. *)

type net_result = {
  plan : Plan.t;
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  deliveries : int;
  violations : Analysis.Oracle.violation list;
}

val run_net_plan : ?servers:int -> Plan.t -> net_result
(** Execute a message-passing plan: KKβ clients over ABD-emulated
    registers with the plan's fault windows driving delivery.  The
    do-log and the completed/crashed clients are fed to an
    {!Obs.Monitor}, so the verdicts share its wording.  At-most-once
    is checked unconditionally; quiescence (every client ends completed
    or crashed) and the effectiveness floor apply only to
    loss-free plans (a [Drop] window may legitimately strand a client
    — the emulation has no retransmission), and the floor only when
    [beta >= m].
    @raise Invalid_argument on an invalid or shared-memory plan. *)
