(** The execution engine.

    Drives a set of process automata to quiescence under a scheduler
    and a crash adversary, producing a linearized execution trace.
    One iteration of the engine = one transition of the paper's model:
    the adversary may inject [stop] actions, then the scheduler picks
    one live process, which performs exactly one action.

    Running to quiescence (until no process has enabled actions) makes
    every produced execution {e fair} in the paper's sense: it is
    finite and ends in a state where no locally controlled action is
    enabled (§2.1).  The [max_steps] bound exists to turn a
    wait-freedom violation (an infinite execution, impossible by
    Lemma 4.3) into a detectable test failure rather than a hang. *)

type stop_reason =
  | Quiescent  (** every process terminated or crashed *)
  | Max_steps  (** budget exhausted: would-be counterexample to wait-freedom *)

type outcome = {
  steps : int;  (** actions performed (crashes not counted) *)
  reason : stop_reason;
  trace : Trace.t;
}

val run :
  ?max_steps:int ->
  ?trace_level:Trace.level ->
  ?probe:Probe.t ->
  ?restarter:(step:int -> handles:Automaton.handle array -> int list) ->
  scheduler:Schedule.t ->
  adversary:Adversary.t ->
  Automaton.handle array ->
  outcome
(** [run ~scheduler ~adversary handles] executes to quiescence.

    [handles.(i)] must have pid [i + 1] (checked).  [max_steps]
    defaults to a generous bound derived from the number of processes;
    pass an explicit bound in wait-freedom tests.  [trace_level]
    defaults to [`Outcomes].  [probe] (default {!Probe.null}) observes
    every recorded event regardless of trace level; with the null
    probe no observation cost — not even the [phase ()] lookup — is
    paid.

    The happens-before order of a run is recovered afterwards from its
    [`Full] trace by [Obs.Span] (DESIGN.md §8): every write carries a
    write-id and every read the id of the write it returned.

    [restarter] (crash-recovery mode) is consulted once per engine
    iteration, after the adversary's crashes and before the liveness
    check — so a restart can resurrect an execution in which every
    process is crashed.  It must itself revive the processes it
    chooses (the engine has no generic way to rebuild automaton
    state; see {!Core.Kk.restart}) and return the pids it revived; a
    [Restart] event is recorded for each.

    @raise Invalid_argument on malformed handle arrays. *)

val live_pids : Automaton.handle array -> int array
(** Sorted pids of processes that still have enabled actions. *)

val live_footprints : Automaton.handle array -> (int * Footprint.t) array
(** [(pid, footprint)] of each live process's pending action, sorted
    by pid — the raw material of the model checker's independence
    relation (see {!Footprint} and {!Analysis.Explore}). *)
