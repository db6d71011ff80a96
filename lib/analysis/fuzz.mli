(** Coverage-guided fuzzing engine.

    The middle tier between the exhaustive explorer ({!Explore} —
    sound, but confined to tiny instances) and blind
    Monte-Carlo sampling ({!Montecarlo}, [Fault.Chaos.soak] — scales,
    but wastes budget re-exercising equivalent interleavings): a
    feedback loop that keeps an input only when executing it reached a
    {!Fingerprint.cover} state not yet in a bounded seen table, and
    draws future mutants from those keepers.  Mazurkiewicz-equivalent
    rediscoveries hash equal and are discarded, so the budget
    concentrates on {e novel} behavior.

    The engine is generic in the input type: {!Fault.Fuzz}
    instantiates it over fault plans (schedule and fault-list mutation
    operators, chaos-engine execution); the tests instantiate it over
    toy inputs.  Coverage pruning here affects {e search order only},
    never verdicts — every executed input is still judged by its own
    oracles, and a violation is reported whether or not the input was
    novel (DESIGN.md §11). *)

type 'a exec = {
  states : int list;
      (** coverage fingerprints the execution reached, in order,
          duplicates allowed (the engine dedups against its table) *)
  violating : bool;  (** at least one oracle fired on this run *)
  pinned : 'a;
      (** the deterministic, replayable form of the input actually
          executed (e.g. the plan with its recorded schedule pinned);
          this is what enters the corpus and the failure list *)
}

type 'a harness = {
  mutate : Util.Prng.t -> 'a -> 'a;  (** must yield an executable input *)
  execute : 'a -> 'a exec;
}

type stats = {
  execs : int;  (** executions performed (seed runs included) *)
  kept : int;  (** mutants that reached a novel state and were kept *)
  corpus : int;  (** final corpus size, seeds included *)
  distinct_states : int;  (** seen-table misses — novel states found *)
  lookups : int;  (** total state observations fed to the table *)
  violations : int;  (** executions with [violating = true] *)
  first_violation_exec : int option;
      (** 1-based index of the first violating execution *)
  novelty : (int * int) list;
      (** sampled (execution index, cumulative distinct states) —
          the novelty curve, chronological *)
}

val hit_rate : stats -> float
(** Fraction of state observations already covered, in [0..1] —
    high late-run hit rate means coverage has saturated. *)

type 'a outcome = {
  stats : stats;
  final_corpus : 'a list;
      (** seeds first, then keepers in discovery order *)
  failures : 'a list;  (** violating (pinned) inputs, discovery order *)
}

val run :
  ?table_bits:int ->
  ?stop_on_violation:bool ->
  ?max_seconds:float ->
  ?on_keep:('a -> unit) ->
  ?on_exec:(stats -> unit) ->
  seed:int ->
  budget:int ->
  harness:'a harness ->
  seeds:'a list ->
  unit ->
  'a outcome
(** [run ~seed ~budget ~harness ~seeds ()] executes every seed input
    once (they are always kept, novel or not — the caller chose
    them), then spends the rest of the [budget] executions on
    mutants: pick a corpus parent (biased towards recent keepers),
    [harness.mutate] it, [harness.execute] the child, feed its states
    to the shared table, and keep the child's pinned form iff at
    least one state was new.

    Fully deterministic in [seed] (the clock is consulted only when
    [max_seconds] is given, and then only to stop early).

    [table_bits] sizes the bounded seen table
    ({!Fingerprint.create}; default {!Fingerprint.default_bits}).
    [stop_on_violation] (default [false]) ends the loop at the first
    violating execution.  [max_seconds] time-boxes the loop (checked
    between executions — CI nightly jobs).  [on_keep] fires for every
    corpus addition, seeds included — the persistence hook.
    [on_exec] fires after every execution with the running stats —
    the dashboard / Prometheus hook.

    @raise Invalid_argument on an empty seed list or [budget < 0]. *)
