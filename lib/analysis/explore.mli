(** Bounded-exhaustive model checking of process interleavings, with
    partial-order reduction, deterministic replay, and counterexample
    shrinking.

    The theorems quantify over {e all} executions; stochastic testing
    samples them, this module enumerates them.  Two strategies share
    one engine:

    - {!Brute_force} visits every interleaving — the oracle the
      reduced strategy is cross-validated against;
    - {!Por} prunes interleavings that only differ by commuting
      {e independent} actions (actions of different processes whose
      {!Shm.Footprint}s do not race on a register), using sleep sets
      plus a persistent-set rule: a process whose pending action is
      purely local ({!Shm.Footprint.Internal}) commutes with every
      future action of every other process, so it is explored {e
      alone} at that state.  At least one representative of every
      Mazurkiewicz trace class is still visited, so any property that
      is invariant under commuting independent actions — at-most-once
      safety, effectiveness, quiescence: all functions of the
      per-process [Do] subsequences — holds on all executions iff it
      holds on the explored ones.

    Automata are mutable, so the engine re-executes prefixes on fresh
    instances built by the caller's [factory].  The first child of
    each state is explored by stepping in place; only siblings pay a
    replay, so total cost is O(Σ execution lengths).

    Budgets: [branch_depth] bounds the number of {e branching
    decisions} (states where more than one candidate is explored)
    along any path — beyond it the execution is completed
    deterministically (round-robin) and [fully_exhaustive] is
    reported [false].  Straight-line suffixes are free, so a fully
    covered space means every branching point was expanded.
    [max_steps] turns non-termination into {!Max_steps_exceeded}.

    {b Domains.}  With [domains = 1] (the default) the whole tree is
    walked on the caller's domain and every execution reaches
    [on_execution] as soon as it is found.  With [domains > 1] the
    tree is first split into a frontier of 32 × [domains] subtrees in
    DFS preorder; worker domains drain it from per-domain
    {!Multicore.Wsdeque}s, stealing when their own runs dry, buffer
    each subtree's executions, and the caller's domain merges the
    buffers in frontier order.  The [on_execution] stream — and a
    {!Max_steps_exceeded}, re-raised at its one-domain position — is
    therefore byte-identical for every domain count.

    {b State cache.}  With [fingerprint] set, every node entry consults
    a shared {!Fingerprint.table} and prunes states already entered.
    Pruning preserves the {e set} of canonical do-logs and every oracle
    verdict (oracles are functions of canonical do-logs), but not
    execution {e counts}.  The cache silently disables itself on
    instances containing opaque automata
    ({!Shm.Automaton.handle}[.fingerprint] = [None]). *)

exception
  Max_steps_exceeded of {
    schedule : int list;  (** the offending schedule prefix, chronological *)
    steps : int;  (** steps performed when the budget was hit *)
  }
(** Raised when a single execution exceeds [max_steps] — a would-be
    counterexample to wait-freedom (Lemma 4.3).  The schedule prefix
    can be fed back to {!replay} to reproduce it. *)

type stats = {
  executions : int;  (** complete executions visited *)
  fully_exhaustive : bool;
      (** true iff no path hit the branching budget — the enumeration
          covered the whole execution space (up to commutation under
          {!Por}). *)
  domains : int;
  work_items : int;
      (** subtrees explored as separate work items; 1 on one domain *)
  steals : int;  (** items taken from another domain's deque *)
  cache : Fingerprint.stats option;  (** [Some] iff [fingerprint] was set *)
}

type execution = {
  schedule : int list;  (** chronological pids, one per step performed *)
  dos : (int * int) list;  (** the do-event log, [(pid, job)] *)
  trace : Shm.Trace.t;  (** the full [`Outcomes] trace *)
}

type strategy =
  | Brute_force  (** enumerate every interleaving *)
  | Por  (** sleep-set + persistent-set partial-order reduction *)

val explore :
  ?strategy:strategy ->
  ?domains:int ->
  ?fingerprint:bool ->
  factory:(unit -> Shm.Automaton.handle array) ->
  branch_depth:int ->
  max_steps:int ->
  on_execution:(execution -> unit) ->
  unit ->
  stats
(** Enumerate executions (default strategy {!Por}) on [domains]
    (default 1) domains, calling [on_execution] on each, always on the
    caller's domain.  [fingerprint] (default [false]) enables the state
    cache.  Progress is reported at debug log level.  @raise Invalid_argument if [domains < 1].
    @raise Max_steps_exceeded. *)

val replay :
  factory:(unit -> Shm.Automaton.handle array) ->
  ?max_steps:int ->
  ?complete:bool ->
  int list ->
  execution
(** [replay ~factory schedule] deterministically re-executes a
    recorded schedule on a fresh instance: each listed pid performs
    one step; entries naming a dead process are skipped (so shrunk
    schedules stay replayable).  With [complete] (default [true]) the
    run is then finished round-robin to quiescence, making the result
    a complete execution.  The returned [schedule] field is the {e
    effective} schedule — pids actually stepped, including the
    completion — and replaying it reproduces the execution exactly.
    [max_steps] defaults to 100_000.  @raise Max_steps_exceeded. *)

val canonical_do_log : (int * int) list -> (int * int list) list
(** The do-event log up to commutation of independent actions: jobs
    grouped per pid in program order, sorted by pid.  Two
    interleavings equivalent under commutation have equal canonical
    logs, so {!Brute_force} and {!Por} visit the same {e set} of
    canonical logs on a fully covered space. *)

val ddmin :
  violates:('a list -> bool) -> 'a list -> 'a list
(** Generic greedy delta-debugging minimization: starting from a list
    for which [violates] holds, repeatedly deletes contiguous chunks
    (halving down to single elements) as long as the property keeps
    holding, until no single element can be removed.  The result is a
    locally (1-)minimal violating sublist.  [violates input] must be
    [true]; otherwise the input is returned unchanged.  {!shrink} is
    this applied to schedules; the fault layer applies it to fault
    plans ({!Fault.Chaos}). *)

val shrink :
  factory:(unit -> Shm.Automaton.handle array) ->
  ?max_steps:int ->
  ?complete:bool ->
  violates:(execution -> bool) ->
  int list ->
  (int list * execution) option
(** [shrink ~factory ~violates schedule] greedily minimizes a
    violating schedule: starting from the effective schedule of
    [replay schedule], repeatedly deletes contiguous chunks (halving
    down to single steps) whose removal preserves [violates] on
    replay, until no single step can be removed — a locally minimal
    counterexample.  Returns [None] if [schedule] does not violate in
    the first place.  [complete] is passed through to every replay:
    leave it [true] for whole-execution properties (effectiveness,
    quiescence), set it [false] to minimize a bad {e prefix} of a
    safety property.  @raise Max_steps_exceeded. *)

type finding = {
  execution : execution;
  violations : Oracle.violation list;  (** why it was flagged *)
}

type report = {
  stats : stats;
  findings : finding list;
      (** violating executions, distinct by {!canonical_do_log},
          first-encountered order (at most 64 retained) *)
  violating : int;  (** total violating executions encountered *)
  shrunk : (int list * Oracle.violation list) option;
      (** the first finding's schedule, shrunk while it keeps firing
          at least one of the same oracles, with the violations of
          the shrunk replay *)
}

val check :
  ?strategy:strategy ->
  ?minimize:bool ->
  ?domains:int ->
  ?fingerprint:bool ->
  factory:(unit -> Shm.Automaton.handle array) ->
  branch_depth:int ->
  max_steps:int ->
  oracles:Oracle.t list ->
  unit ->
  report
(** Explore (default {!Por}) and judge every execution against the
    [oracles]; when a violation is found and [minimize] (default
    [true]), the first counterexample is shrunk before reporting.
    [domains] and [fingerprint] are threaded to {!explore}.  @raise Max_steps_exceeded. *)
