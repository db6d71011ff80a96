(** KKβ on real parallel hardware.

    Runs the same algorithm as {!Core.Kk}, with the same {!Core.Policy}
    candidate rule and the same {!Core.Freeset} sets, but with each process
    on its own OCaml 5 domain and every shared cell an atomic register.
    The loop itself is {!Core.Kk_direct}, the one direct-style
    transcription of Fig. 2 (and Fig. 3) that [Msg.Kk_mp] also runs
    on ABD-emulated registers; this module only maps its register
    accessors onto {!Atomic_mem} and spawns the domains.  The
    scheduler is now the actual machine, so this cannot explore
    worst-case interleavings (that is the simulator's job); what it
    demonstrates is that the algorithm's safety does not depend on any
    simulator artifact: at-most-once must hold on every real run too
    (experiment E9, and a property test in the suite).

    Crashes are modeled by a per-process job budget: a "crashing"
    process simply stops taking steps after performing a bounded
    number of jobs — indistinguishable, to the other processes, from
    a crash at that point. *)

type outcome = {
  dos : (int * int) list;
      (** all (pid, job) performs, concatenated per process (order
          within a process is program order) *)
  per_process : int array;  (** jobs performed by each pid; index 0 unused *)
  wall_seconds : float;
  metrics : Shm.Metrics.t;
      (** merged per-domain ledgers: each domain counts its own
          reads/writes/internals and mirrors the simulator's work
          charges (rank cost per [compNext], tree-op units per gather
          hit and done-set update), so multicore work totals are
          directly comparable with {!Core.Kk} runs and with Theorem
          5.6's bound *)
}

val run_kk :
  n:int ->
  m:int ->
  beta:int ->
  ?policy:(pid:int -> Core.Policy.t) ->
  ?job_budget:(pid:int -> int) ->
  ?journals:Obs.Flight.t array ->
  ?rtevents:Obs.Rtevents.t ->
  unit ->
  outcome
(** [run_kk ~n ~m ~beta ()] spawns [m] domains and runs KKβ to
    termination.  [policy] picks each process's candidate rule
    (default: the paper's [Rank_split]); [job_budget] caps the jobs a
    process performs before it silently stops (default: unlimited),
    emulating crashes.

    [journals] (optional, length [m]) are lock-free, durable
    per-domain journals: domain [i] appends one binary-encoded [mc.do]
    instant per performed job only to the flight recorder
    [journals.(i)] (single-writer, no mutex); [ts] is a fetch-and-add
    global emission index, [pid] the performing domain.  Dump them
    with {!Obs.Journal.dump} and stitch the per-domain streams back
    into one deterministic total order with {!Obs.Journal.merge} or
    [amo_run trace merge] — the fetch-and-add [ts] breaks every tie.

    [rtevents] (optional) is an active {!Obs.Rtevents} consumer: the
    run brackets itself in an [mc.run] span and each domain in an
    [mc.domain] span on the runtime-events timeline, and polls the
    consumer once after join.  Without it the runtime-profiling path
    costs nothing (E18 gates the instrumented overhead below 5%).

    @raise Invalid_argument unless [1 <= m <= n], [beta >= 1], and
    [journals] (when given) has length [m]. *)

val run_iterative : n:int -> m:int -> epsilon_inv:int -> unit -> outcome
(** The full IterativeKK(ε) (at-most-once variant, §6) on real
    domains: per-level atomic [next]/[done]/flag, the IterStepKK
    termination protocol (set flag → re-gather → output FREE \ TRY),
    and per-process [map] between levels — {!Core.Kk_direct.iterative}
    with β = 3m².  [dos] reports individual jobs (super-jobs
    expanded), so the same {!Core.Spec} checker applies.
    @raise Invalid_argument unless [1 <= m <= n] and
    [epsilon_inv >= 1]. *)
