(** One-call runners: the library's high-level entry points.

    Everything here composes the lower layers — allocate shared
    memory, build the process automata, drive them to quiescence with
    {!Shm.Executor} under a chosen scheduler and crash adversary, and
    return the observables (trace, metrics, collision counts,
    effectiveness).  The examples, the test suite and the benchmark
    harness all go through these functions; so should downstream
    users who just want to run an algorithm rather than wire automata
    by hand. *)

type summary = {
  steps : int;  (** actions executed *)
  wait_free : bool;  (** executor reached quiescence within its budget *)
  dos : (int * int) list;  (** chronological (pid, job) performs *)
  do_count : int;  (** distinct jobs performed, Do(α) *)
  crashed : int list;
  metrics : Shm.Metrics.t;
  collision : Collision.t;
  trace : Shm.Trace.t;
}

val kk :
  ?policy:Policy.t ->
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?trace_level:Shm.Trace.level ->
  ?max_steps:int ->
  ?verbose:bool ->
  ?provenance:bool ->
  ?probe:Shm.Probe.t ->
  n:int ->
  m:int ->
  beta:int ->
  unit ->
  summary
(** Run standalone KKβ on [n] jobs and [m] processes.  Defaults:
    the paper's [Rank_split] policy, round-robin scheduler, no
    crashes, [`Outcomes] trace.  [provenance] turns on job-lifecycle
    events (see {!Kk} and {!Obs.Ledger}); [probe] observes every
    event. *)

val kk_worst_case :
  ?trace_level:Shm.Trace.level ->
  ?provenance:bool ->
  ?verbose:bool ->
  n:int ->
  m:int ->
  beta:int ->
  unit ->
  summary
(** Run KKβ against the constructive adversary of Theorem 4.4's
    tightness direction: processes [1..m−1] are crashed immediately
    after their first announcement (their candidate jobs stay stuck
    in everyone's TRY set) and process [m] runs alone to termination.
    For [n >= 2m−1] the theorem predicts [do_count] is {e exactly}
    [n − (β + m − 2)]. *)

val iterative :
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?policy:Policy.t ->
  ?trace_level:Shm.Trace.level ->
  ?max_steps:int ->
  n:int ->
  m:int ->
  epsilon_inv:int ->
  unit ->
  summary
(** Run IterativeKK(ε) (at-most-once variant). *)

val writeall_iterative :
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?trace_level:Shm.Trace.level ->
  ?max_steps:int ->
  n:int ->
  m:int ->
  epsilon_inv:int ->
  unit ->
  summary * bool
(** Run WA_IterativeKK(ε); the boolean is array completeness (all [n]
    cells written). *)

val trivial :
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?trace_level:Shm.Trace.level ->
  n:int ->
  m:int ->
  unit ->
  summary
(** Run the trivial split baseline. *)

val pairing :
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?trace_level:Shm.Trace.level ->
  n:int ->
  m:int ->
  unit ->
  summary
(** Run the two-process-pairing baseline. *)

val claim_scan :
  ?scheduler:Shm.Schedule.t ->
  ?adversary:Shm.Adversary.t ->
  ?trace_level:Shm.Trace.level ->
  n:int ->
  m:int ->
  unit ->
  summary
(** Run the test-and-set claim scanner (the RMW upper-bound witness;
    steps outside the paper's register-only model — see
    {!Claim_scan}). *)
