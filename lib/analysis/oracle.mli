(** Trace oracles: named, composable correctness checkers over
    executions.

    The paper's claims are predicates over {e traces}: at-most-once
    safety (Definition 2.2/Lemma 4.1), the effectiveness floor
    [n − (β + m − 2)] (Theorem 4.4) and quiescence/wait-freedom
    (Lemma 4.3).  This module packages each as a checker consuming an
    [`Outcomes]-level {!Shm.Trace.t}, so the model checker
    ({!Explore.check}), the stochastic benchmark harness (E1/E10) and
    the unit tests all assert the {e same} predicate.

    {!at_most_once}, {!recovery_effectiveness}, {!quiescence} and
    {!suite} are folds of a fresh {!Obs.Monitor} over the trace — the
    monitor is their only implementation, shared with live runs and
    [Fault.Chaos].

    An oracle never inspects algorithm state — observable behaviour
    only, exactly like {!Core.Spec} (which supplies the underlying
    measures). *)

type violation = Obs.Monitor.violation = {
  oracle : string;  (** name of the oracle that fired *)
  detail : string;  (** human-readable description of the breach *)
}

type t = {
  name : string;
  check : Shm.Trace.t -> violation list;
      (** Empty list = the trace satisfies the property. *)
}

val at_most_once : t
(** {!Obs.Monitor.at_most_once}: fires once per repeat [Do]
    (Definition 2.2), naming the job, the repeating process and the
    first performer. *)

val effectiveness : floor:int -> t
(** Fires when the number of {e distinct} jobs performed is below
    [floor] (clamped at 0).  The caller picks the theorem's bound. *)

val kk_effectiveness : n:int -> m:int -> beta:int -> t
(** {!effectiveness} at Theorem 4.4's floor [n − (β + m − 2)]. *)

val recovery_effectiveness : n:int -> m:int -> beta:int -> t
(** {!Obs.Monitor.recovery_effectiveness}, the recovery-aware floor
    [n − (β + m − 2) − r] for [r] [Restart] events; equivalent to
    {!kk_effectiveness} on restart-free traces unless every process
    ends permanently crashed, where it is vacuous. *)

val ledger_agreement : n:int -> m:int -> beta:int -> t
(** Ledger ↔ oracle reconciliation (DESIGN.md §8).  Rebuilds the
    {!Obs.Ledger} from the trace and fires unless (a) the per-job
    fates partition the universe
    ([performed + forfeited + lost + recovered + violations = n]),
    (b) no job is doubly performed, (c) the ledger's performed count
    equals {!Core.Spec.do_count}, and (d) the non-performed buckets
    fit in the recovery-aware slack [β + m − 2 + r].  Meaningful on
    traces of [~provenance:true] runs (it still checks (a)–(c)
    without provenance events, but lost/forfeited attribution needs
    announce marks). *)

val quiescence : m:int -> t
(** {!Obs.Monitor.quiescence}: fires per process in [1..m] whose last
    lifecycle event is neither a termination nor a crash.  Only
    meaningful on completed executions. *)

val suite : n:int -> m:int -> beta:int -> t list
(** {!Obs.Monitor.suite} as oracles: at-most-once always;
    recovery-effectiveness and quiescence only when [β >= m]
    (Lemma 4.3).  [check_all (suite ~n ~m ~beta)] renders exactly what
    {!Obs.Monitor.finalize} does. *)

val check_all : t list -> Shm.Trace.t -> violation list
(** All violations, in oracle order. *)

val assert_ok : t list -> Shm.Trace.t -> unit
(** @raise Failure listing every violation, if any. *)

val pp_violation : Format.formatter -> violation -> unit
