(** The verdict engine: the one implementation of the paper's trace
    predicates — at-most-once (Definition 2.2/Lemma 4.1), the
    recovery-aware effectiveness floor [max 0 (n - (β+m-2) - r)]
    (Theorem 4.4) and quiescence (Lemma 4.3).  Job fates are
    {!Ledger}'s.

    A monitor is fed events one at a time: live, through the
    executor's probe seam ({!Bridge.monitor_probe}), where an
    at-most-once violation is reported the moment the repeat [Do]
    streams past; or over a finished trace ({!observe_trace}).
    [Analysis.Oracle]'s trace checkers are folds of a fresh monitor,
    and [Fault.Chaos] takes every run's verdict from one, so there is
    no second copy of a predicate to agree with.

    Not domain-safe: one monitor observes one executor's event
    stream. *)

type violation = { oracle : string; detail : string }

exception Tripped of violation
(** Raised by fail-fast probes ({!Bridge.monitor_probe}) on the first
    streaming at-most-once violation. *)

type t

val create : n:int -> m:int -> beta:int -> unit -> t
(** @raise Invalid_argument unless [n >= 1] and [m >= 1]. *)

val observe : t -> Shm.Event.t -> unit
(** Feed one event.  O(1); never raises (fail-fast is the probe
    wrapper's job, not the monitor's).  Jobs outside [1..n] are
    tracked for at-most-once; pids outside [1..m] only as performers. *)

val observe_trace : t -> Shm.Trace.t -> unit
(** Feed every entry of a recorded trace, in order. *)

(** {2 Predicates}

    Each is ungated: it applies whatever [n], [m] and [β] are. *)

val at_most_once : t -> violation list
(** One violation per repeat [Do] seen so far, chronological, naming
    the job, the repeating process and the first performer. *)

val recovery_effectiveness : t -> violation list
(** Fires when fewer distinct jobs were performed than the floor
    [max 0 (n - (β+m-2) - r)], [r] the number of [Restart] events —
    each restart conservatively forfeits at most one job (the
    re-marked pre-crash announcement, see [Core.Kk] and DESIGN.md
    §7).  Vacuous when every process's last lifecycle event is a
    [Crash]: the theorems presume at most [m − 1] permanent failures,
    and a statically-valid plan can still strand a pending restart
    beyond the run's end. *)

val quiescence : t -> violation list
(** One violation per process in [1..m] whose last lifecycle event is
    neither a termination nor a crash (a restart re-opens a crashed
    process) — on an execution run to completion, a wait-freedom
    breach.  Only meaningful once the run has ended. *)

val suite : m:int -> beta:int -> (string * (t -> violation list)) list
(** The chaos suite, named predicates in verdict order: at-most-once
    always; recovery-effectiveness and quiescence only when [β >= m],
    Lemma 4.3's termination condition — below it a crash may
    legitimately wedge a job in every survivor's TRY set, so the
    execution need not quiesce. *)

val finalize : t -> violation list
(** The {!suite}'s verdicts over everything observed, concatenated. *)

val tripped : t -> violation option
(** The first at-most-once violation, if any — the fail-fast
    predicate. *)

val distinct : t -> int
(** Distinct jobs performed so far (the spec's Do(α) measure). *)

val pp_violation : Format.formatter -> violation -> unit
(** ["[oracle] detail"]. *)
