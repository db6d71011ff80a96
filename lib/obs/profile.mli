(** Per-process, per-series work/read/write distributions.

    Theorem 5.6 bounds {e total} work, but adversarial schedules skew
    how that work lands on individual processes — a single total hides
    a starved or thrashing process.  A profile is a keyed family of
    {!Histogram}s: [(pid, series)] where a series is a named quantity
    ("work", "reads", "writes", or any phase label an instrumented
    component chooses).  The bench
    experiments (E4/E5) aggregate one sample per process per run and
    report tail percentiles instead of single totals. *)

type t

val create : unit -> t

val add : t -> pid:int -> series:string -> int -> unit
(** Record one sample for [(pid, series)]. *)

val get : t -> pid:int -> series:string -> Histogram.t option

val series : t -> string list
(** All series names, sorted. *)

val pids : t -> int list
(** All pids observed, sorted. *)

val merged : t -> series:string -> Histogram.t
(** Pointwise merge of one series across all pids (empty histogram if
    the series is unknown). *)

val of_metrics : Shm.Metrics.t -> t
(** One sample per process per counter kind, drawn from a finished
    ledger: series ["work"], ["reads"], ["writes"], ["internals"] —
    the across-process distribution of one run. *)

val to_json : t -> Json.t
(** [{series: {merged: hist, per_pid: {"1": hist, ...}}, ...}]. *)

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

val summarize : Histogram.t -> summary
val summary : t -> series:string -> summary
(** Summary of the across-pid merge of a series. *)
