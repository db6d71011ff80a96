(** Happens-before spans over recorded executions.

    Reconstructs the causal partial order of a trace from write-id
    tagging (DESIGN.md §8): each process's actions are totally
    ordered, and a read whose event carries the write-id of the write
    it returned inherits that write's causal past.  Requires a
    [`Full] trace of [~verbose:true] automata for cross-process edges
    (an [`Outcomes] trace still yields per-process order).

    Clock component values are {e recorded-action counts}, not the
    executor's step indices: an action the trace does not retain does
    not tick its process's clock. *)

type span = { step : int; event : Shm.Event.t; clock : Util.Vclock.t }

val of_trace : m:int -> Shm.Trace.t -> span list
(** One span per retained trace entry, chronological, each stamped
    with its process's vector clock at that action. *)

val happens_before : span -> span -> bool

val concurrent : span -> span -> bool

val read_from : span list -> span -> span option
(** The write span a read span returned the value of, if the read is
    wid-tagged and the write was retained. *)

val causal_chain : m:int -> Shm.Trace.t -> job:int -> span list
(** The minimal causal chain explaining [job]'s fate, chronological:
    the job's own lifecycle events ([pick]/[announce]/[do]/[forfeit]/
    [recover]), the gather reads that informed each forfeit together
    with the writes those reads returned (cross-process read-from
    edges), and crash/restart marks of processes while [job] was
    their announced candidate — the payload of [amo_run report
    --why]. *)

val render : span -> string
(** ["step N  vc=[...]  event"] — deterministic, for goldens. *)
