(** Connect {!Shm.Probe} (the executor's observer seam) to obs
    consumers: sinks, sketches, profiles, and the verdict engine
    {!Monitor} — {!monitor_probe} is how a live run is judged by the
    same predicates a finished trace is. *)

val record_of_event : step:int -> ?phase:string -> Shm.Event.t -> Sink.record
(** The canonical event-to-record rendering used by {!sink_probe} (and
    by {!Journal} when decoding compact executor events back into
    records): [ts = step], [dur = 1], names like ["do(3)"]/["crash"],
    args like [job]/[cell]/[owner].  [phase], when given, is prepended
    as the first arg. *)

val sink_probe : Sink.t -> Shm.Probe.t
(** A probe that emits one structured record per executor event into
    the sink: 1-step spans for reads/writes/internal actions and
    [Do]s, instants for crashes/terminations, each tagged with the
    acting process's phase.  [sink_probe Sink.null = Probe.null], so
    an unconfigured sink keeps the executor's fast path. *)

val monitor_probe : ?fail_fast:bool -> Monitor.t -> Shm.Probe.t
(** A probe feeding the executor's events into an online {!Monitor}.
    Verdict-irrelevant events (reads, writes, internals, picks) are
    filtered out before the monitor call, so the hot-path cost is one
    branch.  With [~fail_fast:true] it raises
    {!Monitor.Tripped} out of the executor the moment a repeat [Do]
    streams past — the at-most-once oracle firing mid-run instead of
    at run end.  Default [false]: observe only, never raise. *)

val sketch_probe : Sketch.t -> Shm.Probe.t
(** A probe sampling the step distance between each process's
    consecutive [Do] events into a quantile sketch — live per-job
    latency percentiles in logical time. *)

val profile_probe : Profile.t -> Shm.Probe.t
(** A probe that buckets shared accesses by [(pid, kind@phase)] —
    e.g. series ["read@gather_try"] — yielding per-phase access
    distributions. *)

val emit_metrics : Sink.t -> ?ts:int -> Shm.Metrics.t -> unit
(** Emit one [Counter] record per process with its final ledger
    (reads/writes/internals/work).  No-op on a null sink. *)
