(** Connect {!Shm.Probe} (the executor's observer seam) to the
    verdict engine {!Monitor} — {!monitor_probe} is how a live run is
    judged by the same predicates a finished trace is — and render
    executor events as generic {!Sink.record}s for the offline
    journal tools. *)

val record_of_event : step:int -> Shm.Event.t -> Sink.record
(** The canonical event-to-record rendering, used by
    {!Journal.record_of_item} to show compact executor events as
    records: [ts = step], [dur = 1], names like ["do(3)"]/["crash"],
    args like [job]/[cell]/[owner]. *)

val monitor_probe : ?fail_fast:bool -> Monitor.t -> Shm.Probe.t
(** A probe feeding the executor's events into an online {!Monitor}.
    Verdict-irrelevant events (reads, writes, internals and the
    provenance annotations) are filtered out before the monitor call,
    so the hot-path cost is one branch.  With [~fail_fast:true] it
    raises {!Monitor.Tripped} out of the executor the moment a repeat
    [Do] streams past — the at-most-once oracle firing mid-run instead
    of at run end.  Default [false]: observe only, never raise. *)
