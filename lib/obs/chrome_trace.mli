(** Chrome [trace_event] JSON: the one encoder of every trace the
    program writes.

    The produced file loads in [chrome://tracing] and Perfetto.  Each
    simulated process is its own Chrome {e process} (pid = simulator
    pid) with explicit [process_name]/[process_sort_index]/
    [thread_name] metadata so the UI labels tracks "p1", "p2", ...;
    pid 0 carries the run name and (optionally) register-contention
    counter tracks from a {!Heatmap}.  Reads/writes/[compNext]-style
    internal actions and [Do]s render as 1-step spans; crashes,
    terminations and provenance marks ([pick]/[announce]/[forfeit]/
    [recover]) as instant markers.

    {b Time units}: [ts] and [dur] are the executor's {e logical step
    indices}, emitted as integer microseconds (1 step = 1 µs) because
    the format mandates µs — there is no wall-clock anywhere in a
    simulated run.  The emitted [displayTimeUnit: "ms"] hint only
    sets the viewer's initial zoom granularity.

    Only events the trace retained are exported — record the run at
    [`Full] (and, for KK automata, [~verbose:true] so memory accesses
    emit events) to get per-access spans; an [`Outcomes] trace still
    shows [Do]/crash/terminate/provenance marks.

    Output is deterministic (stable ordering, one event per line), so
    traces of deterministic schedules are byte-stable — suitable as
    golden files. *)

val of_record : ?cat:string -> Sink.record -> Json.t
(** The [trace_event] object of one record: a {!Sink.Span} is a
    complete event ([ph "X"], [dur]), an {!Sink.Instant} or
    {!Sink.Log} a thread-scoped instant ([ph "i"]), a {!Sink.Counter}
    a per-process counter sample ([ph "C"], no [tid]).  [tid] is the
    record's [pid]; [args] appear only when non-empty. *)

val process : ?thread:string -> pid:int -> string -> Json.t list
(** The metadata ([ph "M"]) that names process [pid] and sorts it by
    [pid]; with [thread], also names its one thread. *)

val events :
  ?run_name:string -> ?heatmap:Heatmap.t -> m:int -> Shm.Trace.t -> Json.t list
(** Metadata records (process/thread names for [m] processes) followed
    by one record per trace entry in trace order — executor events
    rendered by [Bridge.record_of_event], except that a read or write
    span is named by its bare cell — then one [ph "C"] counter sample
    per occupied heatmap time-bucket per register (if [heatmap] is
    given). *)

val to_string : Json.t list -> string
(** A complete [{"traceEvents": [...]}] document, one event per line.
    Append other records (e.g. {!Rtevents.trace_events}, which carry
    wall-clock µs) to {!events} to merge them into one document; the
    result is then no longer byte-deterministic. *)

val write_file :
  ?run_name:string ->
  ?heatmap:Heatmap.t ->
  ?extra:Json.t list ->
  m:int ->
  path:string ->
  Shm.Trace.t ->
  unit
(** [to_string (events ... @ extra)], written to [path] with
    [Util.Files.write]. *)
