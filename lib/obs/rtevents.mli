(** Runtime profiling via OCaml 5's [Runtime_events] tracing.

    Every other obs module observes the {e algorithm} — logical steps,
    ledgers, oracles.  This one observes the {e runtime} executing it:
    GC phases, per-ring (domain) lifecycle and runtime counters, read
    by self-subscribing to the runtime's own tracing ring buffers.
    Instrumented components additionally write custom AMO phase spans
    ([emit_begin]/[emit_end]) into the same stream, so algorithm
    phases and GC pauses share one wall-clock timeline.

    A consumer is [start]ed, [poll]ed while the workload runs (or just
    once at the end — ring buffers hold ~recent history, so poll
    periodically on long runs to avoid [lost] events), and [stop]ped
    to obtain an immutable {!summary} that can be rendered as Chrome
    trace tracks ({!trace_events}), Prometheus counters ({!prom}) or
    JSON ({!summary_json}).

    Collection has measurable cost (the runtime writes events to
    per-domain ring files); E18 gates the overhead below 5% on the
    multicore runner. *)

(** {1 Writer side: custom AMO phase spans}

    Cheap and always safe to call; with no started collection the
    write is a no-op inside the runtime. *)

val emit_begin : string -> unit
(** Open a span named [name] on the calling domain's ring.  The name
    is registered as a [Runtime_events] user event on first use and
    must be process-unique; use dotted names ([mc.run], [chaos.soak]). *)

val emit_end : string -> unit
(** Close the most recent open span with this name on this ring. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] with [emit_begin]/[emit_end]; the
    end is written even if [f] raises. *)

(** {1 Consumer side} *)

type t
(** A live consumer: a self-monitoring cursor plus accumulation
    state. *)

val start : unit -> t
(** Start (or resume) runtime-event collection for this process and
    open a cursor over its rings.  Multiple consumers may coexist;
    pausing happens at [stop]. *)

val poll : t -> int
(** Drain all currently-available events into the consumer.  Returns
    the number of events read on this call. *)

val pause : unit -> unit
(** Suspend event collection process-wide without detaching any
    consumer: writers (the runtime's GC hooks and [emit_begin]/
    [emit_end]) become no-ops until [resume].  No-op if collection was
    never started. *)

val resume : unit -> unit
(** Restart collection after [pause].  No-op if collection was never
    started. *)

type span = {
  ring : int;  (** domain ring id *)
  name : string;  (** runtime phase name, or a custom AMO phase *)
  start_us : int;  (** µs since the earliest event in the summary *)
  dur_us : int;
}

type mark = { ring : int; ts_us : int; name : string }
(** A lifecycle instant (ring created, domain spawn, ...). *)

type counter_sample = { ring : int; ts_us : int; name : string; value : int }

type summary = {
  spans : span list;  (** completed spans, sorted by start time *)
  marks : mark list;
  counters : counter_sample list;
  events : int;  (** total callbacks delivered *)
  lost : int;  (** events overwritten before this consumer read them *)
}

val stop : t -> summary
(** Final poll, free the cursor, pause collection, and rebase all
    timestamps to µs relative to the earliest event observed. *)

(** {1 Aggregation} *)

val by_phase : summary -> (string * int * int) list
(** Per phase name, across rings: [(name, span count, total µs)],
    sorted by name. *)

val rings : summary -> int list
(** Ring ids that produced at least one event, ascending. *)

val total_gc_us : summary -> int
(** Total µs spent in GC phases (minor, major slice, barriers). *)

(** {1 Rendering} *)

val summary_json : summary -> Json.t

val base_pid : int
(** Synthetic pid offset for runtime tracks in Chrome traces: ring [r]
    renders as process [base_pid + r], far from the logical-step
    tracks. *)

val trace_events : summary -> Json.t list
(** Chrome-trace records, each from {!Chrome_trace.of_record} or
    {!Chrome_trace.process}: metadata, [X] spans, [i] instants and [C]
    counters for the runtime tracks.  These carry wall-clock µs and
    are {e not} byte-deterministic — keep them out of golden traces. *)

val prom : summary -> Prom.t -> unit
(** Register headline totals ([amo_rt_events_total],
    [amo_rt_lost_events_total], [amo_rt_gc_time_us_total]), per-phase
    labelled counters, and the pause-length histogram. *)
