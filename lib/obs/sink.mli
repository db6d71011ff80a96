(** Generic structured records — spans, instants, counters, log
    lines — and a bounded in-memory sink for them.

    A {!record} is the journal's generic payload ({!Journal.Record},
    e.g. the per-domain [mc.do] instants of [Multicore.Runner]) and
    the shape every decoded journal item is rendered into for
    [amo_run trace].  The sink itself is either {!null}, which drops
    everything (emitters test {!is_null} before building argument
    lists), or {!memory}, a bounded buffer for a tracer's spans and
    for tests.  Executor events travel as [Shm.Event] through
    [Shm.Probe], not through this module. *)

type kind = Span | Instant | Counter | Log

val kind_to_string : kind -> string

type record = {
  ts : int;  (** logical time, e.g. executor step *)
  dur : int;  (** span length in steps; [0] for points *)
  pid : int;  (** owning process, [0] = whole run *)
  kind : kind;
  name : string;
  args : (string * Json.t) list;
}

val record :
  ?dur:int ->
  ?pid:int ->
  ?args:(string * Json.t) list ->
  ts:int ->
  kind:kind ->
  string ->
  record
(** Convenience constructor; [dur], [pid] default [0], [args] empty. *)

val record_to_json : record -> Json.t

type t

val null : t

val memory : ?capacity:int -> unit -> t
(** Ring buffer keeping the most recent [capacity] (default 65536)
    records.  @raise Invalid_argument on non-positive capacity. *)

val emit : t -> record -> unit

val is_null : t -> bool
(** True for {!null}: lets hot paths skip building records. *)

val records : t -> record list
(** Retained records, oldest first.  Empty for {!null}. *)
