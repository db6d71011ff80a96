(** Register contention heatmaps.

    Aggregates a run's shared-memory traffic per named register: read
    and write counts, number of distinct accessing processes, and a
    {e contention} count — accesses that hit a register last touched
    by a {e different} process (ownership bounces, the shared-memory
    model's analogue of cache-line ping-pong).  Time series are kept
    in power-of-two step buckets ({!Sketch.band_start}), so a cell's
    history costs O(log steps) space regardless of run length.

    Feed it post-hoc from a [`Full] trace ({!of_trace}) or event by
    event ({!observe}).  The aggregate renders as Chrome counter
    tracks (see {!Chrome_trace.events}) and as the heatmap section of
    the HTML run report ({!Report}). *)

type t

type cell = {
  name : string;
  reads : int;
  writes : int;
  accessors : int;  (** distinct pids that touched this register *)
  contention : int;  (** accesses whose previous accessor differed *)
  buckets : (int * int * int) list;
      (** [(first_step, reads, writes)] per power-of-two step
          bucket, ascending; [first_step] is the bucket's
          {!Sketch.band_start}. *)
}

val create : unit -> t

val observe : t -> step:int -> Shm.Event.t -> unit
(** Count a [Read]/[Write] event; all other events are ignored. *)

val of_trace : Shm.Trace.t -> t
(** Aggregate every retained read/write of a trace (i.e. record the
    run at [`Full] with [~verbose:true] automata). *)

val cells : t -> cell list
(** All registers, sorted by name (deterministic for goldens). *)

val total_accesses : t -> int
