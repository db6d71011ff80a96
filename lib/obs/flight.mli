(** Segmented flight recorder: the always-on black box.

    A bounded ring of fixed-size byte segments holding encoded records
    (the {!Journal} codec produces them; this module never interprets
    bytes).  Writes append to an open segment; when a record would
    overflow it, the segment is sealed and a fresh one opened.  When
    the ring exceeds its bound the oldest sealed segment is dropped —
    drop-oldest retention, the mirror image of {!Ring}'s drop-newest:
    a ring keeps the head of a stream for a live drain, the flight
    recorder keeps the {e tail} so that whatever was happening just
    before a crash or violation survives.  Both make loss visible
    through counters rather than silent.

    Memory is bounded by [segment_bytes * max_segments] plus one
    oversized record.  Segment bytes live off the OCaml heap, in
    buffers allocated on first use and reused in place, so the ring
    neither allocates when a segment is sealed nor counts as live heap
    in the major GC's pacing.  All operations are single-domain: give
    each domain its own flight, as {!Multicore.Runner} does. *)

type t

val create : ?segment_bytes:int -> ?max_segments:int -> unit -> t
(** [segment_bytes] (default 65536) is the soft size of one segment: a
    segment is sealed by the first record that would push it past the
    bound, so segments hold whole records and a record larger than
    [segment_bytes] occupies a segment of its own.  [max_segments]
    (default 8) bounds the retained segments, open one included.
    @raise Invalid_argument if either is [< 1]. *)

val push : t -> string -> unit
(** Append one encoded record. *)

(** {2 In-place framing}

    The hot write path encodes a record straight into the open
    segment: it writes from [open_len t] in [open_buf t], calls
    [make_room] whenever it needs more bytes than the buffer holds, and
    ends with [commit].  The result is the same as a {!push} of the
    record's bytes. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val open_buf : t -> buf
(** The open segment's buffer (changes when it grows or is sealed). *)

val open_len : t -> int
(** Bytes held by the open segment: where the next record starts. *)

val make_room : t -> start:int -> upto:int -> need:int -> int
(** [make_room t ~start ~upto ~need]: the record under construction
    starts at [start] and its bytes up to [upto] are written; make
    [open_buf t] hold [need] bytes.  If the record can no longer fit the
    non-empty open segment, the segment is sealed and the written bytes
    move to the front of the next one.  Returns the record's start
    (then [0]). *)

val commit : t -> start:int -> len:int -> unit
(** The [len] bytes from [start] (as last returned by {!open_len} or
    {!make_room}) in [open_buf t] are one record: append it, sealing
    first (and moving the bytes) when it would overflow a non-empty
    segment. *)

(** {2 Counters} — loss is visible, never silent. *)

val total_records : t -> int
(** Records ever pushed, including dropped ones. *)

val total_bytes : t -> int
(** Bytes ever pushed, including dropped ones. *)

val dropped_segments : t -> int
val dropped_records : t -> int
(** Segments (and the records inside them) evicted by retention. *)

val retained_records : t -> int
val segment_count : t -> int
(** Currently retained segments, open one included (so at least 1). *)

type segment = {
  bytes : string;  (** raw encoded records, no file header *)
  records : int;
  first_seq : int;  (** 0-based sequence number of the first record *)
}

val segments : t -> segment list
(** Snapshot of the retained segments, oldest first; the open segment
    comes last (and is included even when empty, so the list mirrors
    {!segment_count}). *)

val clear : t -> unit
(** Drop all retained data and reset every counter. *)
