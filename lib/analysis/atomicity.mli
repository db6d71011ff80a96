(** Atomicity of single-writer multi-reader (SWMR) register histories.

    A history is a list of register operations, each with its
    invocation and response time on one logical clock.  Every register
    is written by one process, one write at a time, and each written
    value occurs once per register, so a read names the write it
    returns.  Lamport's characterisation of an atomic SWMR register
    then reduces to three conditions on each completed read [r] that
    returns write [w]:

    - {b no future read}: [w] was not invoked after [r] responded;
    - {b no stale read}: no write that completed before [r] was
      invoked is newer than [w];
    - {b no new/old inversion}: no read that responded before [r] was
      invoked returned a write newer than [w].

    A pending operation has no response.  A pending write (its client
    crashed) may or may not take effect: reads may return it once it
    is invoked, and it never counts as completed.  A pending read
    constrains nothing.  The initial value of every register is the
    write that precedes all others.

    {!check} runs in O(ops · log ops).  It is pure: a backend records
    a history by wrapping its clients' [read]/[write] with a shared
    counter (see the ABD tests), and the checker judges it offline. *)

type kind = Read | Write

type op = {
  proc : int;
  reg : int;
  kind : kind;
  value : int;  (** the value written, or the value the read returned *)
  inv : int;  (** invocation time *)
  resp : int option;  (** response time; [None] while pending *)
}

type condition =
  | Unwritten  (** the read returned a value no write wrote *)
  | Future_read  (** ... a write invoked after the read responded *)
  | Stale_read
      (** ... a write older than one that completed before the read
          was invoked *)
  | New_old_inversion
      (** ... a write older than the one an earlier, non-overlapping
          read returned *)

type violation = {
  condition : condition;
  read : op;
  witness : op option;
      (** the write or earlier read that shows the breach; [None] for
          {!Unwritten} *)
}

val check : ?init:int -> op list -> violation list
(** All violations, grouped by register (ascending) and ordered by the
    reads' invocation times; [[]] means the history is atomic.  [init]
    (default [0]) is every register's initial value.

    @raise Invalid_argument if the history is not an SWMR history: a
    register written by two processes, overlapping writes of one
    register, a value written twice to one register or equal to
    [init], or a response before its invocation. *)

val condition_name : condition -> string

val pp_violation : Format.formatter -> violation -> unit
