(** Asynchronous message-passing network simulator.

    The paper's conclusion poses at-most-once for "systems with
    different means of communication, such as message-passing
    systems" as future work; this module is the substrate for our
    answer (see {!Abd} and {!Kk_mp}).

    The model: [nodes] processes communicate by asynchronous,
    reliable, unordered point-to-point messages.  The adversary
    controls delivery: at each step the driver picks {e any} pending
    message to deliver next (here: uniformly with a seeded PRNG, or
    oldest-first), so arbitrary interleavings and unbounded relative
    delays are explored.  A crashed node silently drops everything
    delivered to it and sends nothing — messages it sent before
    crashing may still arrive (asynchrony).

    Handlers run synchronously at delivery and may send further
    messages; the simulator is single-threaded and deterministic
    given the seed. *)

type 'a t

val create : nodes:int -> unit -> 'a t
(** Nodes are [1..nodes]; all start alive with no handler (messages
    to a handler-less node raise at delivery — a wiring bug). *)

val nodes : 'a t -> int

val set_handler : 'a t -> node:int -> (src:int -> 'a -> unit) -> unit

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Enqueue a message.  Sends from a crashed node are dropped;
    @raise Invalid_argument on bad node ids. *)

val crash : 'a t -> int -> unit
(** Stop a node: no further handler invocations, sends dropped.
    Idempotent. *)

val alive : 'a t -> int -> bool

val pending : 'a t -> int
(** Messages sent but not yet delivered (to any node, dead or not). *)

val deliver_random : 'a t -> Util.Prng.t -> bool
(** Deliver one uniformly-chosen pending message (running the
    destination's handler unless it crashed).  [false] when nothing
    is pending. *)

val deliver_oldest : 'a t -> bool
(** FIFO-ish delivery, for deterministic tests. *)

val drop_random : 'a t -> Util.Prng.t -> bool
(** Permanently lose one uniformly-chosen pending message (channel
    omission fault).  [false] when nothing is pending.  Quorum-based
    protocols above survive bounded loss; unbounded loss may
    legitimately prevent termination — see {!Fault.Plan}. *)

val deliver_random_where :
  'a t -> Util.Prng.t -> (src:int -> dst:int -> bool) -> bool
(** Deliver one message chosen uniformly among the pending messages
    satisfying the predicate — the primitive for partitions (only
    same-side pairs eligible) and per-node delay (messages to a slow
    node withheld).  Ineligible messages stay queued.  [false] when no
    pending message is eligible (even if some are pending). *)

val duplicate_random : 'a t -> Util.Prng.t -> bool
(** Re-enqueue a copy of a random pending message (the channel
    misbehaves and will eventually deliver it twice).  [false] when
    nothing is pending.  Protocols above must tolerate duplicates —
    {!Abd} counts distinct responders, not raw replies. *)

val delivered_count : 'a t -> int
(** Total deliveries so far (the message-complexity measure; drops to
    dead nodes count as deliveries). *)

val sent_count : 'a t -> int
(** Total successful sends so far. *)
