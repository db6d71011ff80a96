(** ABD atomic-register emulation over message passing.

    The classic Attiya–Bar-Noy–Dolev construction: a single-writer
    multi-reader atomic register is emulated by [s] replica servers;
    a write stamps the value with the writer's monotone timestamp and
    waits for a majority of acks; a read queries a majority and adopts
    the highest-timestamped value.  If the replies of that majority
    (one per distinct server) all carry the same tag, the read returns
    at once: the value is already stored at a majority, which is
    exactly what ABD's write-back phase would establish, so every
    later read's quorum meets a server holding that tag or a newer
    one.  Otherwise the read {e writes the value back} to a majority
    (the phase that makes disagreeing reads linearizable) and then
    returns it.  KKβ mostly reads registers nobody is writing, so most
    reads take one round trip.  {!Analysis.Atomicity} checks recorded
    histories of both paths in the tests.  The emulation is wait-free
    for the clients as long as a majority of servers stays alive —
    client crashes never block anyone.

    This is the bridge for the paper's closing open question
    (at-most-once "in systems with different means of communication,
    such as message-passing systems"): KKβ needs nothing but atomic
    SWMR registers — [next\[p\]] and the [done] rows are written only
    by their owner — so running the unchanged algorithm on emulated
    registers transfers its guarantees to the message-passing model
    with up to m−1 client crashes and a minority of server crashes
    (see {!Kk_mp} and bench E12).

    Client code is written in direct style against [read]/[write]
    callbacks; suspension at each register operation is implemented
    with OCaml effect handlers, and the network adversary chooses
    every message-delivery order. *)

type message
(** The protocol's wire messages — abstract; exposed only so custom
    [deliver] drivers can be typed against [message Net.t]. *)

type outcome = {
  dos : (int * int) list;
      (** chronological (pid, job) performs reported via [do_job] *)
  completed : int list;  (** clients whose body ran to completion *)
  stuck : int list;
      (** clients still blocked when delivery stopped (only possible
          once a server majority is dead or [max_deliveries] hit) *)
  crashed_clients : int list;
  deliveries : int;  (** total message deliveries — the cost measure *)
}

type body =
  read:(int -> int) ->
  write:(int -> int -> unit) ->
  do_job:(int -> unit) ->
  unit
(** One client's program.  [read r] / [write r v] are atomic register
    operations on registers [1..registers]; [do_job j] reports a
    performed job.  Single-writer discipline: a register must be
    written by at most one client (checked at runtime). *)

val run :
  ?crash_plan:(int * [ `Client of int | `Server of int ]) list ->
  ?max_deliveries:int ->
  ?multi_writer:(int -> bool) ->
  ?duplicate_prob:float ->
  ?deliver:(message Net.t -> Util.Prng.t -> bool) ->
  servers:int ->
  registers:int ->
  rng:Util.Prng.t ->
  client_bodies:body array ->
  unit ->
  outcome
(** [run ~servers ~registers ~rng ~client_bodies ()] executes all
    clients to completion under uniformly-random message delivery.
    [crash_plan] entries [(k, who)] crash [who] at the [k]-th
    delivery.  Initial register value is [0] everywhere.

    [duplicate_prob] (default 0) is the per-step probability that the
    channel clones a random in-flight message before the next
    delivery; a phase counts only each server's first reply, both for
    its quorum and for a read's agreement test, so duplicates are
    harmless (tested).

    [deliver] (default {!Net.deliver_random}) is the channel driver
    invoked once per engine step; substituting it is the seam the
    fault-injection layer uses for drop/delay/partition plans
    ({!Fault.Inject.net_deliver}).  Returning [false] ends the run
    (nothing deliverable), so a driver that withholds messages must
    only do so temporarily — or accept that clients may be reported
    stuck.

    [multi_writer reg] (default: always [false]) marks registers any
    client may write: their writes use the two-phase MW-ABD protocol
    (query the highest timestamp from a majority, then write with a
    strictly larger one, writer id as tie-break).  Single-writer
    registers use the one-phase protocol and enforce the one-writer
    discipline.

    @raise Invalid_argument on bad sizes, or if two clients write the
    same single-writer register. *)
