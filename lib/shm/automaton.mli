(** Process automata.

    Every algorithm in this repository (KKβ, IterStepKK, the
    baselines, the Write-All solvers) is packaged as a set of process
    automata with the granularity of the paper's model: calling
    {!val:step} performs {e exactly one} action — one atomic shared
    read, one atomic shared write, or one internal action.  Because a
    step is atomic and the executor interleaves whole steps, every
    simulated run is a linearized execution of the asynchronous model
    (§2.1), and the scheduler/adversary fully controls the
    interleaving.

    A handle is a record of closures over the process's private state,
    so heterogeneous algorithms run under the same executor. *)

type handle = {
  pid : int;  (** process id in [1..m] *)
  step : unit -> Event.t list;
      (** Perform one enabled action.  Returns the events the action
          emitted (typically none or one; the action that moves the
          process to its [end] status emits [Terminate]).  Must not be
          called when [alive () = false]. *)
  alive : unit -> bool;
      (** [true] while the process has enabled actions — i.e. it has
          not terminated and not crashed. *)
  crash : unit -> unit;
      (** The adversary's [stop] action: after this, [alive] is
          [false] and no further actions occur.  Idempotent. *)
  phase : unit -> string;
      (** The process's current status, e.g. ["comp_next"]; used by
          introspecting adversaries and by error messages. *)
  footprint : unit -> Footprint.t;
      (** The shared-memory footprint of the {e next} action [step]
          would perform — which register the action will read or
          write, {!Footprint.Internal} for purely local actions, or
          {!Footprint.Unknown} when not statically known.  Must be
          pure (no state change) and is only meaningful while
          [alive () = true].  The partial-order-reduction explorer
          uses it to compute the independence relation; automata that
          always answer [Unknown] are still explored correctly, just
          without reduction. *)
  fingerprint : unit -> int option;
      (** A hash of the process's {e complete} behavioral state: its
          local variables, control status, and the content hashes
          ({!Memory.vhash}/{!Memory.mhash}) of every shared structure
          its future behavior can depend on.  Two processes built by
          the same factory whose fingerprints are equal must behave
          identically under every subsequent schedule (up to hash
          collision).  [None] means the automaton is opaque — the
          fingerprint cache ([Analysis.Fingerprint]) is disabled for
          any instance containing an opaque live process, which is
          always safe.  Must be pure and cheap; only meaningful while
          [alive () = true]. *)
}

val check : handle -> handle
(** Validates [pid >= 1]; returns the handle.
    @raise Invalid_argument otherwise. *)

val pids : handle array -> int list
(** The pids, in array order. *)

val footprint : handle -> Footprint.t
(** [footprint h = h.footprint ()] — the pending action's footprint. *)

val fingerprint : handle -> int option
(** [fingerprint h = h.fingerprint ()]. *)

val opaque : unit -> int option
(** Always [None] — a ready-made [fingerprint] field for automata that
    opt out of state hashing. *)
