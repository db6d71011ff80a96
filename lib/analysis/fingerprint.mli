(** State fingerprints for exploration caching.

    A fingerprint condenses an exploration node — machine state after
    a schedule prefix, the canonical do-log of that prefix, the step
    count, and the node's sleep set — into one native int.  Two nodes
    with equal fingerprints have (up to hash collision) identical
    residual subtrees producing identical canonical do-log suffixes,
    so the second can be pruned without changing the {e set} of
    canonical do-logs or the violation verdicts the explorer reports
    (DESIGN.md §9 gives the full argument).  Per-execution counts may
    shrink under pruning, which is why {!Explore} only enables the
    cache when asked.

    Fingerprinting is only available when every live automaton
    implements {!Shm.Automaton.handle}[.fingerprint]; one opaque
    ([None]) live process makes {!state} return [None] and the caller
    falls back to uncached exploration. *)

val state :
  handles:Shm.Automaton.handle array ->
  stepno:int ->
  do_hash:int ->
  sleep:(int * Shm.Footprint.t) list ->
  int option
(** The fingerprint of an exploration node, or [None] if any live
    automaton is opaque. *)

val cover :
  handles:Shm.Automaton.handle array -> do_counts:int array -> faults:int -> int
(** The {e coverage} fingerprint used by {!Fuzz}-style novelty search:
    a behavioral abstraction — the per-process phase vector (dead
    processes marked), [do_counts] (per-pid performed-job counts, any
    indexing as long as it is pid-stable; invariant under commutation
    of independent actions, so Mazurkiewicz-equivalent prefixes
    collide), and the cumulative [faults] count (crashes + restarts).
    Job identities, register contents and step counts are excluded on
    purpose: coverage must {e saturate} for novelty to be a signal,
    and any per-run entropy source would let blind sampling mint
    endless "new" states.  Total (never opaque): phases are always
    available. *)

val do_hash_add : int -> pid:int -> index:int -> job:int -> int
(** Fold one [Do] event into a canonical do-prefix hash: commutative
    across pids, order-sensitive within a pid (via [index], the
    1-based position of this job in pid's own do sequence).  Two
    prefixes equivalent under commutation of independent actions hash
    equal. *)

(** {2 Incremental do-prefix accumulator} *)

type acc

val acc_create : m:int -> acc
(** [m] = highest pid. *)

val acc_feed : acc -> Shm.Event.t list -> unit
(** Fold the [Do] events of one step into the accumulator. *)

val acc_hash : acc -> int

(** {2 The shared seen-state table} *)

type table
(** A bounded open-addressing hash set of fingerprints, safe for
    concurrent use from multiple domains (lock-free CAS inserts).
    Collisions on the probe run beyond the probe limit overwrite
    (lossy — costs re-exploration, never soundness). *)

type stats = { hits : int; misses : int; evictions : int; capacity : int }

val default_bits : int
(** 20 — a 1M-slot table, 8 MB of atomics. *)

val create : ?bits:int -> unit -> table
(** [2^bits] slots, clamped to [4..28]. *)

val seen : table -> int -> bool
(** [seen t fp] — [true] if [fp] was already recorded (a cache hit:
    prune); otherwise records it and returns [false].  Updates the
    hit/miss/eviction counters. *)

val stats : table -> stats
