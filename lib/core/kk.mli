(** Algorithm KKβ (paper §3, Figures 1–2) and its IterStepKK variant
    (§6).

    Each process is an automaton whose statuses mirror the paper's
    STATUS values; one {!Shm.Automaton.handle} step performs exactly
    one action:

    - [comp_next] (internal): if |FREE \ TRY| ≥ β, pick the next
      candidate with the {!Policy}, reset TRY, go announce; otherwise
      terminate (standalone) or start the flag/termination sequence
      (IterStepKK).
    - [set_next] (shared write): announce the candidate in [next\[p\]].
    - [gather_try] (m shared reads): collect other processes'
      announcements into TRY.
    - [gather_done] (shared reads): drain the new suffix of every
      other row of the [done] matrix into DONE, removing from FREE.
    - [check] (internal): candidate safe iff not in TRY ∪ DONE; on
      failure this is a {e collision} (recorded, with blame, into a
      {!Collision.t} if one is supplied).
    - [do] (output): perform the job — emits the [Do] event(s).
    - [done] (shared write): append the job to own [done] row.

    The IterStepKK mode adds the shared termination flag: a process
    that runs out of candidates sets the flag, re-gathers TRY and
    DONE, stores its output set and terminates; a process that sees
    the flag set (checked between [check] and [do]) does the same
    instead of performing its candidate (§6).

    Items are plain integers: actual jobs for standalone KKβ, or
    super-job identifiers for the iterated algorithms, which supply a
    [perform] callback expanding one item into its constituent [Do]
    events.

    FREE and TRY live in a {!Freeset} (a bitmap with a Fenwick count
    index over initial FREE's span, and a sorted TRY array), so a
    quiet step allocates nothing; DONE is initial FREE \ FREE.
    Persistent sets appear only at the boundary: [create] takes initial
    FREE as one, and [free_set], [try_set], [done_set] and [result]
    build one on each call.  The boundary type is a functor parameter
    ({!Set_intf.S}); the toplevel values are the instantiation over
    {!Ostree}. *)

type mode = Kk_intf.mode =
  | Standalone  (** plain KKβ: terminate when |FREE \ TRY| < β *)
  | Iter_step of { keep_try : bool }
      (** IterStepKK: flag-coordinated termination; the output set is
          FREE \ TRY when [keep_try = false] (at-most-once iteration,
          §6) and FREE when [keep_try = true] (Write-All iteration,
          §7). Requires a [shared] built [~with_flag:true]. *)

module type S = Kk_intf.S
(** One instantiation's interface.  Highlights:

    - [make_shared ~metrics ~m ~capacity ?with_flag ~name ()]
      allocates one level of shared memory: the [next] vector, the
      m × capacity [done] matrix, and (IterStepKK) the termination
      flag; [flag_value] peeks at the flag (checkers only).
    - [create ~shared ~pid ~beta ~policy ~free ~mode ()] builds one
      process with initial FREE set [free] (for standalone KKβ pass
      [Job.universe ~n]).  [perform] (default: emit one [Do] event)
      expands the [do] action; [perform_work] (default [fun _ -> 1])
      is the work charged for it; [verbose] makes every step emit
      [Read]/[Write]/[Internal] events for [`Full] traces, each
      read/write tagged with the write-id it saw/created (the
      read-from edge, DESIGN.md §8);
      [collision] records failed checks with blame.
      [provenance] (default [false]) additionally emits the
      job-lifecycle events [Pick] (with the |FREE|/|TRY| rank-split
      inputs), [Announce], [Forfeit] (with the blamed owner per
      Definition 5.2) and [Recover] — the raw material of
      {!Obs.Ledger}.  Provenance events are annotations only: they
      never touch footprints, scheduling decisions, or the paper's
      work accounting, so replays are unaffected.
      [perform_footprint] declares the shared footprint of the
      [perform] callback (defaults: [Internal] for the built-in
      event-only perform, [Unknown] for a caller-supplied one).
      [mutant_skip_check] is {e fault injection for the test suite
      only}: it deletes the [check] guard so the process performs its
      candidate unconditionally — the seeded safety mutant the model
      checker must catch (never set it outside tests).
      [mutant_skip_recovery_mark] is the recovery-path analogue: a
      restarted process skips the conservative re-marking of its
      pre-crash announcement (see [restart] below), the unsound
      shortcut the chaos harness must catch.
    - [restart] (crash-recovery mode, DESIGN.md §7): revive a crashed
      process.  Returns [false] unless the process is currently
      crashed.  On [true], all volatile state is discarded and the
      process re-enters via the recovery statuses: [rec_scan] re-reads
      its own [done] row, [rec_next] re-reads its own announcement,
      and [rec_mark] conservatively appends that announcement to its
      [done] row without performing it (a crash in the
      [do] -> [done] window may have left a performed job unrecorded,
      so the announcement cannot be trusted).  At-most-once is
      preserved unconditionally; each restart forfeits at most one
      job, so effectiveness degrades to n − (β + m − 2) − r after r
      restarts.  [restart_count] reports r for one process.
    - [handle] packages the process for {!Shm.Executor.run}; its
      [footprint] (also exposed directly as [footprint t]) names the
      register the next action will touch, driving the explorer's
      partial-order reduction.
    - [result] is the IterStepKK output set ([Some] once terminated in
      [Iter_step] mode), built on each call.
    - [do_count], [collisions_detected], [status_name], [free_set],
      [try_set], [done_set], [announced]: introspection.  The three
      sets are built on each call; DONE is derived, not stored:
      [done_set] is initial FREE \ FREE (a job enters DONE exactly
      when it leaves FREE). *)

module Make (Set : Set_intf.S) : S with type set = Set.t
(** KKβ with [Set] as the persistent set type at its boundary. *)

include S with type set = Ostree.t
(** The {!Ostree} instantiation — what the rest of the repository
    uses. *)

val done_matrix : shared -> Shm.Memory.matrix
(** The level's [done] matrix (row p holds the jobs p recorded), for
    checkers that compare a process's DONE with shared memory through
    {!Shm.Memory.mpeek}. *)
