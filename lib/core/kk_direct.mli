(** KKβ in direct style: the one loop every real backend runs.

    {!Kk} is Fig. 2 as a step automaton, so the simulator can choose
    every interleaving.  A backend whose scheduler is the machine or
    the network (OCaml 5 domains in [Multicore.Runner], ABD-emulated
    registers in [Msg.Kk_mp]) instead runs Fig. 2 as an ordinary
    loop.  This module is that loop, written once.  A backend supplies
    only its register accessors; the sets, the candidate rule and the
    work charges are shared.  KKβ needs nothing but single-writer
    atomic registers, so any register emulation can run it unchanged.

    With a [flag] the loop is Fig. 3's IterStepKK: KKβ plus a shared
    termination flag.  {!iterative} runs one IterStepKK per super-job
    level of IterativeKK(ε) (§6). *)

type regs = {
  read_next : int -> int;  (** [read_next q] reads [next\[q\]] *)
  write_next : int -> unit;  (** [write_next v] writes the caller's [next] *)
  read_done : int -> int -> int;  (** [read_done q c] reads [done\[q\]\[c\]] *)
  write_done : int -> int -> unit;
      (** [write_done c v] writes cell [c] of the caller's [done] row *)
}
(** One process's view of the shared registers.  Every accessor takes
    all its arguments at once. *)

type flag = {
  is_set : unit -> bool;  (** read the termination flag *)
  set : unit -> unit;  (** write it *)
}
(** IterStepKK's multi-writer termination flag. *)

val run :
  ?flag:flag ->
  regs ->
  policy:Policy.t ->
  budget:int ->
  ledger:Shm.Metrics.t ->
  pid:int ->
  m:int ->
  beta:int ->
  cols:int ->
  free:Freeset.t ->
  perform:(int -> unit) ->
  Freeset.t
(** [run regs ~policy ~budget ~ledger ~pid ~m ~beta ~cols ~free
    ~perform] is process [pid]'s Fig. 2 loop over the candidate ids in
    [free] (FREE; its TRY is ignored and overwritten), with [done] rows
    of [cols] cells.  [perform j] does job [j]; it is called before
    [j] is published in [done].  The loop updates [free] in place and
    returns it; it allocates nothing per job beyond what [perform] and
    the register accessors do.

    The loop stops silently once it has performed [budget] jobs, as a
    crash at that point would (the test comes before any register
    access).  Otherwise it stops when |FREE \ TRY| < β.  Without
    [flag] it then returns FREE.  With [flag] it first sets the flag,
    and it also stops when it reads the flag set before a perform; in
    both cases it re-gathers TRY and DONE, removes TRY from FREE and
    returns FREE \ TRY.

    [ledger] is charged for [pid] one read or write per register
    access, one internal per [compNext], check and perform, and the
    simulator's ({!Kk}) work units: [compNext]'s rank cost, one per
    perform, ⌈log₂ cols⌉ per gather hit and twice that per done-set
    update.  Unlike the automaton, the loop takes no internal steps
    to skip its own cells. *)

val iterative :
  hierarchy:Superjob.t ->
  regs:(int -> regs) ->
  flag:(int -> flag) ->
  ledger:Shm.Metrics.t ->
  pid:int ->
  m:int ->
  beta:int ->
  perform:(int -> int -> unit) ->
  unit
(** Process [pid]'s IterativeKK(ε) (Fig. 3, at-most-once variant):
    one {!run} with the paper's [Rank_split] rule per level of
    [hierarchy], on level [l]'s registers [regs l] and flag [flag l],
    with each level's output mapped down to the next level's
    candidate super-jobs (the paper's [map], {!Superjob.map_down}).
    A level runs over the {e ranks} [1..block_count] of its super-jobs
    ({!Superjob.id_of_rank}, {!Superjob.child_ranks}), so its FREE
    costs O(block count) words and its registers hold ranks; the
    order-preserving renaming leaves every choice of [Rank_split]
    unchanged.  [perform l id] does super-job [id] of level [l]. *)
