(** Super-jobs: the nested job groupings of IterativeKK(ε) (§6).

    A super-job of size [d] is a group of consecutive jobs.  The
    iterated algorithm runs IterStepKK on coarse super-jobs first and
    refines the survivors; Theorem 6.3's safety argument needs the
    grouping to satisfy "a job i is always mapped to the same
    super-job of a specific size and there is no intersection between
    the jobs in super-jobs of the same size".

    We realize this with {e nested} partitions: level 0 partitions
    [1..n] into canonical blocks of the first size; each subsequent
    level subdivides every block of the previous level, starting at
    the block's own first job.  Nesting makes the paper's
    [map(SET1, size1, size2)] {e exact}: the children of a block
    partition it, so no job is dropped or duplicated at a level
    boundary even when the sizes do not divide evenly.

    A super-job is identified by its lowest job id — unique within a
    level because blocks of one level are disjoint. *)

type t

val build : n:int -> sizes:int list -> t
(** [build ~n ~sizes] with [sizes] non-increasing, positive, and
    ending in [1] (the last level works on individual jobs).
    @raise Invalid_argument otherwise. *)

val n : t -> int

val num_levels : t -> int

val level_size : t -> int -> int
(** Block size of level [k] (0-based). *)

val block_count : t -> int -> int
(** Number of blocks at level [k] — the [done]-matrix width the level
    needs. *)

val interval : t -> level:int -> id:int -> int * int
(** Inclusive job interval of the block identified by [id] at
    [level].  @raise Not_found if no such block. *)

val ids_at : t -> int -> Ostree.t
(** All block ids of level [k]. *)

val id_of_rank : t -> level:int -> int -> int
(** [id_of_rank t ~level r] is the id of the [r]-th block of [level]
    (1-based, ascending).  O(1).
    @raise Invalid_argument unless [1 <= r <= block_count t level]. *)

val child_ranks : t -> level:int -> int -> int * int
(** [child_ranks t ~level r] is the inclusive range of level [k+1]
    ranks of the children of [level]'s rank-[r] block: by nesting,
    the children of a block are consecutive at the next level.
    O(log n).  @raise Invalid_argument at the last level or on a bad
    rank. *)

val children : t -> level:int -> id:int -> int list
(** Ids of the level [k+1] blocks that partition this block,
    ascending.  @raise Invalid_argument at the last level. *)

val map_down : t -> from_level:int -> Ostree.t -> Ostree.t
(** The paper's [map]: the level [k+1] ids covering exactly the jobs
    of the given level-[k] ids.  Exact by nesting: the output covers
    the same job set as the input. *)

val jobs_of_ids : t -> level:int -> Ostree.t -> Ostree.t
(** Expand block ids to the underlying job set (checkers/tests). *)

val boundary_loss_if_unnested : t -> from_level:int -> Ostree.t -> int
(** The ablation counter for DESIGN.md's nesting decision: had [map]
    used {e canonical} next-level blocks (anchored at job 1, as a
    literal reading of the paper suggests) instead of nested ones, a
    next-level block straddling the edge of a surviving parent could
    not be kept without re-performing jobs, so its in-parent jobs
    would be dropped.  Returns how many of the given parents' jobs
    would be lost that way — the nested construction loses exactly 0
    (see {!map_down}).  Used by bench E11. *)
