(** KKβ's FREE and TRY sets over a fixed universe, mutable and
    allocation-free.

    The paper asks of FREE, DONE and TRY only O(log n) update and
    search plus rank/select (§3).  FREE only ever shrinks inside the
    interval [\[lo, hi\]] its initial value spans (the jobs, or one
    level's super-job ids), and TRY holds fewer than m elements.  So
    one process's sets are kept as:

    - FREE: a membership bitmap over [\[lo, hi\]] with a Fenwick tree of
      counts beside it — O(1) [mem] and [cardinal], O(log n) [remove],
      [count_le] and [select], and no allocation after construction;
    - TRY: a sorted, duplicate-free int array;
    - DONE: not stored.  A job enters DONE exactly when it leaves FREE,
      so DONE is initial FREE \ FREE; the initial membership is kept for
      {!reset} and {!done_elements}.

    A running xor of {!Util.Mix.int} over FREE gives {!hash} in O(1).
    Space is O(hi − lo) words whatever the density of initial FREE. *)

type t

(** {1 Construction} *)

val interval : int -> int -> t
(** [interval lo hi] is FREE = [{lo, ..., hi}] (empty when [hi < lo])
    with TRY empty, built in closed form in O(hi − lo). *)

val of_set : (module Set_intf.S with type t = 's) -> 's -> t
(** FREE = the elements of an order-statistic set, TRY empty.  An
    interval is recognised from its cardinality and built by
    {!interval}; the argument is not retained. *)

val reset : t -> unit
(** Restore FREE to its initial value and empty TRY (a restarted
    process's volatile state). *)

(** {1 FREE} *)

val cardinal : t -> int
(** |FREE|; O(1). *)

val mem : int -> t -> bool
(** O(1); [false] outside the universe. *)

val remove : int -> t -> unit
(** Remove from FREE; no-op when absent.  O(log n). *)

val count_le : int -> t -> int
(** [count_le x t] is [|{y ∈ FREE | y <= x}|]; O(log n), defined for
    any [x]. *)

val select : t -> int -> int
(** [select t i] is the element of FREE of 1-based rank [i]; O(log n).
    @raise Invalid_argument unless [1 <= i <= cardinal t]. *)

val hash : t -> int
(** The xor of {!Util.Mix.int} over FREE: a content hash, O(1) after
    the first call. *)

(** {1 TRY} *)

val try_clear : t -> unit

val try_add : int -> t -> unit
(** Add to TRY (which may hold elements outside FREE); O(|TRY|). *)

val try_mem : int -> t -> bool

val try_cardinal : t -> int

val try_hash : t -> int
(** TRY folded in ascending order with {!Util.Mix.combine}, seeded
    with its cardinality. *)

(** {1 FREE \ TRY} *)

val diff_cardinal : t -> int
(** |FREE \ TRY|; O(|TRY|). *)

val rank_diff : t -> int -> int
(** [rank_diff t i] is the paper's [rank(FREE, TRY, i)]: the element
    of FREE \ TRY of 1-based rank [i].  O(|TRY| log n): TRY is walked
    in ascending order against {!count_le}, then one {!select}.
    @raise Invalid_argument unless [1 <= i <= diff_cardinal t]. *)

val remove_try : t -> unit
(** FREE := FREE \ TRY. *)

(** {1 Snapshots}

    Each builds a fresh ascending list; for checkers and for the
    boundary with persistent sets, never for the algorithm's steps. *)

val elements : t -> int list
(** FREE. *)

val diff_elements : t -> int list
(** FREE \ TRY. *)

val try_elements : t -> int list
(** TRY. *)

val done_elements : t -> int list
(** DONE = initial FREE \ FREE. *)
