(** The persistent order-statistic set interface.

    The paper stores FREE, DONE and TRY in "some tree structure like
    red-black tree or some variant of B-tree" (§3) and needs only
    O(log n) update/search and rank/select.  KKβ's own hot path keeps
    them in the mutable fixed-universe [Core.Freeset]; this interface
    is the persistent side of its boundary: what [Core.Kk.Make] takes
    initial FREE as and hands [free_set], [try_set], [done_set] and the
    IterStepKK result back as.  {!Ostree} (size-augmented AVL)
    implements it, and so do the test suite's reference trees. *)

module type S = sig
  type t

  val empty : t
  val is_empty : t -> bool
  val cardinal : t -> int
  val mem : int -> t -> bool
  val add : int -> t -> t
  val remove : int -> t -> t
  val min_elt : t -> int
  val max_elt : t -> int
  val select : t -> int -> int
  val rank : int -> t -> int
  val count_le : int -> t -> int
  val diff_cardinal : t -> t -> int
  val rank_diff : t -> t -> int -> int
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  val iter : (int -> unit) -> t -> unit
  val elements : t -> int list
  val of_list : int list -> t
  val of_range : int -> int -> t
  val equal : t -> t -> bool
  val subset : t -> t -> bool
  val check_invariants : t -> unit
  val pp : Format.formatter -> t -> unit
end
