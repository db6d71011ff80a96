(** Jobs.

    Jobs are the unit of work of the at-most-once problem: unique
    identifiers from J = [1..n] (§2.2).  The value [0] is reserved —
    shared-memory cells use it for "no job" — so job ids are always
    strictly positive.

    {!universe} keeps the last set it built: callers that build one
    process after another over the same [n] (every KKβ harness does)
    share one immutable tree instead of building [m] of them. *)

type t = int

val none : t
(** The reserved "no job" value, [0]. *)

val is_valid : n:int -> t -> bool
(** [is_valid ~n j] iff [1 <= j <= n]. *)

val universe : n:int -> Ostree.t
(** The full job set J = {1, ..., n}: built in O(n) when [n] differs
    from the previous call's, otherwise that call's tree, physically
    the same.  Safe to call from several domains at once. *)

val range_set : lo:int -> hi:int -> Ostree.t
(** Contiguous job set [{lo..hi}]; empty if [hi < lo]. *)

val pp : Format.formatter -> t -> unit
