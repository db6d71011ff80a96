(* [Ostree] behind the order-statistic interface KKβ is written against,
   with every call timed as one span of [S.layer].  [Core.Kk.Make] over
   this module runs the unchanged automaton; only the traced run uses
   it.  The wrappers take their arguments directly rather than a closure,
   so that timing a call allocates nothing. *)

module Make (S : sig
  val tracer : Tracer.t
  val layer : int
end) : Set_intf.S with type t = Ostree.t = struct
  let tr = S.tracer

  let[@inline] wrap f x =
    Tracer.enter tr S.layer;
    match f x with
    | r ->
        Tracer.exit tr;
        r
    | exception e ->
        Tracer.exit tr;
        raise e

  let[@inline] wrap2 f x y =
    Tracer.enter tr S.layer;
    match f x y with
    | r ->
        Tracer.exit tr;
        r
    | exception e ->
        Tracer.exit tr;
        raise e

  let[@inline] wrap3 f x y z =
    Tracer.enter tr S.layer;
    match f x y z with
    | r ->
        Tracer.exit tr;
        r
    | exception e ->
        Tracer.exit tr;
        raise e

  type t = Ostree.t

  let empty = Ostree.empty
  let is_empty s = wrap Ostree.is_empty s
  let cardinal s = wrap Ostree.cardinal s
  let mem x s = wrap2 Ostree.mem x s
  let add x s = wrap2 Ostree.add x s
  let remove x s = wrap2 Ostree.remove x s
  let min_elt s = wrap Ostree.min_elt s
  let max_elt s = wrap Ostree.max_elt s
  let select s i = wrap2 Ostree.select s i
  let rank x s = wrap2 Ostree.rank x s
  let count_le x s = wrap2 Ostree.count_le x s
  let diff_cardinal a b = wrap2 Ostree.diff_cardinal a b
  let rank_diff a b i = wrap3 Ostree.rank_diff a b i
  let fold f s acc = wrap3 Ostree.fold f s acc
  let iter f s = wrap2 Ostree.iter f s
  let elements s = wrap Ostree.elements s
  let of_list l = wrap Ostree.of_list l
  let of_range lo hi = wrap2 Ostree.of_range lo hi
  let equal a b = wrap2 Ostree.equal a b
  let subset a b = wrap2 Ostree.subset a b
  let check_invariants = Ostree.check_invariants
  let pp = Ostree.pp
end
