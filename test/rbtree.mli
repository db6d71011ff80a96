(** Order-statistic red-black tree.

    A second, independent implementation of {!Set_intf.S} — the
    balancing scheme the paper names first ("some tree structure like
    red-black tree", §3).  Insertion is Okasaki's; deletion follows
    the Kahrs/Filliâtre functional scheme that threads a
    black-height-deficiency flag.  Every node caches its subtree
    cardinality for O(log n) rank/select, exactly as in {!Ostree}.

    A test fixture, not part of the library: the differential tests
    check {!Ostree} against it, and [Core.Kk.Make (Rbtree)] checks
    that KKβ's boundary with its persistent sets works over any
    {!Set_intf.S}. *)

include Set_intf.S

val black_height : t -> int
(** The common black height of all root-to-leaf paths (tests). *)
