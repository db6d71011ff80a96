(** Order-statistic 2-3 tree.

    The third backing structure, covering the paper's other named
    option ("... or some variant of B-tree", §3): a purely functional
    2-3 tree — the minimal B-tree — with every node carrying its
    subtree cardinality for O(log n) rank/select.  Insertion
    propagates splits upward; deletion propagates underflow upward
    with the classic borrow/merge repairs.

    Like {!Rbtree}, a test fixture: three independent balancing
    schemes must agree on every observable, and [Core.Kk.Make
    (Twothree)] runs KKβ with it at the boundary. *)

include Set_intf.S

val height : t -> int
(** The uniform leaf depth (all leaves of a 2-3 tree are level);
    0 for the empty tree.  Exposed for the invariant tests. *)
