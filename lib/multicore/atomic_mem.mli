(** Shared memory for real OCaml 5 domains.

    The simulator in {!Shm} is the vehicle for adversarial and crash
    experiments; this module is its hardware counterpart, for running
    the same algorithms on actual domains (experiment E9).  It offers
    the two shapes KKβ's registers take, each linearizable exactly as
    the paper's model requires:

    - a {!vector} of multi-reader registers, one [Atomic.t] per cell,
      each an independent atomic register ([next]);
    - a {!log} of append-only single-writer rows ([done]): each row is
      plain [int] cells (in 256-cell segments) and an atomically
      published length.  A cell is a linearizable single-writer
      register provided its row's writer fills the columns in order,
      1, 2, 3, … — which is exactly how Fig. 2 writes [done_p]. *)

type vector

val vector : len:int -> init:int -> vector
(** [vector ~len ~init] is [len] registers, indexed [1..len], each
    holding [init].
    @raise Invalid_argument if [len < 1]. *)

val vget : vector -> int -> int
val vset : vector -> int -> int -> unit

type log

val log : rows:int -> cols:int -> log
(** [log ~rows ~cols] is [rows] empty rows of capacity [cols], indexed
    [1..rows] × [1..cols]; every cell initially reads 0.
    @raise Invalid_argument if [rows < 1] or [cols < 1]. *)

val lappend : log -> int -> int -> int -> unit
(** [lappend l r c x] writes [x] to cell [c] of row [r], then publishes
    it with one atomic store of the row's length.  Only one domain may
    append to a given row.
    @raise Invalid_argument unless [(r, c)] is in range and [c] is the
    row's next column (one past its published length). *)

val lget : log -> int -> int -> int
(** [lget l r c] loads row [r]'s published length and returns cell [c]
    if the length covers it, 0 otherwise.  Both operations take effect
    at the length's load or store: a plain write made before an atomic
    store is visible to every domain whose atomic load sees that store.
    @raise Invalid_argument if [(r, c)] is out of range. *)
