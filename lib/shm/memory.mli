(** Atomic read/write shared memory.

    The model (§2.1) is a collection of atomic read/write cells of
    O(log n) bits each.  The simulator executes one action at a time,
    so plain stores are trivially atomic; what this module adds on top
    of raw arrays is (a) 1-based indexing matching the paper's [next]
    vector and [done] matrix, (b) access metering through
    {!Metrics}, and (c) named cells for [`Full] traces.

    Every access names the process performing it ([~p]) so work is
    charged to the right ledger row.  Single shared flags (e.g. the
    termination flag of IterStepKK) are vectors of length 1.

    Building a structure costs one array fill of its cells.  The
    content hashes ({!vhash}, {!mhash}) are built on their first call
    and kept incrementally after it, and a matrix keeps write-ids only
    for the 256-cell segments that have been written: a run that
    neither fingerprints nor emits verbose events pays for neither. *)

type vector

val vector : metrics:Metrics.t -> name:string -> len:int -> init:int -> vector
(** Cells indexed [1..len]. *)

val vector_len : vector -> int

val vget : vector -> p:int -> int -> int
(** [vget v ~p i] atomically reads cell [i] on behalf of process [p].
    @raise Invalid_argument if [i] is out of [1..len]. *)

val vset : vector -> p:int -> int -> int -> unit
(** [vset v ~p i x] atomically writes [x] to cell [i]. *)

val vpeek : vector -> int -> int
(** Read without metering — for checkers and tests only, never for
    algorithm code. *)

val vwid : vector -> int -> int
(** Write-id of the last metered write to cell [i] ([0] = still the
    initial value).  Unmetered peek — for provenance tagging (the
    read-from edge, DESIGN.md §8), checkers and tests. *)

val vname : vector -> cell:int -> string
(** Human-readable cell name, e.g. ["next[3]"]. *)

val vsnapshot : vector -> int array
(** Unmetered copy of the current contents; element [i-1] is cell [i].
    For checkers and tests — an algorithm reading memory wholesale in
    one step would violate the model's atomicity. *)

val vhash : vector -> int
(** Content hash: the XOR over cells of {!Util.Mix.cell}[ i value],
    equal to {!hash_cells}[ (vsnapshot v)] at all times.  The first
    call computes it in O(len); from then on {!vset} updates it in
    O(1).  Write-ids are excluded on purpose — they encode the global
    write order, which differs between commutation-equivalent
    interleavings (DESIGN.md §9).  Unmetered; for state
    fingerprinting. *)

type matrix

val matrix :
  metrics:Metrics.t -> name:string -> rows:int -> cols:int -> init:int -> matrix
(** Cells indexed [(1..rows, 1..cols)]. *)

val matrix_rows : matrix -> int
val matrix_cols : matrix -> int

val mget : matrix -> p:int -> int -> int -> int
(** [mget m ~p r c] atomically reads cell [(r,c)]. *)

val mset : matrix -> p:int -> int -> int -> int -> unit
(** [mset m ~p r c x] atomically writes [x] to cell [(r,c)]. *)

val mpeek : matrix -> int -> int -> int
(** Unmetered read, checkers/tests only. *)

val mwid : matrix -> int -> int -> int
(** Write-id of the last metered write to [(r,c)] ([0] = initial).
    Unmetered peek, like {!vwid}.  Write-ids are drawn from the same
    counter whether or not anything reads them, so they do not depend
    on which segments are allocated. *)

val mname : matrix -> row:int -> col:int -> string
(** e.g. ["done[2][7]"]. *)

val msnapshot : matrix -> int array array
(** Unmetered copy, [rows][cols], 0-based.  Checkers and tests only. *)

val mhash : matrix -> int
(** Content hash of the matrix, built on first call and then kept by
    {!mset} in O(1), like {!vhash}; equal to
    {!hash_matrix}[ (msnapshot m)] at all times. *)

val hash_cells : int array -> int
(** From-scratch hash of a {!vsnapshot} — the reference the
    incremental {!vhash} is property-tested against. *)

val hash_matrix : int array array -> int
(** From-scratch hash of an {!msnapshot}, reference for {!mhash}. *)
