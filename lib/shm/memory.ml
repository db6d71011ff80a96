type vector = {
  vmetrics : Metrics.t;
  vname : string;
  cells : int array; (* index 0 unused; cells.(i) is the paper's name[i] *)
  vwids : int array; (* write-id of the last write to each cell; 0 = initial *)
  mutable vhashed : bool; (* vchash is built and kept up to date *)
  mutable vchash : int; (* XOR over cells of Mix.cell i cells.(i) *)
}

(* Content hashes are Zobrist-style XOR accumulations so a write only
   has to fold out the old value and fold in the new one.  Write-ids
   are deliberately NOT part of the hash: they encode the global order
   in which cells were last touched, which differs between
   commutation-equivalent interleavings — including them would defeat
   fingerprint caching without changing any observable behavior.

   Only the model checker reads a hash, so a structure builds its hash
   on the first read and keeps it incrementally from then on; a run
   that never fingerprints never pays for it. *)

(* XOR of Mix.cell (i - first + 1) a.(i) over i in [first, length a). *)
let hash_from a first =
  let h = ref 0 in
  for i = first to Array.length a - 1 do
    h := !h lxor Util.Mix.cell (i - first + 1) a.(i)
  done;
  !h

let hash_cells a = hash_from a 0

let vector ~metrics ~name ~len ~init =
  if len < 1 then invalid_arg "Memory.vector: len must be >= 1";
  {
    vmetrics = metrics;
    vname = name;
    cells = Array.make (len + 1) init;
    vwids = Array.make (len + 1) 0;
    vhashed = false;
    vchash = 0;
  }

let vector_len v = Array.length v.cells - 1

let vcheck v i =
  if i < 1 || i >= Array.length v.cells then
    invalid_arg (Printf.sprintf "Memory.%s: index %d out of range" v.vname i)

let vget v ~p i =
  vcheck v i;
  Metrics.on_read v.vmetrics ~p;
  v.cells.(i)

let vset v ~p i x =
  vcheck v i;
  Metrics.on_write v.vmetrics ~p;
  v.vwids.(i) <- Metrics.fresh_wid v.vmetrics;
  if v.vhashed then
    v.vchash <-
      v.vchash lxor Util.Mix.cell i v.cells.(i) lxor Util.Mix.cell i x;
  v.cells.(i) <- x

let vpeek v i =
  vcheck v i;
  v.cells.(i)

let vwid v i =
  vcheck v i;
  v.vwids.(i)

let vname v ~cell = Printf.sprintf "%s[%d]" v.vname cell

let vsnapshot v = Array.sub v.cells 1 (Array.length v.cells - 1)

let vhash v =
  if not v.vhashed then begin
    v.vchash <- hash_from v.cells 1;
    v.vhashed <- true
  end;
  v.vchash

(* Matrix write-ids are kept per segment of [seg_cells] cells, allocated
   by the segment's first write: a run without verbose events never
   reads one, and most runs write a small part of the matrix. *)
let seg_bits = 8
let seg_cells = 1 lsl seg_bits

type matrix = {
  mmetrics : Metrics.t;
  mname : string;
  rows : int;
  cols : int;
  data : int array; (* row-major, index (r-1)*cols + (c-1) *)
  mwids : int array array;
      (* mwids.(i lsr seg_bits).(i land (seg_cells - 1)) is the last
         write-id of data.(i); [||] until the segment's first write *)
  mutable mhashed : bool; (* mchash is built and kept up to date *)
  mutable mchash : int; (* XOR over data of Mix.cell (flat+1) value *)
}

let matrix ~metrics ~name ~rows ~cols ~init =
  if rows < 1 || cols < 1 then invalid_arg "Memory.matrix: empty dimensions";
  let size = rows * cols in
  {
    mmetrics = metrics;
    mname = name;
    rows;
    cols;
    data = Array.make size init;
    mwids = Array.make ((size + seg_cells - 1) lsr seg_bits) [||];
    mhashed = false;
    mchash = 0;
  }

let matrix_rows m = m.rows
let matrix_cols m = m.cols

let index m r c =
  if r < 1 || r > m.rows || c < 1 || c > m.cols then
    invalid_arg
      (Printf.sprintf "Memory.%s: cell (%d,%d) out of range" m.mname r c);
  ((r - 1) * m.cols) + (c - 1)

let mget m ~p r c =
  let i = index m r c in
  Metrics.on_read m.mmetrics ~p;
  m.data.(i)

let mset m ~p r c x =
  let i = index m r c in
  Metrics.on_write m.mmetrics ~p;
  let s = i lsr seg_bits in
  if Array.length m.mwids.(s) = 0 then m.mwids.(s) <- Array.make seg_cells 0;
  m.mwids.(s).(i land (seg_cells - 1)) <- Metrics.fresh_wid m.mmetrics;
  if m.mhashed then
    m.mchash <-
      m.mchash
      lxor Util.Mix.cell (i + 1) m.data.(i)
      lxor Util.Mix.cell (i + 1) x;
  m.data.(i) <- x

let mpeek m r c = m.data.(index m r c)

let mwid m r c =
  let i = index m r c in
  let seg = m.mwids.(i lsr seg_bits) in
  if Array.length seg = 0 then 0 else seg.(i land (seg_cells - 1))

let mname m ~row ~col = Printf.sprintf "%s[%d][%d]" m.mname row col

let msnapshot m =
  Array.init m.rows (fun r -> Array.sub m.data (r * m.cols) m.cols)

let mhash m =
  if not m.mhashed then begin
    m.mchash <- hash_cells m.data;
    m.mhashed <- true
  end;
  m.mchash

let hash_matrix rows = hash_cells (Array.concat (Array.to_list rows))
