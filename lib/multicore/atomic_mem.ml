type vector = int Atomic.t array (* slot 0 unused *)

let vector ~len ~init =
  if len < 1 then invalid_arg "Atomic_mem.vector: len must be >= 1";
  Array.init (len + 1) (fun _ -> Atomic.make init)

let vcheck v i =
  if i < 1 || i >= Array.length v then
    invalid_arg "Atomic_mem: vector index out of range"

let vget v i =
  vcheck v i;
  Atomic.get v.(i)

let vset v i x =
  vcheck v i;
  Atomic.set v.(i) x

(* Row [r] is [rows.(r - 1)], ⌈cols/256⌉ segments of 256 cells, and
   its published length [lens.(r - 1)].  A segment is small enough for
   the minor heap.  With each row one 64K-cell block instead, a process
   running KKβ at n = 65536 over and over (perfbench's mc-kk, OCaml
   5.1) saw its major heap grow run after run, all of it garbage a full
   major collection frees: after 30 s its peak RSS read 14-24% above
   the boxed-atomic matrix this log replaces, where the segments read
   4% below it.  A cell is written once, before the store that
   publishes it, and read only after a load that saw that store, so
   the plain cells never race. *)
let seg_bits = 8
let seg = 1 lsl seg_bits

type log = { cols : int; rows : int array array array; lens : int Atomic.t array }

let log ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Atomic_mem.log: empty dimensions";
  let segs = ((cols - 1) lsr seg_bits) + 1 in
  {
    cols;
    rows = Array.init rows (fun _ -> Array.init segs (fun _ -> Array.make seg 0));
    lens = Array.init rows (fun _ -> Atomic.make 0);
  }

let lcheck l r c =
  if r < 1 || r > Array.length l.rows || c < 1 || c > l.cols then
    invalid_arg "Atomic_mem: log index out of range"

let lappend l r c x =
  lcheck l r c;
  let len = l.lens.(r - 1) in
  if c <> Atomic.get len + 1 then
    invalid_arg "Atomic_mem.lappend: not the next column";
  l.rows.(r - 1).((c - 1) lsr seg_bits).((c - 1) land (seg - 1)) <- x;
  Atomic.set len c

let lget l r c =
  lcheck l r c;
  if c <= Atomic.get l.lens.(r - 1) then
    l.rows.(r - 1).((c - 1) lsr seg_bits).((c - 1) land (seg - 1))
  else 0
