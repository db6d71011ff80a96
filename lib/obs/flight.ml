type segment = { bytes : string; records : int; first_seq : int }

(* Segment bytes live off the OCaml heap.  The ring is pointer-free,
   long-lived and large; kept in heap strings it would count as live
   heap, and the major GC paces its garbage allowance by live heap
   size: a 512 KB ring on the heap let the major heap hold about
   1.7 MB more garbage.  A slot's buffer grows by doubling, from 4 KB
   up to [segment_bytes], and is reused from then on, so sealing a
   segment allocates nothing and a short-lived flight stays small. *)
type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type slot = {
  mutable data : buf;
  mutable len : int;
  mutable records : int;
  mutable first_seq : int;
}

type t = {
  segment_bytes : int;
  slots : slot array; (* ring: [nsealed] sealed from [head], then [cur] *)
  mutable head : int;
  mutable nsealed : int;
  mutable cur : slot; (* the open segment *)
  mutable sealed_records : int;
  mutable dropped_segments : int;
  mutable dropped_records : int;
  mutable total_records : int;
  mutable total_bytes : int;
}

let alloc n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let create ?(segment_bytes = 65_536) ?(max_segments = 8) () =
  if segment_bytes < 1 then
    invalid_arg "Flight.create: segment_bytes must be >= 1";
  if max_segments < 1 then invalid_arg "Flight.create: max_segments must be >= 1";
  let slots =
    Array.init max_segments (fun _ ->
        { data = alloc 0; len = 0; records = 0; first_seq = 0 })
  in
  {
    segment_bytes;
    slots;
    head = 0;
    nsealed = 0;
    cur = slots.(0);
    sealed_records = 0;
    dropped_segments = 0;
    dropped_records = 0;
    total_records = 0;
    total_bytes = 0;
  }

let slot t i = t.slots.((t.head + i) mod Array.length t.slots)

let seal t =
  let c = t.cur in
  t.nsealed <- t.nsealed + 1;
  t.sealed_records <- t.sealed_records + c.records;
  (* open segment counts toward the bound, hence [- 1] *)
  if t.nsealed > Array.length t.slots - 1 then begin
    let victim = slot t 0 in
    t.head <- (t.head + 1) mod Array.length t.slots;
    t.nsealed <- t.nsealed - 1;
    t.dropped_segments <- t.dropped_segments + 1;
    t.dropped_records <- t.dropped_records + victim.records;
    t.sealed_records <- t.sealed_records - victim.records
  end;
  let next = slot t t.nsealed in
  t.cur <- next;
  (* a buffer grown for an oversized record is not kept *)
  if Bigarray.Array1.dim next.data > t.segment_bytes then next.data <- alloc 0;
  next.len <- 0;
  next.records <- 0;
  next.first_seq <- t.total_records

(* Make room for [len] more bytes in the open segment, sealing it
   first when the record would overflow a non-empty segment. *)
let before_push t len =
  if t.cur.records > 0 && t.cur.len + len > t.segment_bytes then seal t;
  let c = t.cur in
  let need = c.len + len in
  let dim = Bigarray.Array1.dim c.data in
  if need > dim then begin
    let d = alloc (max need (min t.segment_bytes (max 4096 (2 * dim)))) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub c.data 0 c.len)
      (Bigarray.Array1.sub d 0 c.len);
    c.data <- d
  end;
  c

let after_push t c len =
  c.len <- c.len + len;
  c.records <- c.records + 1;
  t.total_records <- t.total_records + 1;
  t.total_bytes <- t.total_bytes + len

let push_bytes t b ~len =
  if len < 0 || len > Bytes.length b then invalid_arg "Flight.push_bytes: len";
  let c = before_push t len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set c.data (c.len + i) (Bytes.unsafe_get b i)
  done;
  after_push t c len

(* [push_bytes] only reads its buffer *)
let push t s = push_bytes t (Bytes.unsafe_of_string s) ~len:(String.length s)

let total_records t = t.total_records
let total_bytes t = t.total_bytes
let dropped_segments t = t.dropped_segments
let dropped_records t = t.dropped_records
let retained_records t = t.sealed_records + t.cur.records
let segment_count t = t.nsealed + 1

let retained_bytes t =
  let n = ref 0 in
  for i = 0 to t.nsealed do
    n := !n + (slot t i).len
  done;
  !n

let segments t =
  List.init (t.nsealed + 1) (fun i ->
      let s = slot t i in
      {
        bytes = String.init s.len (Bigarray.Array1.get s.data);
        records = s.records;
        first_seq = s.first_seq;
      })

let clear t =
  Array.iter
    (fun s ->
      s.len <- 0;
      s.records <- 0;
      s.first_seq <- 0)
    t.slots;
  t.head <- 0;
  t.nsealed <- 0;
  t.cur <- t.slots.(0);
  t.sealed_records <- 0;
  t.dropped_segments <- 0;
  t.dropped_records <- 0;
  t.total_records <- 0;
  t.total_bytes <- 0
