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

(* the buffer of every slot not yet written: never written itself *)
let unused = alloc 0

let create ?(segment_bytes = 65_536) ?(max_segments = 8) () =
  if segment_bytes < 1 then
    invalid_arg "Flight.create: segment_bytes must be >= 1";
  if max_segments < 1 then invalid_arg "Flight.create: max_segments must be >= 1";
  let slots =
    Array.init max_segments (fun _ ->
        { data = unused; len = 0; records = 0; first_seq = 0 })
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
  if Bigarray.Array1.dim next.data > t.segment_bytes then next.data <- unused;
  next.len <- 0;
  next.records <- 0;
  next.first_seq <- t.total_records

(* Grow the open segment's buffer to hold [need] bytes, keeping its
   first [keep] (as far as the old buffer reaches). *)
let grow c ~segment_bytes ~keep need =
  let dim = Bigarray.Array1.dim c.data in
  if need > dim then begin
    let keep = min keep dim in
    let d = alloc (max need (min segment_bytes (max 4096 (2 * dim)))) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub c.data 0 keep)
      (Bigarray.Array1.sub d 0 keep);
    c.data <- d
  end

(* A record is written in place at the open segment's end, from
   [start = cur.len]; its bytes [start, upto) are already there.  It
   belongs in the open segment unless that segment is non-empty and the
   record would take it past [segment_bytes]: then the segment is sealed
   and the record's bytes move to the front of the next one, whose
   buffer is grown to hold [need] bytes.  Bytes past the end of the
   buffer are not written yet, so they are not moved. *)
let move_to_next t ~start ~upto ~need =
  let src = t.cur.data in
  let n = max 0 (min upto (Bigarray.Array1.dim src) - start) in
  seal t;
  grow t.cur ~segment_bytes:t.segment_bytes ~keep:0 need;
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src start n)
    (Bigarray.Array1.sub t.cur.data 0 n)

let open_buf t = t.cur.data
let open_len t = t.cur.len

let make_room t ~start ~upto ~need =
  if t.cur.records > 0 && need > t.segment_bytes then begin
    move_to_next t ~start ~upto ~need:(need - start);
    0
  end
  else begin
    grow t.cur ~segment_bytes:t.segment_bytes ~keep:upto need;
    start
  end

let commit t ~start ~len =
  if t.cur.records > 0 && start + len > t.segment_bytes then
    move_to_next t ~start ~upto:(start + len) ~need:len;
  let c = t.cur in
  c.len <- c.len + len;
  c.records <- c.records + 1;
  t.total_records <- t.total_records + 1;
  t.total_bytes <- t.total_bytes + len

let push t s =
  let len = String.length s and at = t.cur.len in
  let start = make_room t ~start:at ~upto:at ~need:(at + len) in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set t.cur.data (start + i) (String.unsafe_get s i)
  done;
  commit t ~start ~len

let total_records t = t.total_records
let total_bytes t = t.total_bytes
let dropped_segments t = t.dropped_segments
let dropped_records t = t.dropped_records
let retained_records t = t.sealed_records + t.cur.records
let segment_count t = t.nsealed + 1

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
