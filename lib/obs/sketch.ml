(* Mergeable quantile sketch: power-of-two bands, each subdivided into
   [k] equal-width linear sub-buckets (k a power of two, default 32).

   Band 0 holds the value 0 (and clamped negatives); band b >= 1 holds
   [2^(b-1), 2^b - 1]; with 63-bit ints the top band 62 is
   [2^61, max_int].  The bands are flattened into [1 + 62k] slots:
   slot 0 is the value 0, band b >= 1 occupies slots
   [1 + (b-1)k .. bk].

   A quantile estimate is the upper edge of the covering sub-bucket,
   capped at the true max.  For a sample x in band b the sub-bucket is
   at most [width b / k] wide and x >= lo b = width b (for b >= 1), so
   the estimate overshoots by at most a factor 1/k.  With k = 1 the
   sub-bucket IS the band: the estimate is the band's upper edge, a
   log-bucketed histogram's percentile.

   Space is (1 + 62k) ints regardless of sample count; merge is a
   pointwise sum (exact), so per-domain sketches combine without
   re-bucketing error. *)

let top_band = 62

let band_of v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  if v <= 0 then 0 else bits 0 v

let band_lo b = if b <= 0 then 0 else 1 lsl (b - 1)
let band_hi b = if b <= 0 then 0 else if b >= top_band then max_int else (1 lsl b) - 1
let band_start v = band_lo (band_of v)

(* at least 1: narrow low bands have fewer than [k] distinct values *)
let sub_width k b = max 1 ((band_hi b - band_lo b + 1) / k)

let slot_of k v =
  let b = band_of v in
  if b = 0 then 0 else 1 + ((b - 1) * k) + min ((v - band_lo b) / sub_width k b) (k - 1)

let slot_hi k i =
  if i = 0 then 0
  else begin
    let b = 1 + ((i - 1) / k) in
    let s = (i - 1) mod k in
    min (band_lo b + ((s + 1) * sub_width k b) - 1) (band_hi b)
  end

let default_sub_buckets = 32

type t = {
  k : int;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
}

let is_pow2 k = k > 0 && k land (k - 1) = 0

let create ?(sub_buckets = default_sub_buckets) () =
  if not (is_pow2 sub_buckets) then
    invalid_arg "Sketch.create: sub_buckets must be a positive power of two";
  {
    k = sub_buckets;
    counts = Array.make (1 + (top_band * sub_buckets)) 0;
    n = 0;
    sum = 0.;
    min_v = max_int;
    max_v = min_int;
  }

let sub_buckets t = t.k

let add t v =
  let v = max 0 v in
  let i = slot_of t.k v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = if t.n = 0 then 0 else t.max_v

let merge a b =
  if a.k <> b.k then
    invalid_arg
      (Printf.sprintf
         "Sketch.merge: cannot merge sketches with differing sub_buckets (%d \
          vs %d) — their bucket grids are incompatible"
         a.k b.k);
  let t = create ~sub_buckets:a.k () in
  Array.blit a.counts 0 t.counts 0 (Array.length a.counts);
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
  t.n <- a.n + b.n;
  t.sum <- a.sum +. b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Sketch.percentile: p in [0,100]";
  if t.n = 0 then 0
  else if p >= 100. then t.max_v
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
      max 1 r
    in
    let len = Array.length t.counts in
    let rec go i cum =
      if i >= len then t.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then min (slot_hi t.k i) t.max_v else go (i + 1) cum
      end
    in
    go 0 0
  end

let relative_error t = 1. /. float_of_int t.k

(* Cumulative (upper_edge, count <= edge) pairs over non-empty slots —
   the shape Prometheus histogram exposition wants. *)
let cumulative t =
  let acc = ref [] and cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cum := !cum + c;
        acc := (slot_hi t.k i, !cum) :: !acc
      end)
    t.counts;
  List.rev !acc

let to_json t =
  Json.Obj
    [
      ("sub_buckets", Json.Int t.k);
      ("n", Json.Int t.n);
      ("sum", Json.Float t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Int (percentile t 50.));
      ("p90", Json.Int (percentile t 90.));
      ("p99", Json.Int (percentile t 99.));
      ("p999", Json.Int (percentile t 99.9));
    ]
