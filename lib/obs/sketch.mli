(** Mergeable quantile sketches with bounded relative error.

    Samples fall into power-of-two bands (band [0] is the value [0],
    band [b >= 1] is [[2^(b-1), 2^b - 1]], the top band ends at
    [max_int]), each subdivided into [k] linear sub-buckets (k a power
    of two, default 32): a [1/k] relative-error bound in constant
    space and O(1) per insert.  Merging is a pointwise sum — exact —
    so per-domain sketches combine into a run-wide one with no
    re-bucketing error.  With [k = 1] a sketch is a log-bucketed
    histogram: each estimate is its band's upper edge. *)

type t

val default_sub_buckets : int
(** 32, i.e. relative error bound ~3.1%. *)

val create : ?sub_buckets:int -> unit -> t
(** @raise Invalid_argument unless [sub_buckets] is a positive power
    of two. *)

val sub_buckets : t -> int

val add : t -> int -> unit
(** Record one sample.  Negative values clamp to 0. *)

val count : t -> int
(** Number of recorded samples. *)

val total : t -> float
(** Sum of samples (float: sums of near-[max_int] samples overflow). *)

val min_value : t -> int
val max_value : t -> int

val percentile : t -> float -> int
(** Upper-edge estimate of the covering sub-bucket, capped at the true
    max; at most [(1 + 1/k)] times the exact quantile.  [100.] returns
    the exact max.  @raise Invalid_argument outside [\[0,100\]]. *)

val relative_error : t -> float
(** The [1/k] overshoot bound {!percentile} guarantees. *)

val merge : t -> t -> t
(** Pointwise sum; exact.  @raise Invalid_argument on differing
    [sub_buckets], naming both [k] values. *)

val cumulative : t -> (int * int) list
(** [(upper_edge, samples <= upper_edge)] over non-empty slots,
    ascending — the cumulative shape Prometheus histograms use. *)

val to_json : t -> Json.t

val band_start : int -> int
(** The first value of the power-of-two band that holds [v]: [0] for
    [v <= 0], else the largest power of two [<= v].  {!Heatmap} keys
    its step buckets by it. *)
