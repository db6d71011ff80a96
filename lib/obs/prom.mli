(** Prometheus text-exposition (0.0.4) snapshot rendering.

    A registry of counters, gauges and sketch-backed histograms,
    rendered deterministically (registration order) to the exposition
    format.  Written with [Util.Files.write] (atomic tmp+rename) it
    follows the textfile-collector pattern, so soaks are scrapable by
    standard tooling without an HTTP endpoint in the binary. *)

type t

val create : unit -> t

val counter : t -> name:string -> help:string -> ?labels:(string * string) list -> float -> unit
(** @raise Invalid_argument on a name outside
    [[a-zA-Z_:][a-zA-Z0-9_:]*], or on a NaN/infinite value — a
    non-finite sample poisons every downstream aggregation, so it is
    rejected at the instrumentation site. *)

val gauge : t -> name:string -> help:string -> ?labels:(string * string) list -> float -> unit

val of_sketch :
  t -> name:string -> help:string -> ?labels:(string * string) list -> Sketch.t -> unit
(** Expose a {!Sketch} as a Prometheus histogram: one cumulative
    [_bucket] line per non-empty sub-bucket upper edge, plus the
    implicit [+Inf] bucket, [_sum] and [_count]. *)

val render : t -> string
(** The full exposition text: [# HELP]/[# TYPE] once per metric name,
    then one sample line per series.  Label values are escaped per the
    format (backslash, double-quote, newline). *)
