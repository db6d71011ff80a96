(** Leveled diagnostics for library code.

    Library modules must never write to stdout/stderr unconditionally;
    every diagnostic goes through this logger, which is silent unless
    the process opted in.  The initial level comes from the [AMO_LOG]
    environment variable ([quiet]/[info]/[debug], default [quiet]);
    applications can override it with {!set_level} (e.g. from a
    [--log-level] flag).

    Output goes to a settable formatter (default: stderr), so tests
    can capture it and benchmark stdout stays machine-parsable. *)

type level = Quiet | Info | Debug

val level_to_string : level -> string

val level_of_string : string -> level option
(** Accepts ["quiet"]/["silent"]/["none"]/["0"], ["info"]/["1"],
    ["debug"]/["2"] (case-insensitive). *)

val from_env : unit -> level
(** The level named by [AMO_LOG], or [Quiet] when unset/unparsable. *)

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** [enabled l] is true when a message at level [l] would be printed. *)

val set_formatter : Format.formatter -> unit
(** Redirect log output (default: {!Format.err_formatter}). *)

val formatter : unit -> Format.formatter

val info : ('a, Format.formatter, unit) format -> 'a
(** Printed at [Info] and [Debug] levels, prefixed ["[amo:info] "],
    newline-terminated and flushed. *)

val debug : ('a, Format.formatter, unit) format -> 'a
(** Printed only at [Debug] level. *)
