(** Minimal JSON, dependency-free.

    The observability layer needs machine-readable output (snapshots,
    Chrome traces, JSONL event streams) without adding opam
    dependencies, so this module provides a small JSON value type with
    a deterministic encoder (stable float syntax, preserved key order
    — golden-file tests rely on byte-stable output) and a strict
    recursive-descent parser sufficient to re-read everything the
    encoder produces. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** [minify] (default [true]) omits whitespace; otherwise 2-space
    indented.  Object key order is preserved; floats use a fixed
    shortest-form syntax; NaN/infinities encode as [null]. *)

val to_channel : ?minify:bool -> out_channel -> t -> unit
(** [to_string] plus a trailing newline. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document.  Numbers without
    fraction/exponent parse as [Int] (falling back to [Float] beyond
    [max_int]); [\u] escapes decode to UTF-8. *)

(** {2 Accessors} — shallow, [None] on shape mismatch.  [get_float]
    coerces [Int]. *)

val member : string -> t -> t option
val get_int : t -> int option
val get_float : t -> float option
val get_string : t -> string option
val get_bool : t -> bool option
val get_list : t -> t list option
val get_obj : t -> (string * t) list option
