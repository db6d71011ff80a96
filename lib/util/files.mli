(** Writing output files. *)

val ensure_dir : string -> unit
(** Create a directory and any missing parents; no-op if it exists. *)

val write : string -> string -> unit
(** [write path contents] creates [path]'s directory if missing,
    writes [contents] to [path ^ ".tmp"] and renames it over [path],
    so a reader (a Prometheus scraper, say) never sees a half-written
    file. *)
