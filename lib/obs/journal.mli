(** Binary journal codec + flight-recorder dumps + offline engine.

    The wire format (DESIGN.md §13) is a compact, self-describing
    binary encoding of observability events.  Every segment file
    starts with a 5-byte header — magic ["AMOJ"] plus a schema-version
    byte — and then holds a sequence of framed records:

    {v
      varint payload_length | payload bytes | 1-byte xor checksum
    v}

    The checksum is the xor of the payload bytes (seeded with [0xA5]),
    so a flipped byte is caught at the damaged record, and a journal
    truncated mid-record still yields every complete record before the
    damage together with the byte offset where decoding stopped.
    Integers are zigzag varints, floats are exact IEEE-754 bit
    patterns, so [decode (encode x) = x] holds for every item
    (QCheck-verified in [test/test_flight.ml]).

    Two payload shapes share the stream: a generic {!Sink.record}
    (e.g. [Multicore.Runner]'s per-domain [mc.do] instants, encoded
    with {!encode}) and a compact executor event (written by the lean
    {!probe} — the always-on write path, small enough to stay under
    the E19 overhead gate).  {!record_of_item} renders both into
    {!Sink.record} form for uniform querying. *)

val magic : string
(** ["AMOJ"]. *)

val version : int
val header : string
(** [magic] plus the version byte; prefixes every segment file. *)

type item =
  | Record of Sink.record
  | Event of { step : int; event : Shm.Event.t }

(** {2 Codec} *)

val encode : item -> string
(** One framed record (no file header). *)

type damage = { offset : int; reason : string }
(** Where decoding stopped: [offset] is the byte offset (within the
    input as given, header included for {!decode_file}) of the first
    byte of the damaged record. *)

val decode_string : ?base:int -> string -> item list * damage option
(** Decode a raw framed-record stream (no file header).  Returns every
    complete, checksum-valid record before the first damage; [base]
    (default 0) offsets reported damage positions.  Never raises: a
    frame whose checksum holds but whose payload does not parse (a bad
    tag, a negative or oversized element count) is damage too. *)

val decode_file : string -> (item list * damage option, string) result
(** Read one segment file: validates the header (wrong magic or
    version is [Error], not damage), then {!decode_string}. *)

(** {2 Write paths} *)

val probe : Flight.t -> Shm.Probe.t
(** The lean always-on write path: encodes each executor event as a
    compact {!Event} item straight into the flight's open segment
    (checksum folded in as bytes are written, no copy, no item
    record), skipping the phase lookup
    ([needs_phase = false]) and the per-event {!Sink.record}
    construction.  This is the path the E19
    bench holds under 5% overhead versus a null probe. *)

(** {2 Dumps} *)

val dump :
  ?trigger:string ->
  ?extra:(string * Json.t) list ->
  dir:string ->
  Flight.t ->
  string
(** Persist the flight's retained segments into [dir] (created if
    missing): each segment becomes [segment-NNN.amoj] (header plus raw
    bytes), then [manifest.json] lists the segment files with their
    record counts alongside the flight's drop counters, the [trigger]
    (e.g. ["violation"], ["on-demand"]) and any [extra] metadata.
    Every file is written atomically ([Util.Files.write]) with
    the manifest last, so a manifest's presence implies a complete
    dump.  Returns the manifest path. *)

val load_dump : string -> (item list * (string * damage) list, string) result
(** Read a dump back: [path] is either a dump directory (segments are
    read in manifest order) or a single segment file.  Returns all
    decoded items plus per-file damage reports ([(file, damage)];
    empty means a clean decode).  [Error] on unreadable input or a
    bad header/manifest. *)

(** {2 Offline engine} *)

val record_of_item : item -> Sink.record
(** {!Record} unwraps; {!Event} renders via {!Bridge.record_of_event}
    (no phase — the lean probe does not capture it). *)

val to_trace : item list -> Shm.Trace.t
(** Rebuild a [`Full] trace from the {!Event} items (generic
    {!Record}s are not executor events and are skipped) — the bridge
    back into every trace consumer: {!Span.causal_chain} for
    [trace query --why], {!Chrome_trace} for [trace decode]. *)

val merge : item list array -> (int * item) list
(** Merge per-domain journals into one stream, tagged with the source
    journal's index: at each point the head with the least
    [(ts, pid, source index)] goes next, so merging the same journals
    always yields the same stream, and each input keeps its own order.
    [Multicore.Runner]'s per-domain journals share one fetch-and-add
    [ts], which makes their merge the global emission order. *)
