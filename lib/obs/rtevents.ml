(* OCaml 5 Runtime_events consumer: the runtime-profiling half of the
   observability layer.

   Everything else in obs observes the *algorithm* (logical steps,
   ledgers, oracles); this module observes the *runtime* executing it
   — GC phases, per-ring (domain) lifecycle, runtime counters — by
   self-subscribing to the runtime's own tracing ring buffers, plus
   custom AMO phase events ([emit_begin]/[emit_end]) that instrumented
   components (the multicore runner, the chaos soak) write into the
   same stream, so algorithm phases and GC pauses land on one shared
   wall-clock timeline.

   Timestamps are monotonic nanoseconds from the runtime; a summary
   normalizes them to microseconds relative to the earliest event so
   they merge into the Chrome-trace export (which is natively µs) as
   dedicated "runtime" tracks, far away from the logical-step tracks.

   The writer side ([emit_begin]/[emit_end]/[with_span]) is safe to
   call whether or not collection is active: with no started runtime
   the write is a cheap no-op inside the runtime itself. *)

module RE = Runtime_events

type RE.User.tag += Amo_phase

(* User events must be registered once per name per process. *)
let user_events : (string, RE.Type.span RE.User.t) Hashtbl.t =
  Hashtbl.create 8

let user_span name =
  match Hashtbl.find_opt user_events name with
  | Some ev -> ev
  | None ->
      let ev = RE.User.register name Amo_phase RE.Type.span in
      Hashtbl.add user_events name ev;
      ev

let emit_begin name = RE.User.write (user_span name) RE.Type.Begin
let emit_end name = RE.User.write (user_span name) RE.Type.End

let with_span name f =
  emit_begin name;
  Fun.protect ~finally:(fun () -> emit_end name) f

(* ---- collection ---- *)

type span = { ring : int; name : string; start_us : int; dur_us : int }
type mark = { ring : int; ts_us : int; name : string }
type counter_sample = { ring : int; ts_us : int; name : string; value : int }

type summary = {
  spans : span list;  (** completed GC-phase and AMO-phase spans, by start *)
  marks : mark list;  (** ring/domain lifecycle instants *)
  counters : counter_sample list;
  events : int;  (** total callbacks delivered *)
  lost : int;  (** events overwritten before this consumer read them *)
}

(* Raw collected records carry the runtime's ns timestamps; the
   summary rebases them.  Spans are matched per (ring, name) with a
   stack, because runtime phases nest (e.g. a minor inside a major
   slice). *)
type t = {
  cursor : RE.cursor;
  mutable callbacks : RE.Callbacks.t;
  open_spans : (int * string, int64 list) Hashtbl.t;
  mutable raw_spans : (int * string * int64 * int64) list;  (* ring,name,t0,t1 *)
  mutable raw_marks : (int * string * int64) list;
  mutable raw_counters : (int * string * int64 * int) list;
  mutable events : int;
  mutable lost : int;
}

let started = ref false

let ns ts = RE.Timestamp.to_int64 ts

let on_begin t ring ts name =
  t.events <- t.events + 1;
  let key = (ring, name) in
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.open_spans key) in
  Hashtbl.replace t.open_spans key (ns ts :: stack)

let on_end t ring ts name =
  t.events <- t.events + 1;
  let key = (ring, name) in
  match Hashtbl.find_opt t.open_spans key with
  | Some (t0 :: rest) ->
      Hashtbl.replace t.open_spans key rest;
      t.raw_spans <- (ring, name, t0, ns ts) :: t.raw_spans
  | _ -> () (* end without begin: the begin predated the cursor *)

let start () =
  (* [RE.start] is once-per-process; a paused collection resumes *)
  if !started then RE.resume ()
  else begin
    RE.start ();
    started := true
  end;
  let t =
    {
      cursor = RE.create_cursor None;
      callbacks = RE.Callbacks.create ();
      open_spans = Hashtbl.create 32;
      raw_spans = [];
      raw_marks = [];
      raw_counters = [];
      events = 0;
      lost = 0;
    }
  in
  (* the callbacks close over [t] itself, so they are installed after
     the record exists *)
  t.callbacks <-
    RE.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        on_begin t ring ts (RE.runtime_phase_name phase))
      ~runtime_end:(fun ring ts phase ->
        on_end t ring ts (RE.runtime_phase_name phase))
      ~runtime_counter:(fun ring ts counter v ->
        t.events <- t.events + 1;
        t.raw_counters <-
          (ring, RE.runtime_counter_name counter, ns ts, v) :: t.raw_counters)
      ~lifecycle:(fun ring ts lc _ ->
        t.events <- t.events + 1;
        t.raw_marks <- (ring, RE.lifecycle_name lc, ns ts) :: t.raw_marks)
      ~lost_events:(fun _ring count -> t.lost <- t.lost + count)
      ()
    |> RE.Callbacks.add_user_event RE.Type.span (fun ring ts ev sp ->
           let name = RE.User.name ev in
           match sp with
           | RE.Type.Begin -> on_begin t ring ts name
           | RE.Type.End -> on_end t ring ts name);
  t

let poll t = RE.read_poll t.cursor t.callbacks None

(* Writer-side gates: suspend/restart collection while keeping the
   consumer (and its warm cursor) alive.  A soak can bracket only the
   phases it cares about; E18 uses these to time instrumented and
   uninstrumented batches against one long-lived consumer, because
   creating a cursor per measurement faults its ring pages into the
   timed region. *)
let pause () = if !started then RE.pause ()
let resume () = if !started then RE.resume ()

let stop t =
  ignore (poll t);
  RE.free_cursor t.cursor;
  RE.pause ();
  (* rebase to µs from the earliest timestamp seen *)
  let t0 =
    List.fold_left
      (fun acc x -> if Int64.compare x acc < 0 then x else acc)
      Int64.max_int
      (List.map (fun (_, _, a, _) -> a) t.raw_spans
      @ List.map (fun (_, _, ts) -> ts) t.raw_marks
      @ List.map (fun (_, _, ts, _) -> ts) t.raw_counters)
  in
  let us x = Int64.to_int (Int64.div (Int64.sub x t0) 1000L) in
  let spans =
    t.raw_spans
    |> List.rev_map (fun (ring, name, a, b) ->
           { ring; name; start_us = us a; dur_us = max 0 (us b - us a) })
    |> List.sort (fun a b ->
           compare (a.start_us, a.ring, a.name) (b.start_us, b.ring, b.name))
  in
  let marks =
    t.raw_marks
    |> List.rev_map (fun (ring, name, ts) -> { ring; ts_us = us ts; name })
    |> List.sort (fun (a : mark) b ->
           compare (a.ts_us, a.ring, a.name) (b.ts_us, b.ring, b.name))
  in
  let counters =
    t.raw_counters
    |> List.rev_map (fun (ring, name, ts, value) ->
           { ring; ts_us = us ts; name; value })
    |> List.sort (fun (a : counter_sample) b ->
           compare (a.ts_us, a.ring, a.name) (b.ts_us, b.ring, b.name))
  in
  { spans; marks; counters; events = t.events; lost = t.lost }

(* ---- aggregation ---- *)

let by_phase s =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (sp : span) ->
      let c, d = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl sp.name) in
      Hashtbl.replace tbl sp.name (c + 1, d + sp.dur_us))
    s.spans;
  Hashtbl.fold (fun name (c, d) acc -> (name, c, d) :: acc) tbl []
  |> List.sort compare

let rings s =
  List.sort_uniq compare
    (List.map (fun (sp : span) -> sp.ring) s.spans
    @ List.map (fun (m : mark) -> m.ring) s.marks
    @ List.map (fun (c : counter_sample) -> c.ring) s.counters)

let gc_phases = [ "minor"; "major_slice"; "major"; "stw_leader"; "minor_leave_barrier" ]

let total_gc_us s =
  List.fold_left
    (fun acc (name, _, d) -> if List.mem name gc_phases then acc + d else acc)
    0 (by_phase s)

(* GC pause-length distribution: one sketch sample per completed
   minor/major-slice span, in µs — log-bucketed like every other obs
   distribution. *)
let pause_sketch s =
  let sk = Sketch.create () in
  List.iter
    (fun (sp : span) ->
      if List.mem sp.name gc_phases then Sketch.add sk sp.dur_us)
    s.spans;
  sk

(* ---- rendering ---- *)

let summary_json (s : summary) =
  Json.Obj
    [
      ("events", Json.Int s.events);
      ("lost", Json.Int s.lost);
      ("rings", Json.List (List.map (fun r -> Json.Int r) (rings s)));
      ("total_gc_us", Json.Int (total_gc_us s));
      ( "phases",
        Json.List
          (List.map
             (fun (name, count, dur_us) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("count", Json.Int count);
                   ("total_us", Json.Int dur_us);
                 ])
             (by_phase s)) );
      ("gc_pause_us", Sketch.to_json (pause_sketch s));
    ]

(* Chrome-trace records for the runtime tracks: one synthetic process
   per ring at [base_pid + ring], so runtime activity renders beside —
   but clearly separate from — the logical-step tracks.  Wall-clock µs
   rebased to 0; these tracks are NOT byte-deterministic (they are
   real time), so they never appear in golden traces. *)
let base_pid = 1000

let trace_events s =
  let record ring ?dur ?args ~ts ~kind name =
    Chrome_trace.of_record ~cat:"runtime"
      (Sink.record ?dur ?args ~pid:(base_pid + ring) ~ts ~kind name)
  in
  List.concat_map
    (fun r ->
      Chrome_trace.process ~thread:"runtime events" ~pid:(base_pid + r)
        (Printf.sprintf "runtime/ring%d" r))
    (rings s)
  @ List.map
      (fun (sp : span) ->
        record sp.ring ~dur:(max 1 sp.dur_us) ~ts:sp.start_us ~kind:Sink.Span sp.name)
      s.spans
  @ List.map (fun (m : mark) -> record m.ring ~ts:m.ts_us ~kind:Sink.Instant m.name) s.marks
  @ List.map
      (fun (c : counter_sample) ->
        record c.ring ~args:[ ("value", Json.Int c.value) ] ~ts:c.ts_us ~kind:Sink.Counter
          c.name)
      s.counters

(* Counters into a Prometheus registry: headline totals plus the
   per-phase breakdown as labelled series and the pause distribution
   as a histogram. *)
let prom (s : summary) reg =
  let f = float_of_int in
  Prom.counter reg ~name:"amo_rt_events_total"
    ~help:"Runtime events delivered to the consumer" (f s.events);
  Prom.counter reg ~name:"amo_rt_lost_events_total"
    ~help:"Runtime events overwritten before the consumer read them"
    (f s.lost);
  Prom.counter reg ~name:"amo_rt_gc_time_us_total"
    ~help:"Total time in GC phases (microseconds)"
    (f (total_gc_us s));
  List.iter
    (fun (name, count, dur_us) ->
      Prom.counter reg ~name:"amo_rt_phase_count_total"
        ~help:"Completed runtime/AMO phase spans per phase"
        ~labels:[ ("phase", name) ]
        (f count);
      Prom.counter reg ~name:"amo_rt_phase_time_us_total"
        ~help:"Total span time per phase (microseconds)"
        ~labels:[ ("phase", name) ]
        (f dur_us))
    (by_phase s);
  Prom.of_sketch reg ~name:"amo_rt_gc_pause_us"
    ~help:"GC pause lengths (microseconds, quantile sketch)"
    (pause_sketch s)
