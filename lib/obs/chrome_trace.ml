(* Chrome trace_event format (the JSON array flavour understood by
   chrome://tracing and Perfetto).  Every trace_event object in the
   program is built here: [of_record] for records, [process] for the
   metadata that names a track.

   TIME UNITS: the executor's logical step counter is the only clock
   the simulator has.  The trace_event format requires [ts]/[dur] in
   microseconds, so we map 1 step = 1 µs verbatim — [ts] values ARE
   step indices, not wall time.  [displayTimeUnit] is only the UI's
   default zoom label; "ms" keeps whole runs visible at first paint.

   STRUCTURE: each simulated process is its own Chrome *process*
   (pid = simulator pid) carrying one thread, so Perfetto groups and
   labels tracks per process ("p1", "p2", ...) with explicit
   process_name / process_sort_index / thread_name metadata.  pid 0
   holds run-level data: the run-name metadata and the optional
   register-contention counter tracks (ph "C") from a {!Heatmap}. *)

(* Keys in one order: name, cat, then where and when by kind, then
   args.  Counters are per process, so they carry no tid. *)
let of_record ?cat (r : Sink.record) =
  let pid = ("pid", Json.Int r.pid) and ts = ("ts", Json.Int r.ts) in
  let at = [ pid; ("tid", Json.Int r.pid); ts ] and ph p = ("ph", Json.String p) in
  let body =
    match r.kind with
    | Sink.Span -> at @ [ ph "X"; ("dur", Json.Int r.dur) ]
    | Sink.Instant | Sink.Log -> at @ [ ph "i"; ("s", Json.String "t") ]
    | Sink.Counter -> [ ph "C"; pid; ts ]
  in
  let cat = match cat with None -> [] | Some c -> [ ("cat", Json.String c) ] in
  let args = if r.args = [] then [] else [ ("args", Json.Obj r.args) ] in
  Json.Obj ((("name", Json.String r.name) :: cat) @ body @ args)

let meta name pid args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int pid);
      ("ts", Json.Int 0);
      ("args", Json.Obj args);
    ]

let process ?thread ~pid name =
  meta "process_name" pid [ ("name", Json.String name) ]
  :: meta "process_sort_index" pid [ ("sort_index", Json.Int pid) ]
  :: Option.fold ~none:[]
       ~some:(fun t -> [ meta "thread_name" pid [ ("name", Json.String t) ] ])
       thread

let event_cat (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do _ -> "do"
  | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _ ->
      "lifecycle"
  | Shm.Event.Read _ -> "read"
  | Shm.Event.Write _ -> "write"
  | Shm.Event.Internal _ -> "internal"
  | Shm.Event.Pick _ | Shm.Event.Announce _ | Shm.Event.Forfeit _
  | Shm.Event.Recover _ ->
      "provenance"

(* A read or write span is named by its bare cell: the track already
   says who, the category says which access. *)
let entry_to_json { Shm.Trace.step; event } =
  let r = Bridge.record_of_event ~step event in
  let r =
    match event with
    | Shm.Event.Read { cell; _ } | Shm.Event.Write { cell; _ } ->
        { r with name = cell }
    | _ -> r
  in
  of_record ~cat:(event_cat event) r

(* Counter tracks on pid 0: one sample per occupied time bucket per
   register, at the bucket's first step.  Perfetto renders each
   register as a stacked reads/writes counter. *)
let counter_events heatmap =
  List.concat_map
    (fun (c : Heatmap.cell) ->
      List.map
        (fun (from_step, r, w) ->
          of_record ~cat:"heatmap"
            (Sink.record ~ts:from_step ~kind:Sink.Counter
               ~args:[ ("reads", Json.Int r); ("writes", Json.Int w) ]
               c.name))
        c.buckets)
    (Heatmap.cells heatmap)

let events ?(run_name = "amo run") ?heatmap ~m trace =
  process ~pid:0 run_name
  @ List.concat_map
      (fun p -> process ~thread:"actions" ~pid:p (Printf.sprintf "p%d" p))
      (List.init m (fun i -> i + 1))
  @ List.map entry_to_json (Shm.Trace.entries trace)
  @ match heatmap with None -> [] | Some h -> counter_events h

(* One event per line: diff-friendly goldens, still a single valid
   JSON document. *)
let to_string events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Json.to_string ev))
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_file ?run_name ?heatmap ?(extra = []) ~m ~path trace =
  Util.Files.write path (to_string (events ?run_name ?heatmap ~m trace @ extra))
