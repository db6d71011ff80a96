(* Adapters from the generic Shm.Probe seam to obs consumers.  The
   probe layer lives in shm so the executor can stream events without
   depending on this library; these constructors close the loop. *)

let kind_of_event (e : Shm.Event.t) =
  match e with
  | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _
  | Shm.Event.Pick _ | Shm.Event.Announce _ | Shm.Event.Forfeit _
  | Shm.Event.Recover _ ->
      Sink.Instant
  | _ -> Sink.Span

let name_of_event (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do { job; _ } -> Printf.sprintf "do(%d)" job
  | Shm.Event.Crash _ -> "crash"
  | Shm.Event.Restart _ -> "restart"
  | Shm.Event.Terminate _ -> "terminate"
  | Shm.Event.Read { cell; _ } -> "read " ^ cell
  | Shm.Event.Write { cell; _ } -> "write " ^ cell
  | Shm.Event.Internal { action; _ } -> action
  | Shm.Event.Pick { job; _ } -> Printf.sprintf "pick(%d)" job
  | Shm.Event.Announce { job; _ } -> Printf.sprintf "announce(%d)" job
  | Shm.Event.Forfeit { job; _ } -> Printf.sprintf "forfeit(%d)" job
  | Shm.Event.Recover { job; _ } -> Printf.sprintf "recover(%d)" job

let args_of_event (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do { job; _ } -> [ ("job", Json.Int job) ]
  | Shm.Event.Crash _ | Shm.Event.Restart _ | Shm.Event.Terminate _ -> []
  | Shm.Event.Read { cell; value; wid; _ } | Shm.Event.Write { cell; value; wid; _ }
    ->
      ("cell", Json.String cell) :: ("value", Json.Int value)
      :: (if wid > 0 then [ ("wid", Json.Int wid) ] else [])
  | Shm.Event.Internal { action; _ } -> [ ("action", Json.String action) ]
  | Shm.Event.Pick { job; free_card; try_card; _ } ->
      [
        ("job", Json.Int job);
        ("free", Json.Int free_card);
        ("try", Json.Int try_card);
      ]
  | Shm.Event.Announce { job; _ } -> [ ("job", Json.Int job) ]
  | Shm.Event.Forfeit { job; hit; owner; _ } ->
      [
        ("job", Json.Int job);
        ("hit", Json.String hit);
        ("owner", Json.Int owner);
      ]
  | Shm.Event.Recover { job; _ } -> [ ("job", Json.Int job) ]

let record_of_event ~step ?phase ev =
  let args = args_of_event ev in
  let args =
    match phase with
    | Some ph -> ("phase", Json.String ph) :: args
    | None -> args
  in
  Sink.record ~ts:step ~dur:1 ~pid:(Shm.Event.pid ev) ~kind:(kind_of_event ev)
    ~args (name_of_event ev)

let sink_probe sink =
  if Sink.is_null sink then Shm.Probe.null
  else
    Shm.Probe.make (fun ~step ~phase ev ->
        Sink.emit sink (record_of_event ~step ~phase ev))

let monitor_probe ?(fail_fast = false) monitor =
  Shm.Probe.make ~needs_phase:false (fun ~step:_ ~phase:_ ev ->
      match ev with
      | Shm.Event.Read _ | Shm.Event.Write _ | Shm.Event.Internal _
      | Shm.Event.Pick _ ->
          (* pre-filter the hot path: none of these can change a
             verdict (the monitor ignores them), so the per-event cost
             on a tight [`Silent] run stays one branch *)
          ()
      | ev -> (
          Monitor.observe monitor ev;
          if fail_fast then
            match ev with
            | Shm.Event.Do _ -> (
                (* only a Do can mint a new at-most-once violation, so
                   the check stays off the path of every other event *)
                match Monitor.tripped monitor with
                | Some v -> raise (Monitor.Tripped v)
                | None -> ())
            | _ -> ()))

let sketch_probe sketch =
  (* per-process Do-interval sketch: samples the step distance between
     a process's consecutive Do events — the live "how long does one
     job take" latency signal *)
  let last = Hashtbl.create 8 in
  Shm.Probe.make ~needs_phase:false (fun ~step ~phase:_ ev ->
      match ev with
      | Shm.Event.Do { p; _ } ->
          (match Hashtbl.find_opt last p with
          | Some prev -> Sketch.add sketch (step - prev)
          | None -> ());
          Hashtbl.replace last p step
      | _ -> ())

let profile_probe profile =
  Shm.Probe.make (fun ~step:_ ~phase ev ->
      let pid = Shm.Event.pid ev in
      match ev with
      | Shm.Event.Read _ -> Profile.add profile ~pid ~series:("read@" ^ phase) 1
      | Shm.Event.Write _ ->
          Profile.add profile ~pid ~series:("write@" ^ phase) 1
      | Shm.Event.Internal _ ->
          Profile.add profile ~pid ~series:("internal@" ^ phase) 1
      | Shm.Event.Do _ | Shm.Event.Crash _ | Shm.Event.Restart _
      | Shm.Event.Terminate _ | Shm.Event.Pick _ | Shm.Event.Announce _
      | Shm.Event.Forfeit _ | Shm.Event.Recover _ ->
          ())

let emit_metrics sink ?(ts = 0) metrics =
  if not (Sink.is_null sink) then
    for p = 1 to Shm.Metrics.m metrics do
      Sink.emit sink
        (Sink.record ~ts ~pid:p ~kind:Sink.Counter
           ~args:
             [
               ("reads", Json.Int (Shm.Metrics.reads metrics ~p));
               ("writes", Json.Int (Shm.Metrics.writes metrics ~p));
               ("internals", Json.Int (Shm.Metrics.internals metrics ~p));
               ("work", Json.Int (Shm.Metrics.work metrics ~p));
             ]
           "metrics")
    done
