(* The probe layer lives in shm so the executor can stream events
   without depending on this library; this module connects it to the
   verdict engine and renders events as generic records for the
   offline journal tools. *)

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

let record_of_event ~step ev =
  Sink.record ~ts:step ~dur:1 ~pid:(Shm.Event.pid ev) ~kind:(kind_of_event ev)
    ~args:(args_of_event ev) (name_of_event ev)

let monitor_probe ?(fail_fast = false) monitor =
  Shm.Probe.make ~needs_phase:false (fun ~step:_ ~phase:_ ev ->
      match ev with
      | Shm.Event.Read _ | Shm.Event.Write _ | Shm.Event.Internal _
      | Shm.Event.Pick _ | Shm.Event.Announce _ | Shm.Event.Forfeit _
      | Shm.Event.Recover _ ->
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
