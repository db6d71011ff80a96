type stop_reason = Quiescent | Max_steps

type outcome = {
  steps : int;
  reason : stop_reason;
  trace : Trace.t;
}

let live_pids handles =
  let acc = ref [] in
  for i = Array.length handles - 1 downto 0 do
    if handles.(i).Automaton.alive () then acc := handles.(i).Automaton.pid :: !acc
  done;
  Array.of_list !acc

let live_footprints handles =
  let acc = ref [] in
  for i = Array.length handles - 1 downto 0 do
    let h = handles.(i) in
    if h.Automaton.alive () then
      acc := (h.Automaton.pid, h.Automaton.footprint ()) :: !acc
  done;
  Array.of_list !acc

(* Record and observe one step's events.  A plain recursion: a
   [List.iter] partial application would allocate a closure on every
   step. *)
let rec emit trace probe ~observing ~step ~phase = function
  | [] -> ()
  | ev :: rest ->
      Trace.record trace ~step ev;
      if observing then Probe.on_event probe ~step ~phase ev;
      emit trace probe ~observing ~step ~phase rest

let validate handles =
  if Array.length handles = 0 then invalid_arg "Executor.run: no processes";
  Array.iteri
    (fun i h ->
      ignore (Automaton.check h);
      if h.Automaton.pid <> i + 1 then
        invalid_arg "Executor.run: handles.(i) must have pid i+1")
    handles

let run ?max_steps ?(trace_level = `Outcomes) ?(probe = Probe.null) ?restarter
    ~scheduler ~adversary handles =
  validate handles;
  let observing = not (Probe.is_null probe) in
  (* A probe that ignores its phase argument (needs_phase = false)
     lets us skip the per-event phase () indirection too. *)
  let phased = observing && Probe.needs_phase probe in
  let nprocs = Array.length handles in
  let max_steps =
    match max_steps with
    | Some s -> s
    | None ->
        (* Far above any wait-free algorithm's need; only a safety net
           against accidental non-termination of buggy automata. *)
        1_000_000 * Array.length handles
  in
  let trace = Trace.create trace_level in
  let step = ref 0 in
  let reason = ref Quiescent in
  let finished = ref false in
  (* The per-iteration helpers are built once, here: a closure built
     inside the loop would be allocated on every step. *)
  let crash_victim p =
    if p >= 1 && p <= nprocs then begin
      let h = handles.(p - 1) in
      if h.Automaton.alive () then begin
        (* Capture the phase before [crash] discards it. *)
        let phase = if phased then h.Automaton.phase () else "" in
        h.Automaton.crash ();
        let ev = Event.Crash { p } in
        Trace.record trace ~step:!step ev;
        if observing then Probe.on_event probe ~step:!step ~phase ev
      end
    end
  in
  let record_restart p =
    if p >= 1 && p <= nprocs then begin
      let ev = Event.Restart { p } in
      Trace.record trace ~step:!step ev;
      if observing then Probe.on_event probe ~step:!step ~phase:"restart" ev
    end
  in
  (* The live set as of the last iteration: [live.(i)] is the last
     [alive ()] of handles.(i), [alive] the sorted live pids handed to
     the scheduler.  Every iteration still asks every handle, in pid
     order, but builds a new array only when an answer changed; the
     array a scheduler has seen is never mutated. *)
  let live = Array.make nprocs false in
  let alive = ref [||] in
  let refresh_live () =
    let changed = ref false and count = ref 0 in
    for i = 0 to nprocs - 1 do
      let a = handles.(i).Automaton.alive () in
      if a <> live.(i) then begin
        live.(i) <- a;
        changed := true
      end;
      if a then incr count
    done;
    if !changed then begin
      let pids = Array.make !count 0 in
      let k = ref 0 in
      for i = 0 to nprocs - 1 do
        if live.(i) then begin
          pids.(!k) <- i + 1;
          incr k
        end
      done;
      alive := pids
    end
  in
  while not !finished do
    List.iter crash_victim (Adversary.decide adversary ~step:!step ~handles);
    (match restarter with
    | None -> ()
    | Some restart -> List.iter record_restart (restart ~step:!step ~handles));
    refresh_live ();
    let alive = !alive in
    if Array.length alive = 0 then finished := true
    else if !step >= max_steps then begin
      reason := Max_steps;
      finished := true
    end
    else begin
      let p = Schedule.choose scheduler ~alive in
      let h = handles.(p - 1) in
      (* The phase is read before the step moves the automaton on;
         with a null or phase-blind probe we skip it — [phase ()] may
         allocate. *)
      let phase = if phased then h.Automaton.phase () else "" in
      let events = h.Automaton.step () in
      emit trace probe ~observing ~step:!step ~phase events;
      incr step
    end
  done;
  { steps = !step; reason = !reason; trace }
