type violation = Obs.Monitor.violation = { oracle : string; detail : string }

type t = { name : string; check : Shm.Trace.t -> violation list }

(* A predicate of Obs.Monitor, the one verdict engine, run over a fresh
   monitor fed the whole trace.  An oracle that takes no [n] sizes the
   monitor from the largest job the trace performs. *)
let of_monitor ?n ~m ~beta (name, verdict) =
  let check trace =
    let n =
      match n with
      | Some n -> n
      | None ->
          List.fold_left (fun acc (_, job) -> max acc job) 1
            (Shm.Trace.do_events trace)
    in
    let mon = Obs.Monitor.create ~n ~m ~beta () in
    Obs.Monitor.observe_trace mon trace;
    verdict mon
  in
  { name; check }

(* at-most-once reads neither m nor beta; pids only label performers *)
let at_most_once =
  of_monitor ~m:1 ~beta:1 ("at-most-once", Obs.Monitor.at_most_once)

let effectiveness ~floor =
  let name = "effectiveness" in
  let floor = max 0 floor in
  let check trace =
    let count = Core.Spec.do_count (Shm.Trace.do_events trace) in
    if count >= floor then []
    else
      [
        {
          oracle = name;
          detail =
            Printf.sprintf "%d distinct jobs performed, floor is %d" count
              floor;
        };
      ]
  in
  { name; check }

let kk_effectiveness ~n ~m ~beta = effectiveness ~floor:(n - (beta + m - 2))

let recovery_effectiveness ~n ~m ~beta =
  of_monitor ~n ~m ~beta
    ("recovery-effectiveness", Obs.Monitor.recovery_effectiveness)

let quiescence ~m = of_monitor ~m ~beta:m ("quiescence", Obs.Monitor.quiescence)

let suite ~n ~m ~beta =
  List.map (of_monitor ~n ~m ~beta) (Obs.Monitor.suite ~m ~beta)

let ledger_agreement ~n ~m ~beta =
  let name = "ledger-agreement" in
  let check trace =
    (* Rebuild the provenance ledger from the same trace and demand
       exact reconciliation with the effectiveness oracles: the fates
       partition the job universe, the performed count equals the
       spec's Do(α) measure, and the non-performed buckets stay within
       the recovery-aware bound β + m − 2 + r. *)
    let ledger = Obs.Ledger.of_trace ~n ~m trace in
    let c = Obs.Ledger.counts ledger in
    let do_count = Core.Spec.do_count (Shm.Trace.do_events trace) in
    let restarts = List.length (Shm.Trace.restarts trace) in
    let slack = (beta + m - 2) + restarts in
    let vio fmt = Printf.ksprintf (fun detail -> { oracle = name; detail }) fmt in
    let checks =
      [
        ( lazy (Obs.Ledger.reconciles ledger),
          lazy
            (vio
               "fates do not partition the universe: %d+%d+%d+%d+%d <> n=%d"
               c.Obs.Ledger.performed c.Obs.Ledger.forfeited c.Obs.Ledger.lost
               c.Obs.Ledger.recovered c.Obs.Ledger.violations n) );
        ( lazy (c.Obs.Ledger.violations = 0),
          lazy
            (vio "%d job(s) doubly performed: %s" c.Obs.Ledger.violations
               (String.concat "; "
                  (List.filter_map
                     (fun j -> Some (Obs.Ledger.explain ledger j))
                     (Obs.Ledger.violations ledger)))) );
        ( lazy (c.Obs.Ledger.performed = do_count),
          lazy
            (vio "ledger counts %d performed, spec Do(α) counts %d"
               c.Obs.Ledger.performed do_count) );
        ( lazy
            (c.Obs.Ledger.forfeited + c.Obs.Ledger.lost + c.Obs.Ledger.recovered
             <= slack
            || c.Obs.Ledger.performed >= n - slack),
          lazy
            (vio
               "%d jobs not performed (forfeited %d + lost %d + recovered %d) \
                exceeds the recovery floor slack β+m−2+r = %d"
               (c.Obs.Ledger.forfeited + c.Obs.Ledger.lost
              + c.Obs.Ledger.recovered)
               c.Obs.Ledger.forfeited c.Obs.Ledger.lost c.Obs.Ledger.recovered
               slack) );
      ]
    in
    List.filter_map
      (fun (ok, v) -> if Lazy.force ok then None else Some (Lazy.force v))
      checks
  in
  { name; check }

let check_all oracles trace =
  List.concat_map (fun o -> o.check trace) oracles

let pp_violation = Obs.Monitor.pp_violation

let assert_ok oracles trace =
  match check_all oracles trace with
  | [] -> ()
  | vs ->
      failwith
        (String.concat "; "
           (List.map (Format.asprintf "%a" pp_violation) vs))
