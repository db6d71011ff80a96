(* The verdict engine: the one implementation of the paper's trace
   predicates, fed one event at a time — through the executor's probe
   seam while a run is live, or over a finished trace
   (Analysis.Oracle's checkers are folds of a fresh monitor).

   The predicates are at-most-once (reported the moment the repeat Do
   streams past), the recovery-aware effectiveness floor
   max 0 (n-(β+m-2)-r), and quiescence.  Effectiveness and quiescence
   only belong in the suite when β >= m (Lemma 4.3: termination is
   only guaranteed when a process may forfeit at most β >= m
   candidates); [suite] is where that gate is written.

   Job-fate counts follow Obs.Ledger's precedence (dos beat recovers;
   lost-to-crash is a property of the final crash state) so a finished
   monitor agrees with Ledger.of_trace on the same trace. *)

type violation = { oracle : string; detail : string }

exception Tripped of violation

type fates = {
  performed : int;
  doubly : int;
  recovered : int;
  lost : int;
  forfeited : int;
}

(* A process's last lifecycle event: a restart re-opens a crashed
   process. *)
type life = Running | Crashed | Terminated

type t = {
  n : int;
  m : int;
  beta : int;
  (* First performer per job, 0 = not yet performed.  An int array
     (not a hashtable) keeps the per-Do path allocation-free — the
     executor's pids are >= 1, so 0 is unambiguous.  Jobs outside
     [1..n] (possible in a buggy run) go to the fallback table. *)
  first : int array;
  first_oob : (int, int) Hashtbl.t;
  mutable distinct : int; (* distinct jobs performed, Do(α) *)
  mutable stream_rev : violation list; (* at-most-once, newest first *)
  do_counts : int array; (* per in-range job *)
  recovers : bool array;
  announced : int array; (* per process: current candidate, 0 = none *)
  crashed : bool array; (* Ledger's crash state: only a restart clears it *)
  life : life array;
  mutable restarts : int;
}

let create ~n ~m ~beta () =
  if n < 1 then invalid_arg "Monitor.create: n must be >= 1";
  if m < 1 then invalid_arg "Monitor.create: m must be >= 1";
  {
    n;
    m;
    beta;
    first = Array.make (n + 1) 0;
    first_oob = Hashtbl.create 8;
    distinct = 0;
    stream_rev = [];
    do_counts = Array.make (n + 1) 0;
    recovers = Array.make (n + 1) false;
    announced = Array.make (m + 1) 0;
    crashed = Array.make (m + 1) false;
    life = Array.make (m + 1) Running;
    restarts = 0;
  }

let in_job t j = j >= 1 && j <= t.n
let in_proc t p = p >= 1 && p <= t.m

let clear_candidate t p job =
  if in_proc t p && t.announced.(p) = job then t.announced.(p) <- 0

let observe t event =
  match event with
  | Shm.Event.Do { p; job } ->
      (* the first performer is remembered, never displaced, and every
         repeat yields one violation, in event order *)
      let q =
        if in_job t job then t.first.(job)
        else match Hashtbl.find_opt t.first_oob job with
          | Some q -> q
          | None -> 0
      in
      if q = 0 then begin
        t.distinct <- t.distinct + 1;
        if in_job t job then t.first.(job) <- p
        else Hashtbl.replace t.first_oob job p
      end
      else
        t.stream_rev <-
          {
            oracle = "at-most-once";
            detail =
              Printf.sprintf "job %d performed again by p%d (first by p%d)"
                job p q;
          }
          :: t.stream_rev;
      if in_job t job then
        t.do_counts.(job) <- t.do_counts.(job) + 1;
      clear_candidate t p job
  | Shm.Event.Crash { p } ->
      if in_proc t p then begin
        t.crashed.(p) <- true;
        t.life.(p) <- Crashed
      end
  | Shm.Event.Restart { p } ->
      t.restarts <- t.restarts + 1;
      if in_proc t p then begin
        t.crashed.(p) <- false;
        t.life.(p) <- Running
      end
  | Shm.Event.Terminate { p } -> if in_proc t p then t.life.(p) <- Terminated
  | Shm.Event.Announce { p; job } -> if in_proc t p then t.announced.(p) <- job
  | Shm.Event.Forfeit { p; job; _ } -> clear_candidate t p job
  | Shm.Event.Recover { p; job } ->
      if in_job t job then t.recovers.(job) <- true;
      clear_candidate t p job
  | Shm.Event.Pick _ | Shm.Event.Read _ | Shm.Event.Write _
  | Shm.Event.Internal _ ->
      ()

let observe_trace t trace =
  List.iter (fun { Shm.Trace.event; _ } -> observe t event)
    (Shm.Trace.entries trace)

let at_most_once t = List.rev t.stream_rev
let tripped t = match List.rev t.stream_rev with [] -> None | v :: _ -> Some v
let distinct t = t.distinct

(* The theorems presume at most m-1 processes fail PERMANENTLY — some
   survivor remains to drain the work.  That is a runtime property,
   not a static one: a plan whose every crash is paired with a restart
   can still leave a process dead forever when the restart step lies
   beyond the run's actual end (the executor stops once no live pid
   remains, so pending restarts never fire).  When every process ends
   crashed there is no survivor for the theorem to charge, and the
   floor is vacuous.  Each restart may conservatively burn one job
   (the re-marked announcement, see Core.Kk.restart), so the floor
   degrades by one per observed restart. *)
let recovery_effectiveness t =
  let all_crashed = ref true in
  for p = 1 to t.m do
    if t.life.(p) <> Crashed then all_crashed := false
  done;
  let base = t.n - (t.beta + t.m - 2) in
  let floor = max 0 (base - t.restarts) in
  if !all_crashed || t.distinct >= floor then []
  else
    [
      {
        oracle = "recovery-effectiveness";
        detail =
          Printf.sprintf
            "%d distinct jobs performed, recovery floor is %d (base %d, %d \
             restarts)"
            t.distinct floor base t.restarts;
      };
    ]

let quiescence t =
  List.filter_map
    (fun p ->
      if t.life.(p) <> Running then None
      else
        Some
          {
            oracle = "quiescence";
            detail = Printf.sprintf "p%d neither terminated nor crashed" p;
          })
    (List.init t.m (fun i -> i + 1))

let suite ~m ~beta =
  ("at-most-once", at_most_once)
  ::
  (if beta >= m then
     [
       ("recovery-effectiveness", recovery_effectiveness);
       ("quiescence", quiescence);
     ]
   else [])

let finalize t =
  List.concat_map (fun (_, check) -> check t) (suite ~m:t.m ~beta:t.beta)

let fates t =
  let performed = ref 0 and doubly = ref 0 and recovered = ref 0 in
  for job = 1 to t.n do
    match t.do_counts.(job) with
    | 0 -> if t.recovers.(job) then incr recovered
    | 1 -> incr performed
    | _ -> incr doubly
  done;
  (* A job still announced by a currently-crashed process, never
     performed or re-marked, is lost to the crash (Ledger semantics:
     evaluated over the final crash state). *)
  let lost_flag = Array.make (t.n + 1) false in
  for p = 1 to t.m do
    if t.crashed.(p) && in_job t t.announced.(p) then
      lost_flag.(t.announced.(p)) <- true
  done;
  let lost = ref 0 in
  for job = 1 to t.n do
    if lost_flag.(job) && t.do_counts.(job) = 0 && not t.recovers.(job) then
      incr lost
  done;
  {
    performed = !performed;
    doubly = !doubly;
    recovered = !recovered;
    lost = !lost;
    forfeited = t.n - !performed - !doubly - !recovered - !lost;
  }

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.oracle v.detail
