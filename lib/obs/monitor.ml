(* The verdict engine: the one implementation of the paper's trace
   predicates, fed one event at a time — through the executor's probe
   seam while a run is live, or over a finished trace
   (Analysis.Oracle's checkers are folds of a fresh monitor).

   The predicates are at-most-once (reported the moment the repeat Do
   streams past), the recovery-aware effectiveness floor
   max 0 (n-(β+m-2)-r), and quiescence.  Effectiveness and quiescence
   only belong in the suite when β >= m (Lemma 4.3: termination is
   only guaranteed when a process may forfeit at most β >= m
   candidates); [suite] is where that gate is written. *)

type violation = { oracle : string; detail : string }

exception Tripped of violation

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
    life = Array.make (m + 1) Running;
    restarts = 0;
  }

let in_job t j = j >= 1 && j <= t.n
let in_proc t p = p >= 1 && p <= t.m

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
          :: t.stream_rev
  | Shm.Event.Crash { p } -> if in_proc t p then t.life.(p) <- Crashed
  | Shm.Event.Restart { p } ->
      t.restarts <- t.restarts + 1;
      if in_proc t p then t.life.(p) <- Running
  | Shm.Event.Terminate { p } -> if in_proc t p then t.life.(p) <- Terminated
  | Shm.Event.Announce _ | Shm.Event.Forfeit _ | Shm.Event.Recover _
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

let pp_violation fmt v = Format.fprintf fmt "[%s] %s" v.oracle v.detail
