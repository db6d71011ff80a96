open Shm

type mode = Kk_intf.mode = Standalone | Iter_step of { keep_try : bool }

module type S = Kk_intf.S

module Make (Set : Set_intf.S) = struct
  type set = Set.t

type shared = {
  next : Memory.vector;
  done_m : Memory.matrix;
  flag : Register.t option;
  sh_metrics : Metrics.t;
  sh_m : int;
  log_unit : int; (* the O(log n) work charge of one tree operation *)
}

let make_shared ~metrics ~m ~capacity ?(with_flag = false) ~name () =
  if capacity < 1 then invalid_arg "Kk.make_shared: capacity must be >= 1";
  {
    next = Memory.vector ~metrics ~name:(name ^ ".next") ~len:m ~init:0;
    done_m =
      Memory.matrix ~metrics ~name:(name ^ ".done") ~rows:m ~cols:capacity
        ~init:0;
    flag =
      (if with_flag then
         Some (Register.create ~metrics ~name:(name ^ ".flag") ~init:0)
       else None);
    sh_metrics = metrics;
    sh_m = m;
    log_unit = Params.log2_ceil (max 2 capacity);
  }

let flag_value shared =
  match shared.flag with
  | Some f -> Register.peek f
  | None -> invalid_arg "Kk.flag_value: level has no termination flag"

type status =
  | Comp_next
  | Set_next
  | Gather_try
  | Gather_done
  | Check
  | Read_flag
  | Do_job
  | Done_write
  | Set_flag
  | Rec_scan
  | Rec_next
  | Rec_mark
  | End
  | Stop

let status_to_string = function
  | Comp_next -> "comp_next"
  | Set_next -> "set_next"
  | Gather_try -> "gather_try"
  | Gather_done -> "gather_done"
  | Check -> "check"
  | Read_flag -> "read_flag"
  | Do_job -> "do"
  | Done_write -> "done"
  | Set_flag -> "set_flag"
  | Rec_scan -> "rec_scan"
  | Rec_next -> "rec_next"
  | Rec_mark -> "rec_mark"
  | End -> "end"
  | Stop -> "stop"

type t = {
  shared : shared;
  pid : int;
  beta : int;
  policy : Policy.t;
  mode : mode;
  collision : Collision.t option;
  perform : p:int -> int -> Event.t list;
  perform_work : int -> int;
  perform_footprint : int -> Footprint.t;
  mutant_skip_check : bool;
  mutant_skip_recovery_mark : bool;
  verbose : bool;
  provenance : bool;
  blame : bool; (* populate try_owner/done_owner (collision or provenance) *)
  mutable status : status;
  sets : Freeset.t;
  (* FREE and TRY.  No DONE set: in Fig. 2 a job enters DONE exactly
     when it leaves FREE, so DONE = initial FREE \ FREE, and a
     candidate drawn from FREE is outside DONE iff it is still in
     FREE. *)
  pos : int array; (* pos.(q), 1-based, next cell of row q to read/write *)
  mutable next_j : int;
  mutable q : int;
  mutable finalizing : bool; (* IterStepKK termination re-gather in progress *)
  mutable n_done : int;
  mutable n_collisions : int;
  mutable rec_suspect : int;
  mutable n_restarts : int;
  (* blame bookkeeping, active when [collision] is provided *)
  try_owner : (int, int) Hashtbl.t;
  done_owner : (int, int) Hashtbl.t;
}

let default_perform ~p item = [ Event.Do { p; job = item } ]

let create ~shared ~pid ~beta ~policy ~free ?collision
    ?(perform = default_perform) ?(perform_work = fun _ -> 1)
    ?perform_footprint ?(mutant_skip_check = false)
    ?(mutant_skip_recovery_mark = false) ?(verbose = false)
    ?(provenance = false) ~mode () =
  if pid < 1 || pid > shared.sh_m then invalid_arg "Kk.create: pid out of range";
  if beta < 1 then invalid_arg "Kk.create: beta must be >= 1";
  (match (mode, shared.flag) with
  | Iter_step _, None ->
      invalid_arg "Kk.create: Iter_step mode needs a shared flag"
  | _ -> ());
  let perform_footprint =
    match perform_footprint with
    | Some f -> f
    | None ->
        (* the default perform only emits a [Do] event; anything
           caller-supplied may touch shared memory we cannot see *)
        if perform == default_perform then fun _ -> Footprint.Internal
        else fun _ -> Footprint.Unknown
  in
  {
    shared;
    pid;
    beta;
    policy;
    mode;
    collision;
    perform;
    perform_work;
    perform_footprint;
    mutant_skip_check;
    mutant_skip_recovery_mark;
    verbose;
    provenance;
    blame = Option.is_some collision || provenance;
    status = Comp_next;
    (* the caller's set is converted, not kept: FREE lives in [sets] *)
    sets = Freeset.of_set (module Set) free;
    pos = Array.make (shared.sh_m + 1) 1;
    next_j = 0;
    q = 1;
    finalizing = false;
    n_done = 0;
    n_collisions = 0;
    rec_suspect = 0;
    n_restarts = 0;
    try_owner = Hashtbl.create 16;
    done_owner = Hashtbl.create 64;
  }

let metrics t = t.shared.sh_metrics
let m t = t.shared.sh_m
let cols t = Memory.matrix_cols t.shared.done_m

let internal_event t action =
  if t.verbose then [ Event.Internal { p = t.pid; action } ] else []

(* Events are built only when the run asks for them ([verbose] for
   register accesses, [provenance] for job lifecycle), and only inside
   that branch: a quiet step neither formats a cell name (a [sprintf])
   nor allocates a record it would drop.  An access event is built
   right after its access, so a write reports its own write-id. *)
let access_event t ~write cell value ~wid =
  if write then Event.Write { p = t.pid; cell; value; wid }
  else Event.Read { p = t.pid; cell; value; wid }

let next_event t ~write q value =
  if t.verbose then
    [
      access_event t ~write
        (Memory.vname t.shared.next ~cell:q)
        value
        ~wid:(Memory.vwid t.shared.next q);
    ]
  else []

let done_event t ~write ~row ~col value =
  if t.verbose then
    [
      access_event t ~write
        (Memory.mname t.shared.done_m ~row ~col)
        value
        ~wid:(Memory.mwid t.shared.done_m row col);
    ]
  else []

let flag_event t ~write flag value =
  if t.verbose then
    [ access_event t ~write (Register.name flag) value ~wid:(Register.wid flag) ]
  else []

(* Start the IterStepKK termination sequence: recompute TRY and DONE
   from shared memory, then produce the output set. *)
let enter_final_gather t =
  t.finalizing <- true;
  Freeset.try_clear t.sets;
  Hashtbl.reset t.try_owner;
  t.q <- 1;
  t.status <- Gather_try

let finish_iter_step t =
  t.status <- End;
  [ Event.Terminate { p = t.pid } ]

let step_comp_next t =
  Metrics.on_internal (metrics t) ~p:t.pid;
  Metrics.add_work (metrics t) ~p:t.pid
    (Policy.work_cost ~try_cardinal:(Freeset.try_cardinal t.sets)
       ~log_n:t.shared.log_unit);
  let avail = Freeset.diff_cardinal t.sets in
  if avail >= t.beta then begin
    t.next_j <- Policy.choose t.policy ~p:t.pid ~m:(m t) t.sets;
    let pick =
      if t.provenance then
        [
          Event.Pick
            {
              p = t.pid;
              job = t.next_j;
              free_card = Freeset.cardinal t.sets;
              try_card = Freeset.try_cardinal t.sets;
            };
        ]
      else []
    in
    Freeset.try_clear t.sets;
    Hashtbl.reset t.try_owner;
    t.q <- 1;
    t.status <- Set_next;
    internal_event t "comp_next" @ pick
  end
  else begin
    match t.mode with
    | Standalone ->
        t.status <- End;
        [ Event.Terminate { p = t.pid } ]
    | Iter_step _ ->
        t.status <- Set_flag;
        internal_event t "comp_next->set_flag"
  end

let step_set_flag t =
  let flag = Option.get t.shared.flag in
  Register.write flag ~p:t.pid 1;
  let ev = flag_event t ~write:true flag 1 in
  enter_final_gather t;
  ev

let step_set_next t =
  Memory.vset t.shared.next ~p:t.pid t.pid t.next_j;
  let ev = next_event t ~write:true t.pid t.next_j in
  t.q <- 1;
  t.status <- Gather_try;
  if t.provenance then ev @ [ Event.Announce { p = t.pid; job = t.next_j } ]
  else ev

let step_gather_try t =
  let ev =
    if t.q <> t.pid then begin
      let v = Memory.vget t.shared.next ~p:t.pid t.q in
      if v > 0 then begin
        Freeset.try_add v t.sets;
        if t.blame then Hashtbl.replace t.try_owner v t.q;
        Metrics.add_work (metrics t) ~p:t.pid t.shared.log_unit
      end;
      next_event t ~write:false t.q v
    end
    else begin
      Metrics.on_internal (metrics t) ~p:t.pid;
      internal_event t "gather_try(skip self)"
    end
  in
  if t.q + 1 <= m t then t.q <- t.q + 1
  else begin
    t.q <- 1;
    t.status <- Gather_done
  end;
  ev

let step_gather_done t =
  let ev =
    if t.q <> t.pid && t.pos.(t.q) <= cols t then begin
      let c = t.pos.(t.q) in
      let v = Memory.mget t.shared.done_m ~p:t.pid t.q c in
      let ev = done_event t ~write:false ~row:t.q ~col:c v in
      if v > 0 then begin
        Freeset.remove v t.sets;
        if t.blame && not (Hashtbl.mem t.done_owner v) then
          Hashtbl.add t.done_owner v t.q;
        t.pos.(t.q) <- c + 1;
        Metrics.add_work (metrics t) ~p:t.pid (2 * t.shared.log_unit)
      end
      else t.q <- t.q + 1;
      ev
    end
    else begin
      Metrics.on_internal (metrics t) ~p:t.pid;
      t.q <- t.q + 1;
      internal_event t "gather_done(skip)"
    end
  in
  if t.q > m t then begin
    t.q <- 1;
    if t.finalizing then ev @ finish_iter_step t
    else begin
      t.status <- Check;
      ev
    end
  end
  else ev

let record_collision t =
  t.n_collisions <- t.n_collisions + 1;
  match t.collision with
  | None -> ()
  | Some c ->
      (* Definition 5.2: a TRY hit is attributed first; a DONE hit is a
         collision only when the job is not in TRY. *)
      let blame =
        if Freeset.try_mem t.next_j t.sets then
          Hashtbl.find_opt t.try_owner t.next_j
        else Hashtbl.find_opt t.done_owner t.next_j
      in
      (match blame with
      | Some q when q <> t.pid -> Collision.record c ~p:t.pid ~q ~job:t.next_j
      | _ -> ())

let step_check t =
  Metrics.on_internal (metrics t) ~p:t.pid;
  Metrics.add_work (metrics t) ~p:t.pid (2 * t.shared.log_unit);
  let safe =
    t.mutant_skip_check
    || (not (Freeset.try_mem t.next_j t.sets))
       && Freeset.mem t.next_j t.sets
  in
  if safe then begin
    (match t.mode with
    | Standalone -> t.status <- Do_job
    | Iter_step _ -> t.status <- Read_flag);
    internal_event t "check(ok)"
  end
  else begin
    record_collision t;
    let forfeit =
      if t.provenance then
        let hit, owner =
          if Freeset.try_mem t.next_j t.sets then
            ("try", Option.value ~default:0 (Hashtbl.find_opt t.try_owner t.next_j))
          else
            ("done", Option.value ~default:0 (Hashtbl.find_opt t.done_owner t.next_j))
        in
        [ Event.Forfeit { p = t.pid; job = t.next_j; hit; owner } ]
      else []
    in
    t.status <- Comp_next;
    internal_event t "check(collision)" @ forfeit
  end

let step_read_flag t =
  let flag = Option.get t.shared.flag in
  let v = Register.read flag ~p:t.pid in
  let ev = flag_event t ~write:false flag v in
  if v = 1 then enter_final_gather t else t.status <- Do_job;
  ev

let step_do t =
  Metrics.on_internal (metrics t) ~p:t.pid;
  Metrics.add_work (metrics t) ~p:t.pid (t.perform_work t.next_j);
  t.n_done <- t.n_done + 1;
  t.status <- Done_write;
  t.perform ~p:t.pid t.next_j

let step_done_write t =
  let c = t.pos.(t.pid) in
  assert (c <= cols t);
  Memory.mset t.shared.done_m ~p:t.pid t.pid c t.next_j;
  let ev = done_event t ~write:true ~row:t.pid ~col:c t.next_j in
  Freeset.remove t.next_j t.sets;
  t.pos.(t.pid) <- c + 1;
  Metrics.add_work (metrics t) ~p:t.pid (2 * t.shared.log_unit);
  t.status <- Comp_next;
  ev

(* Crash-recovery (DESIGN.md §7).  A restarted process has lost all
   volatile state; it rebuilds a sound approximation purely from the
   shared registers before rejoining the protocol:

   - [rec_scan]: re-read its own [done] row cell by cell, recovering
     the persistent record of the jobs it completed;
   - [rec_next]: re-read its own [next] cell.  The announcement there
     may be a job it performed but crashed before recording (the
     Do_job -> Done_write window), so it cannot be trusted as free;
   - [rec_mark]: conservatively append that suspect announcement to
     its own [done] row {e without} performing it.  This burns at most
     one job per restart (the recovery-aware effectiveness floor
     subtracts one per restart) but restores Lemma 4.1's invariant
     that any possibly-performed job is recorded as done.

   After [rec_mark] the process re-enters [comp_next] with empty TRY
   and DONE; the normal gather phases re-learn everyone else's state.

   [mutant_skip_recovery_mark] is the seeded recovery-path fault for
   the test suite: it jumps from [rec_scan] straight to [comp_next],
   skipping the suspect check — exactly the unsound "restart without
   re-reading the announcement" shortcut, which chaos testing must
   catch as an at-most-once violation. *)

let rec_after_scan t =
  t.status <- (if t.mutant_skip_recovery_mark then Comp_next else Rec_next)

let step_rec_scan t =
  let c = t.pos.(t.pid) in
  if c <= cols t then begin
    let v = Memory.mget t.shared.done_m ~p:t.pid t.pid c in
    let ev = done_event t ~write:false ~row:t.pid ~col:c v in
    if v > 0 then begin
      Freeset.remove v t.sets;
      t.pos.(t.pid) <- c + 1;
      Metrics.add_work (metrics t) ~p:t.pid (2 * t.shared.log_unit)
    end
    else rec_after_scan t;
    ev
  end
  else begin
    Metrics.on_internal (metrics t) ~p:t.pid;
    rec_after_scan t;
    internal_event t "rec_scan(row full)"
  end

let step_rec_next t =
  let v = Memory.vget t.shared.next ~p:t.pid t.pid in
  let ev = next_event t ~write:false t.pid v in
  if v > 0 && Freeset.mem v t.sets then begin
    t.rec_suspect <- v;
    t.status <- Rec_mark
  end
  else t.status <- Comp_next;
  ev

let step_rec_mark t =
  let c = t.pos.(t.pid) in
  if c > cols t then begin
    (* own row exhausted: every job is already recorded somewhere in
       it, so the suspect cannot be unrecorded — nothing to mark *)
    Metrics.on_internal (metrics t) ~p:t.pid;
    t.rec_suspect <- 0;
    t.status <- Comp_next;
    internal_event t "rec_mark(row full)"
  end
  else begin
    Memory.mset t.shared.done_m ~p:t.pid t.pid c t.rec_suspect;
    let ev = done_event t ~write:true ~row:t.pid ~col:c t.rec_suspect in
    let recov =
      if t.provenance then [ Event.Recover { p = t.pid; job = t.rec_suspect } ]
      else []
    in
    Freeset.remove t.rec_suspect t.sets;
    t.pos.(t.pid) <- c + 1;
    Metrics.add_work (metrics t) ~p:t.pid (2 * t.shared.log_unit);
    t.rec_suspect <- 0;
    t.status <- Comp_next;
    ev @ recov
  end

let restart t =
  if t.status <> Stop then false
  else begin
    Freeset.reset t.sets;
    Hashtbl.reset t.try_owner;
    Hashtbl.reset t.done_owner;
    Array.fill t.pos 0 (Array.length t.pos) 1;
    t.next_j <- 0;
    t.q <- 1;
    t.finalizing <- false;
    t.rec_suspect <- 0;
    t.n_restarts <- t.n_restarts + 1;
    t.status <- Rec_scan;
    true
  end

let step t =
  match t.status with
  | Comp_next -> step_comp_next t
  | Set_flag -> step_set_flag t
  | Set_next -> step_set_next t
  | Gather_try -> step_gather_try t
  | Gather_done -> step_gather_done t
  | Check -> step_check t
  | Read_flag -> step_read_flag t
  | Do_job -> step_do t
  | Done_write -> step_done_write t
  | Rec_scan -> step_rec_scan t
  | Rec_next -> step_rec_next t
  | Rec_mark -> step_rec_mark t
  | End | Stop -> invalid_arg "Kk.step: process has no enabled action"

(* The footprint mirrors [step] case by case: which cell would the
   next action touch?  Must stay in lock-step with the step functions
   above — the explorer's independence relation is only as sound as
   this map. *)
let footprint t =
  match t.status with
  | Comp_next | Check -> Footprint.Internal
  | Set_flag -> Footprint.Write (Register.name (Option.get t.shared.flag))
  | Read_flag -> Footprint.Read (Register.name (Option.get t.shared.flag))
  | Set_next -> Footprint.Write (Memory.vname t.shared.next ~cell:t.pid)
  | Gather_try ->
      if t.q <> t.pid then
        Footprint.Read (Memory.vname t.shared.next ~cell:t.q)
      else Footprint.Internal
  | Gather_done ->
      if t.q <> t.pid && t.pos.(t.q) <= cols t then
        Footprint.Read
          (Memory.mname t.shared.done_m ~row:t.q ~col:t.pos.(t.q))
      else Footprint.Internal
  | Do_job -> t.perform_footprint t.next_j
  | Done_write ->
      Footprint.Write
        (Memory.mname t.shared.done_m ~row:t.pid ~col:t.pos.(t.pid))
  | Rec_scan ->
      if t.pos.(t.pid) <= cols t then
        Footprint.Read
          (Memory.mname t.shared.done_m ~row:t.pid ~col:t.pos.(t.pid))
      else Footprint.Internal
  | Rec_next -> Footprint.Read (Memory.vname t.shared.next ~cell:t.pid)
  | Rec_mark ->
      if t.pos.(t.pid) <= cols t then
        Footprint.Write
          (Memory.mname t.shared.done_m ~row:t.pid ~col:t.pos.(t.pid))
      else Footprint.Internal
  | End | Stop -> Footprint.Internal

let status_code = function
  | Comp_next -> 0
  | Set_next -> 1
  | Gather_try -> 2
  | Gather_done -> 3
  | Check -> 4
  | Read_flag -> 5
  | Do_job -> 6
  | Done_write -> 7
  | Set_flag -> 8
  | Rec_scan -> 9
  | Rec_next -> 10
  | Rec_mark -> 11
  | End -> 12
  | Stop -> 13

(* Everything the process's future behavior can depend on: control
   status and local sets/cursors, plus the content hashes of the
   shared structures it reads.  Counters that only feed metrics
   accessors (n_done, n_collisions, n_restarts) are excluded — they
   never influence a step — and DONE needs no hash: FREE determines
   it.  FREE's hash is kept up to date by every remove, so the whole
   fingerprint costs O(m).  Blame tables are hashed commutatively
   because Hashtbl iteration order depends on insertion history. *)
let fingerprint t =
  let open Util.Mix in
  let h = combine (int 0x4B4B) (status_code t.status) in
  let h = combine h t.next_j in
  let h = combine h t.q in
  let h = bool h t.finalizing in
  let h = combine h t.rec_suspect in
  let h =
    combine h (combine (Freeset.cardinal t.sets) (Freeset.hash t.sets))
  in
  let h = combine h (Freeset.try_hash t.sets) in
  let h = Array.fold_left combine h t.pos in
  let h = combine h (Memory.vhash t.shared.next) in
  let h = combine h (Memory.mhash t.shared.done_m) in
  let h =
    match t.shared.flag with
    | None -> h
    | Some f -> combine h (Register.peek f)
  in
  let h =
    if t.blame then begin
      let owners tbl = Hashtbl.fold (fun k v acc -> acc lxor pair k v) tbl 0 in
      combine (combine h (owners t.try_owner)) (owners t.done_owner)
    end
    else h
  in
  Some h

let handle t =
  Automaton.check
    {
      Automaton.pid = t.pid;
      step = (fun () -> step t);
      alive = (fun () -> t.status <> End && t.status <> Stop);
      crash = (fun () -> if t.status <> End then t.status <- Stop);
      phase = (fun () -> status_to_string t.status);
      footprint = (fun () -> footprint t);
      fingerprint = (fun () -> fingerprint t);
    }

(* In Iter_step mode a process reaches End only through the final
   gather, and FREE and TRY stay as it left them. *)
let result t =
  match (t.mode, t.status) with
  | Iter_step { keep_try = true }, End ->
      Some (Set.of_list (Freeset.elements t.sets))
  | Iter_step { keep_try = false }, End ->
      Some (Set.of_list (Freeset.diff_elements t.sets))
  | _ -> None
let do_count t = t.n_done
let restart_count t = t.n_restarts
let collisions_detected t = t.n_collisions
let status_name t = status_to_string t.status
let free_set t = Set.of_list (Freeset.elements t.sets)
let try_set t = Set.of_list (Freeset.try_elements t.sets)
let done_set t = Set.of_list (Freeset.done_elements t.sets)
let announced t = t.next_j

end

include Make (Ostree)

let done_matrix shared = shared.done_m
