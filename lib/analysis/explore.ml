exception Max_steps_exceeded of { schedule : int list; steps : int }

type stats = {
  executions : int;
  fully_exhaustive : bool;
  domains : int;
  work_items : int;
  steals : int;
  cache : Fingerprint.stats option;
}

type execution = {
  schedule : int list;
  dos : (int * int) list;
  trace : Shm.Trace.t;
}

type strategy = Brute_force | Por

(* ---- one live instance being driven forward ---- *)

type inst = {
  handles : Shm.Automaton.handle array;
  trace : Shm.Trace.t;
  acc : Fingerprint.acc option; (* canonical do-prefix hash, when caching *)
  mutable stepno : int;
  mutable rev_sched : int list; (* pids stepped so far, reversed *)
}

let make_inst ?(fingerprint = false) factory =
  let handles = factory () in
  {
    handles;
    trace = Shm.Trace.create `Outcomes;
    acc =
      (if fingerprint then
         Some (Fingerprint.acc_create ~m:(Array.length handles))
       else None);
    stepno = 0;
    rev_sched = [];
  }

let step_inst ~max_steps inst p =
  if inst.stepno >= max_steps then
    raise
      (Max_steps_exceeded
         { schedule = List.rev inst.rev_sched; steps = inst.stepno });
  let events = inst.handles.(p - 1).Shm.Automaton.step () in
  List.iter (Shm.Trace.record inst.trace ~step:inst.stepno) events;
  Option.iter (fun acc -> Fingerprint.acc_feed acc events) inst.acc;
  inst.stepno <- inst.stepno + 1;
  inst.rev_sched <- p :: inst.rev_sched

let execution_of inst =
  {
    schedule = List.rev inst.rev_sched;
    dos = Shm.Trace.do_events inst.trace;
    trace = inst.trace;
  }

(* Finish deterministically (round-robin) — used beyond the branching
   budget and by [replay ~complete:true]. *)
let complete_round_robin ~max_steps inst =
  let sched = Shm.Schedule.round_robin () in
  let rec go () =
    let live = Shm.Executor.live_pids inst.handles in
    if Array.length live > 0 then begin
      step_inst ~max_steps inst (Shm.Schedule.choose sched ~alive:live);
      go ()
    end
  in
  go ()

(* ---- child planning ---- *)

type children =
  | Terminal
  | Covered
  | Children of (int * (int * Shm.Footprint.t) list) list

(* [sleep] is the sleep set: processes whose pending action was
   already explored from an equivalent state in an earlier sibling
   branch, each with the footprint that action had when it went to
   sleep (the process has not moved since, so the action — and its
   footprint — are unchanged).  Returns the children of the state in
   exploration order, each with its own sleep set. *)
let plan_children strategy ~sleep fps =
  if Array.length fps = 0 then Terminal
  else begin
    (* Persistent set: a pending Internal action touches no shared
       cell, so it commutes with every current and future action of
       every other process and stays enabled under them — exploring
       only it loses no trace class.  Otherwise all live processes. *)
    let persistent =
      match strategy with
      | Brute_force -> Array.to_list (Array.map fst fps)
      | Por -> (
          match
            Array.find_opt (fun (_, f) -> Shm.Footprint.is_local f) fps
          with
          | Some (p, _) -> [ p ]
          | None -> Array.to_list (Array.map fst fps))
    in
    let asleep p = List.exists (fun (q, _) -> q = p) sleep in
    let cands = List.filter (fun p -> not (asleep p)) persistent in
    match cands with
    | [] -> Covered (* all candidates asleep: subtree covered elsewhere *)
    | cands ->
        let fp_of p =
          let rec find i =
            if fst fps.(i) = p then snd fps.(i) else find (i + 1)
          in
          find 0
        in
        (* Plan every child before any in-place step mutates the node:
           child i sleeps on each earlier-explored sibling (and
           inherited sleeper) whose action is independent of child i's
           own action. *)
        let plans =
          let acc =
            ref (match strategy with Brute_force -> [] | Por -> sleep)
          in
          List.map
            (fun p ->
              let fp = fp_of p in
              let child_sleep =
                match strategy with
                | Brute_force -> []
                | Por ->
                    List.filter
                      (fun (_, f) -> Shm.Footprint.independent f fp)
                      !acc
              in
              acc := (p, fp) :: !acc;
              (p, child_sleep))
            cands
        in
        Children plans
  end

(* ---- the explorer ---- *)

(* A subtree not yet entered: the schedule prefix reaching it, plus
   the sleep set and branch count the recursion carries there.  A
   prefix replayed on a fresh instance re-materializes the subtree
   anywhere, so subtrees are self-contained work items. *)
type subtree = {
  rev_prefix : int list;
  sleep : (int * Shm.Footprint.t) list;
  branches : int;
  depth : int; (* List.length rev_prefix, cached *)
}

(* The frontier of a multi-domain run, in DFS preorder: expansion
   byproducts stay in place so the merge walks one array. *)
type item =
  | Done of execution (* completed during expansion *)
  | Sub of subtree (* a subtree for the workers *)
  | Poison of exn (* Max_steps_exceeded hit during expansion *)

(* Progress cadence for the debug log: power of two so the modulo is a
   mask, rare enough not to perturb timing. *)
let progress_every = 4096

(* frontier size per domain: enough subtrees for stealing to balance *)
let items_per_domain = 32

let explore ?(strategy = Por) ?(domains = 1)
    ?(fingerprint = false) ~factory ~branch_depth ~max_steps ~on_execution ()
    =
  if domains < 1 then invalid_arg "Explore.explore: domains must be >= 1";
  let table = if fingerprint then Some (Fingerprint.create ()) else None in
  let truncated = Atomic.make false in
  let replay_subtree o =
    let inst = make_inst ~fingerprint factory in
    List.iter (step_inst ~max_steps inst) (List.rev o.rev_prefix);
    inst
  in
  (* A hit means an equal-fingerprint node was already entered, and
     this subtree's canonical do-logs are (up to hash collision) a
     subset of that one's. *)
  let pruned inst sleep =
    match (table, inst.acc) with
    | Some tbl, Some acc -> (
        match
          Fingerprint.state ~handles:inst.handles ~stepno:inst.stepno
            ~do_hash:(Fingerprint.acc_hash acc) ~sleep
        with
        | Some fp -> Fingerprint.seen tbl fp
        | None -> false)
    | _ -> false
  in
  (* The one exploration recursion; completed executions go to [emit].
     At a branching state it either explores the children itself — the
     first in place, no replay; siblings on replayed instances — or,
     with [split], hands them over as unentered subtrees in child
     order.  The cache is consulted at node entry, so every node is
     consulted exactly once whichever side enters it. *)
  let rec node ~emit ~split inst sleep branches =
    if not (pruned inst sleep) then
      match
        plan_children strategy ~sleep
          (Shm.Executor.live_footprints inst.handles)
      with
      | Terminal -> emit (execution_of inst)
      | Covered | Children [] -> ()
      | Children (_ :: _ :: _) when branches >= branch_depth ->
          Atomic.set truncated true;
          complete_round_robin ~max_steps inst;
          emit (execution_of inst)
      | Children [ (p, sl) ] ->
          step_inst ~max_steps inst p;
          node ~emit ~split inst sl branches
      | Children ((p0, sl0) :: deferred as plans) -> (
          let branches = branches + 1 in
          let base_rev = inst.rev_sched and depth = inst.stepno + 1 in
          let child (p, sl) =
            { rev_prefix = p :: base_rev; sleep = sl; branches; depth }
          in
          match split with
          | Some hand_over -> hand_over (List.map child plans)
          | None ->
              step_inst ~max_steps inst p0;
              node ~emit ~split inst sl0 branches;
              List.iter
                (fun c ->
                  let o = child c in
                  node ~emit ~split (replay_subtree o) o.sleep branches)
                deferred)
  in
  let enter ~emit ?split o =
    node ~emit ~split (replay_subtree o) o.sleep o.branches
  in
  let root = { rev_prefix = []; sleep = []; branches = 0; depth = 0 } in
  let executions = ref 0 in
  let deliver e =
    incr executions;
    if !executions mod progress_every = 0 then
      Util.Logging.debug "explore: %d executions visited" !executions;
    on_execution e
  in
  let work_items, steals =
    if domains = 1 then begin
      (* the whole tree on the caller's domain, streaming *)
      enter ~emit:deliver root;
      (1, 0)
    end
    else begin
      (* ---- phase 1: grow a frontier of independent subtrees ----

         Repeatedly expand the shallowest open subtree: walk forward
         through single-child states in place and split at the first
         branching state into one subtree per child.  Expanding
         shallowest-first and replacing items in place keeps the
         frontier in DFS preorder, which is what makes the merge
         deterministic. *)
      let target = items_per_domain * domains in
      let expand o =
        let out = ref [] in
        match
          enter o
            ~emit:(fun e -> out := [ Done e ])
            ~split:(fun subs -> out := List.map (fun s -> Sub s) subs)
        with
        | () -> !out
        | exception (Max_steps_exceeded _ as e) -> [ Poison e ]
      in
      let count_subs its =
        List.length (List.filter (function Sub _ -> true | _ -> false) its)
      in
      let shallowest its =
        List.fold_left
          (fun b it ->
            match (it, b) with
            | Sub o, None -> Some o.depth
            | Sub o, Some d -> Some (min d o.depth)
            | _, b -> b)
          None its
      in
      let rec grow n its =
        match shallowest its with
        | None -> its
        | Some _ when n >= 64 * target || count_subs its >= target -> its
        | Some d ->
            let replaced = ref false in
            let its =
              List.concat_map
                (fun it ->
                  match it with
                  | Sub o when (not !replaced) && o.depth = d ->
                      replaced := true;
                      expand o
                  | it -> [ it ])
                its
            in
            grow (n + 1) its
      in
      let items = Array.of_list (grow 0 [ Sub root ]) in

      (* ---- phase 2: workers drain the frontier ----

         Subtrees are dealt round-robin onto per-domain deques; a
         worker pops its own and, when it runs dry, steals from the
         back of domain (wid + k) mod domains for k = 1, 2, ...  Each
         result slot is written by exactly one worker, and Domain.join
         orders those writes before the merge reads them. *)
      let n_items = Array.length items in
      let results = Array.make n_items ([] : execution list) in
      let exns = Array.make n_items (None : exn option) in
      let steals = Atomic.make 0 in
      let assign = Array.make domains [] in
      let n_subs = ref 0 in
      Array.iteri
        (fun i it ->
          match it with
          | Sub o ->
              let d = !n_subs mod domains in
              assign.(d) <- (i, o) :: assign.(d);
              incr n_subs
          | Done _ | Poison _ -> ())
        items;
      let deques =
        Array.map (fun l -> Multicore.Wsdeque.of_list (List.rev l)) assign
      in
      let run_sub (idx, o) =
        let buf = ref [] in
        (try enter o ~emit:(fun e -> buf := e :: !buf)
         with Max_steps_exceeded _ as e -> exns.(idx) <- Some e);
        results.(idx) <- List.rev !buf
      in
      let worker wid () =
        let rec next k =
          if k = 0 then
            match Multicore.Wsdeque.pop deques.(wid) with
            | Some s -> Some s
            | None -> next 1
          else if k >= domains then None
          else
            match Multicore.Wsdeque.steal deques.((wid + k) mod domains) with
            | Some s ->
                Atomic.incr steals;
                Some s
            | None -> next (k + 1)
        in
        let rec loop () =
          match next 0 with
          | None -> ()
          | Some s ->
              run_sub s;
              loop ()
        in
        loop ()
      in
      let doms = Array.init domains (fun wid -> Domain.spawn (worker wid)) in
      Array.iter Domain.join doms;

      (* ---- phase 3: deterministic merge, on the caller's domain ----

         Items are in DFS preorder and each buffer is in DFS order, so
         emitting them in sequence reproduces the one-domain stream
         exactly; which domain explored which subtree is invisible.  A
         recorded Max_steps_exceeded is re-raised at the position the
         one-domain walk would have raised it. *)
      Array.iteri
        (fun i it ->
          match it with
          | Done e -> deliver e
          | Poison e -> raise e
          | Sub _ ->
              List.iter deliver results.(i);
              Option.iter raise exns.(i))
        items;
      (!n_subs, Atomic.get steals)
    end
  in
  let stats =
    {
      executions = !executions;
      fully_exhaustive = not (Atomic.get truncated);
      domains;
      work_items;
      steals;
      cache = Option.map Fingerprint.stats table;
    }
  in
  Util.Logging.debug
    "explore: done, %d executions (exhaustive=%b) over %d items on %d \
     domains (%d steals)"
    stats.executions stats.fully_exhaustive stats.work_items stats.domains
    stats.steals;
  stats

(* ---- deterministic replay ---- *)

let replay ~factory ?(max_steps = 100_000) ?(complete = true) schedule =
  let inst = make_inst factory in
  List.iter
    (fun p ->
      if
        p >= 1
        && p <= Array.length inst.handles
        && inst.handles.(p - 1).Shm.Automaton.alive ()
      then step_inst ~max_steps inst p)
    schedule;
  if complete then complete_round_robin ~max_steps inst;
  execution_of inst

(* ---- canonical form modulo commutation ---- *)

let canonical_do_log dos =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p, job) ->
      let prev = try Hashtbl.find tbl p with Not_found -> [] in
      Hashtbl.replace tbl p (job :: prev))
    dos;
  Hashtbl.fold (fun p jobs acc -> (p, List.rev jobs) :: acc) tbl []
  |> List.sort compare

(* ---- counterexample shrinking ---- *)

(* Generic greedy delta-debugging: delete contiguous chunks, halving
   the chunk size, until no single element is removable while
   [violates] keeps holding.  [items] must violate already. *)
let ddmin ~violates items =
  let cur = ref (Array.of_list items) in
  let progress = ref true in
  while !progress do
    progress := false;
    let chunk = ref (max 1 (Array.length !cur / 2)) in
    while !chunk >= 1 do
      let i = ref 0 in
      while !i < Array.length !cur do
        let a = !cur in
        let len = Array.length a in
        let hi = min len (!i + !chunk) in
        let candidate =
          Array.append (Array.sub a 0 !i) (Array.sub a hi (len - hi))
        in
        if violates (Array.to_list candidate) then begin
          cur := candidate;
          progress := true
          (* retry the same position: the next chunk slid in *)
        end
        else i := !i + !chunk
      done;
      chunk := (if !chunk = 1 then 0 else !chunk / 2)
    done
  done;
  Array.to_list !cur

let shrink ~factory ?(max_steps = 100_000) ?(complete = true) ~violates
    schedule =
  let attempt sched =
    let e = replay ~factory ~max_steps ~complete sched in
    if violates e then Some e else None
  in
  match attempt schedule with
  | None -> None
  | Some e0 ->
      (* [best] tracks the execution of the last accepted candidate,
         which is exactly the replay of the final minimal schedule *)
      let best = ref e0 in
      let minimal =
        ddmin
          ~violates:(fun sched ->
            match attempt sched with
            | Some e ->
                best := e;
                true
            | None -> false)
          e0.schedule
      in
      Some (minimal, !best)

(* ---- oracle-driven checking ---- *)

type finding = { execution : execution; violations : Oracle.violation list }

type report = {
  stats : stats;
  findings : finding list;
  violating : int;
  shrunk : (int list * Oracle.violation list) option;
}

let max_findings = 64

let check ?(strategy = Por) ?(minimize = true) ?domains ?fingerprint ~factory ~branch_depth ~max_steps ~oracles () =
  let findings = ref [] in
  let n_findings = ref 0 in
  let violating = ref 0 in
  let seen = Hashtbl.create 64 in
  let stats =
    explore ~strategy ?domains ?fingerprint ~factory ~branch_depth
      ~max_steps
      ~on_execution:(fun (e : execution) ->
        match Oracle.check_all oracles e.trace with
        | [] -> ()
        | violations ->
            incr violating;
            Util.Logging.debug "explore: violation #%d (%s)" !violating
              (String.concat ", "
                 (List.map (fun v -> v.Oracle.oracle) violations));
            let key = canonical_do_log e.dos in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              if !n_findings < max_findings then begin
                incr n_findings;
                findings := { execution = e; violations } :: !findings
              end
            end)
      ()
  in
  let findings = List.rev !findings in
  let shrunk =
    match findings with
    | first :: _ when minimize ->
        let names =
          List.map (fun v -> v.Oracle.oracle) first.violations
        in
        let violates (e : execution) =
          List.exists
            (fun v -> List.mem v.Oracle.oracle names)
            (Oracle.check_all oracles e.trace)
        in
        Option.map
          (fun ((sched, e) : int list * execution) ->
            (sched, Oracle.check_all oracles e.trace))
          (shrink ~factory ~max_steps ~complete:true ~violates
             first.execution.schedule)
    | _ -> None
  in
  { stats; findings; violating = !violating; shrunk }
