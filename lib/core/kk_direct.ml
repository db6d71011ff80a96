type regs = {
  read_next : int -> int;
  write_next : int -> unit;
  read_done : int -> int -> int;
  write_done : int -> int -> unit;
}

type flag = { is_set : unit -> bool; set : unit -> unit }

(* Fig. 2, one process, with its register accesses in the automaton's
   (Kk) order.  Work charges mirror the simulator's, so measured work
   is comparable with Theorem 5.6's bound the same way E4's is. *)
let run ?flag regs ~policy ~budget ~ledger ~pid ~m ~beta ~cols ~free ~perform =
  let log_unit = Params.log2_ceil (max 2 cols) in
  (* [free] holds FREE and TRY; DONE is initial FREE \ FREE (a job
     enters DONE exactly when it leaves FREE), so it needs no set *)
  Freeset.try_clear free;
  let pos = Array.make (m + 1) 1 in
  let count = ref 0 in
  let gather_try () =
    Freeset.try_clear free;
    for q = 1 to m do
      if q <> pid then begin
        let v = regs.read_next q in
        Shm.Metrics.on_read ledger ~p:pid;
        if v > 0 then begin
          Freeset.try_add v free;
          Shm.Metrics.add_work ledger ~p:pid log_unit
        end
      end
    done
  in
  let gather_done () =
    for q = 1 to m do
      if q <> pid then begin
        let continue = ref true in
        while !continue do
          if pos.(q) > cols then continue := false
          else begin
            let v = regs.read_done q pos.(q) in
            Shm.Metrics.on_read ledger ~p:pid;
            if v > 0 then begin
              Freeset.remove v free;
              pos.(q) <- pos.(q) + 1;
              Shm.Metrics.add_work ledger ~p:pid (2 * log_unit)
            end
            else continue := false
          end
        done
      end
    done
  in
  (* IterStepKK's termination: the flag is set (by us or observed);
     recompute TRY and DONE and output FREE \ TRY *)
  let finalize () =
    gather_try ();
    gather_done ();
    Freeset.remove_try free;
    free
  in
  let flag_seen () =
    match flag with
    | None -> false
    | Some f ->
        let set = f.is_set () in
        Shm.Metrics.on_read ledger ~p:pid;
        set
  in
  let rec loop () =
    if !count >= budget then free
    else if Freeset.diff_cardinal free < beta then begin
      match flag with
      | None -> free
      | Some f ->
          f.set ();
          Shm.Metrics.on_write ledger ~p:pid;
          finalize ()
    end
    else begin
      Shm.Metrics.on_internal ledger ~p:pid;
      Shm.Metrics.add_work ledger ~p:pid
        (Policy.work_cost ~try_cardinal:(Freeset.try_cardinal free)
           ~log_n:log_unit);
      let j = Policy.choose policy ~p:pid ~m free in
      regs.write_next j;
      Shm.Metrics.on_write ledger ~p:pid;
      gather_try ();
      gather_done ();
      Shm.Metrics.on_internal ledger ~p:pid;
      Shm.Metrics.add_work ledger ~p:pid (2 * log_unit);
      if Freeset.try_mem j free || not (Freeset.mem j free) then loop ()
      else if flag_seen () then finalize ()
      else begin
        (* do the job, then publish it *)
        perform j;
        incr count;
        Shm.Metrics.on_internal ledger ~p:pid;
        Shm.Metrics.add_work ledger ~p:pid 1;
        regs.write_done pos.(pid) j;
        Shm.Metrics.on_write ledger ~p:pid;
        Shm.Metrics.add_work ledger ~p:pid (2 * log_unit);
        Freeset.remove j free;
        pos.(pid) <- pos.(pid) + 1;
        loop ()
      end
    end
  in
  loop ()

(* Each level runs KK over the ranks 1..count of its super-jobs, so a
   level's FREE costs O(count) words whatever span its ids cover; a
   rank becomes an id only to perform it, and survivors map down to
   the next level's ranks directly. *)
let iterative ~hierarchy ~regs ~flag ~ledger ~pid ~m ~beta ~perform =
  let levels = Superjob.num_levels hierarchy in
  let free = ref (Freeset.interval 1 (Superjob.block_count hierarchy 0)) in
  for level = 0 to levels - 1 do
    let out =
      run ~flag:(flag level) (regs level) ~policy:Policy.Rank_split
        ~budget:max_int ~ledger ~pid ~m ~beta
        ~cols:(Superjob.block_count hierarchy level)
        ~free:!free
        ~perform:(fun r -> perform level (Superjob.id_of_rank hierarchy ~level r))
    in
    if level + 1 < levels then
      free :=
        Freeset.of_set (module Ostree)
          (Ostree.of_list
             (List.concat_map
                (fun r ->
                  let lo, hi = Superjob.child_ranks hierarchy ~level r in
                  List.init (hi - lo + 1) (fun i -> lo + i))
                (Freeset.elements out)))
  done
