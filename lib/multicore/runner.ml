type outcome = {
  dos : (int * int) list;
  per_process : int array;
  wall_seconds : float;
  metrics : Shm.Metrics.t;
}

(* Process [pid]'s view of one bank of shared registers: [next] (m
   atomic cells) and [done_l] (m append-only rows). *)
let atomic_regs ~pid next done_l =
  {
    Core.Kk_direct.read_next = (fun q -> Atomic_mem.vget next q);
    write_next = (fun v -> Atomic_mem.vset next pid v);
    read_done = (fun q c -> Atomic_mem.lget done_l q c);
    write_done = (fun c v -> Atomic_mem.lappend done_l pid c v);
  }

(* One domain's performed jobs (or super-job entries), in program
   order, in a flat growable int array. *)
type buf = { mutable data : int array; mutable len : int }

let buf capacity = { data = Array.make (max 1 capacity) 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* Runs one domain per process.  [spawn ~pid ledger] is called in the
   parent and returns the domain's body, which returns its buffer.
   [spawn] allocates every array the body needs, so a domain allocates
   next to nothing of its own (building FREE and the job buffer inside
   the domains read 3-4 MB more peak RSS over 30 s of mc-kk);
   [jobs_rev b f] calls [f] on each job of a joined domain's buffer in
   reverse program order.  Each domain owns a full-width ledger but
   only ever touches its own pid's cells, so counting is uncontended;
   the ledgers are merged after join. *)
let on_domains ~m ~spawn ~jobs_rev =
  let ledgers = Array.init m (fun _ -> Shm.Metrics.create ~m) in
  let t0 = Unix.gettimeofday () in
  let domains =
    Array.init m (fun i -> Domain.spawn (spawn ~pid:(i + 1) ledgers.(i)))
  in
  let bufs = Array.map Domain.join domains in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let metrics = Shm.Metrics.create ~m in
  Array.iter (Shm.Metrics.merge metrics) ledgers;
  let per_process = Array.make (m + 1) 0 in
  (* consed back to front: pid ascending, program order within a pid *)
  let dos = ref [] in
  for pid = m downto 1 do
    jobs_rev bufs.(pid - 1) (fun j ->
        dos := (pid, j) :: !dos;
        per_process.(pid) <- per_process.(pid) + 1)
  done;
  { dos = !dos; per_process; wall_seconds; metrics }

(* ---- IterativeKK(eps) on domains ---- *)

type level_shared = {
  lv_next : Atomic_mem.vector;
  lv_done : Atomic_mem.log;
  lv_flag : int Atomic.t;
}

let run_iterative ~n ~m ~epsilon_inv () =
  if m < 1 || n < m then invalid_arg "Runner.run_iterative: need 1 <= m <= n";
  if epsilon_inv < 1 then
    invalid_arg "Runner.run_iterative: epsilon_inv must be >= 1";
  let beta = 3 * m * m in
  let sizes = Core.Iterative.sizes ~n ~m ~epsilon_inv in
  let hierarchy = Core.Superjob.build ~n ~sizes in
  let levels =
    Array.init (Core.Superjob.num_levels hierarchy) (fun k ->
        {
          lv_next = Atomic_mem.vector ~len:m ~init:0;
          lv_done =
            Atomic_mem.log ~rows:m
              ~cols:(Core.Superjob.block_count hierarchy k);
          lv_flag = Atomic.make 0;
        })
  in
  let flag l =
    let f = levels.(l).lv_flag in
    { Core.Kk_direct.is_set = (fun () -> Atomic.get f = 1);
      set = (fun () -> Atomic.set f 1) }
  in
  (* a buffer holds (level, id) pairs flat; super-jobs are expanded
     into their constituent jobs after join *)
  let jobs_rev b f =
    for k = (b.len / 2) - 1 downto 0 do
      let lo, hi =
        Core.Superjob.interval hierarchy ~level:b.data.(2 * k)
          ~id:b.data.((2 * k) + 1)
      in
      for j = hi downto lo do
        f j
      done
    done
  in
  on_domains ~m ~jobs_rev ~spawn:(fun ~pid ledger ->
      let performed = buf 64 in
      fun () ->
        Core.Kk_direct.iterative ~hierarchy ~ledger ~pid ~m ~beta ~flag
          ~regs:(fun l ->
            atomic_regs ~pid levels.(l).lv_next levels.(l).lv_done)
          ~perform:(fun level id ->
            push performed level;
            push performed id);
        performed)

let run_kk ~n ~m ~beta ?(policy = fun ~pid:_ -> Core.Policy.Rank_split)
    ?(job_budget = fun ~pid:_ -> max_int) ?journals ?rtevents () =
  if m < 1 || n < m then invalid_arg "Runner.run_kk: need 1 <= m <= n";
  if beta < 1 then invalid_arg "Runner.run_kk: beta must be >= 1";
  (match journals with
  | Some j when Array.length j <> m ->
      invalid_arg "Runner.run_kk: journals must have one flight per domain"
  | _ -> ());
  let next = Atomic_mem.vector ~len:m ~init:0 in
  let done_l = Atomic_mem.log ~rows:m ~cols:n in
  (* [journals] are per-domain single-writer channels: domain i appends
     only to journals.(i) — no mutex needed — and the caller stitches
     them back together offline with [Obs.Journal.merge]; a
     fetch-and-add counter gives every record a global emission index
     as its [ts], which makes the merged order total and
     deterministic. *)
  let seq = Atomic.make 0 in
  let emit_for pid =
    match journals with
    | None -> fun _ -> ()
    | Some j ->
        let fl = j.(pid - 1) in
        fun job ->
          Obs.Flight.push fl
            (Obs.Journal.encode
               (Obs.Journal.Record
                  (Obs.Sink.record
                     ~ts:(Atomic.fetch_and_add seq 1)
                     ~pid ~kind:Obs.Sink.Instant
                     ~args:[ ("job", Obs.Json.Int job) ]
                     "mc.do")))
  in
  (* [rtevents]: an active runtime-events consumer.  The run brackets
     itself and each domain in custom phase spans so GC pauses line up
     against algorithm phases on the shared runtime timeline, and the
     rings are drained once after join (long-lived callers should keep
     polling themselves).  With [None] the runtime path is untouched —
     the on/off delta is exactly what E18's overhead gate measures. *)
  let instrument = Option.is_some rtevents in
  if instrument then Obs.Rtevents.emit_begin "mc.run";
  let outcome =
    on_domains ~m
      ~jobs_rev:(fun b f ->
        for k = b.len - 1 downto 0 do
          f b.data.(k)
        done)
      ~spawn:(fun ~pid ledger ->
        let policy = policy ~pid in
        let budget = job_budget ~pid in
        let emit = emit_for pid in
        let regs = atomic_regs ~pid next done_l in
        (* a process performs each job at most once *)
        let performed = buf (min n budget) in
        let free = Core.Freeset.interval 1 n in
        fun () ->
          let body () =
            ignore
              (Core.Kk_direct.run regs ~policy ~budget ~ledger ~pid ~m ~beta
                 ~cols:n ~free ~perform:(fun j ->
                   push performed j;
                   emit j));
            performed
          in
          if instrument then Obs.Rtevents.with_span "mc.domain" body
          else body ())
  in
  (match rtevents with
  | Some re ->
      Obs.Rtevents.emit_end "mc.run";
      ignore (Obs.Rtevents.poll re)
  | None -> ());
  outcome
