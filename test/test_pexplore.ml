(* Differential conformance tests for exploration across domains:
   with the fingerprint cache off, the execution stream on d domains
   must be byte-identical to the one-domain walk; with the cache on it
   must preserve canonical do-log sets and violation verdicts.  Plus
   the one-domain streaming guarantee, collision-soundness and
   incremental-hash properties for Analysis.Fingerprint, and unit
   coverage for the work-stealing deque. *)

module E = Analysis.Explore
module F = Analysis.Fingerprint
module O = Analysis.Oracle

let deep = Test_explore.deep

(* CI's exhaustive job widens the grid via AMO_DOMAINS *)
let domain_grid =
  let base = [ 2; 4 ] in
  match Sys.getenv_opt "AMO_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 2 -> List.sort_uniq compare (d :: base)
      | _ -> base)
  | None -> base

let collect ?(strategy = E.Por) ?fingerprint ~domains factory =
  let out = ref [] in
  let stats =
    E.explore ~strategy ?fingerprint ~domains ~factory ~branch_depth:deep
      ~max_steps:10_000
      ~on_execution:(fun e -> out := (e.E.schedule, e.E.dos) :: !out)
      ()
  in
  (List.rev !out, stats)

let collect_seq ?strategy factory = collect ?strategy ~domains:1 factory

let canon stream =
  List.sort_uniq compare (List.map (fun (_, dos) -> E.canonical_do_log dos) stream)

let instances =
  [
    ( "KK n=3 m=2 beta=2",
      fun () -> Test_explore.kk_factory ~n:3 ~m:2 ~beta:2 () );
    ("pairing n=3 m=2", Test_explore.pairing_factory ~n:3 ~m:2);
    ("claim n=2 m=2", Test_explore.claim_factory ~n:2 ~m:2);
    ("unsafe board n=2 m=2", Test_explore.unsafe_board_factory ~n:2 ~m:2);
  ]

(* ---- cache off: the stream is byte-identical, any domain count ---- *)

let test_streams_identical () =
  List.iter
    (fun (label, factory) ->
      let seq_stream, seq_stats = collect_seq factory in
      List.iter
        (fun domains ->
          let par_stream, par_stats = collect ~domains factory in
          let tag = Printf.sprintf "%s d=%d" label domains in
          Alcotest.(check int)
            (tag ^ ": executions")
            seq_stats.E.executions par_stats.E.executions;
          Alcotest.(check bool)
            (tag ^ ": fully exhaustive")
            seq_stats.E.fully_exhaustive par_stats.E.fully_exhaustive;
          Alcotest.(check bool)
            (tag ^ ": stream byte-identical")
            true
            (par_stream = seq_stream))
        domain_grid)
    instances

(* ---- cache on: canonical do-log sets preserved ---- *)

let test_cache_preserves_sets () =
  List.iter
    (fun (label, factory) ->
      let seq_stream, seq_stats = collect_seq factory in
      List.iter
        (fun domains ->
          let par_stream, par_stats =
            collect ~domains ~fingerprint:true factory
          in
          let tag = Printf.sprintf "%s d=%d cache" label domains in
          Alcotest.(check bool)
            (tag ^ ": canonical sets equal")
            true
            (canon par_stream = canon seq_stream);
          Alcotest.(check bool)
            (Printf.sprintf "%s: pruned %d <= %d executions" tag
               par_stats.E.executions seq_stats.E.executions)
            true
            (par_stats.E.executions <= seq_stats.E.executions);
          match par_stats.E.cache with
          | None -> Alcotest.fail (tag ^ ": cache stats missing")
          | Some c ->
              Alcotest.(check bool)
                (tag ^ ": cache consulted")
                true
                (c.F.hits + c.F.misses > 0))
        [ 1; 4 ])
    instances

(* with a single domain and the cache on, the run is deterministic:
   two runs produce the same stream *)
let test_cache_deterministic_single_domain () =
  let factory = Test_explore.kk_factory ~n:3 ~m:2 ~beta:2 in
  let s1, _ = collect ~domains:1 ~fingerprint:true factory in
  let s2, _ = collect ~domains:1 ~fingerprint:true factory in
  Alcotest.(check bool) "same stream twice" true (s1 = s2)

(* ---- the seeded mutant through the parallel path ---- *)

let test_mutant_parallel () =
  let factory = Test_explore.kk_factory ~mutant:true ~n:2 ~m:2 ~beta:1 in
  let seq =
    E.check ~strategy:E.Por ~factory ~branch_depth:deep ~max_steps:10_000
      ~oracles:[ O.at_most_once ] ()
  in
  let par =
    E.check ~domains:3 ~factory ~branch_depth:deep ~max_steps:10_000
      ~oracles:[ O.at_most_once ] ()
  in
  Alcotest.(check bool) "caught sequentially" true (seq.E.violating > 0);
  Alcotest.(check int) "same violation count" seq.E.violating par.E.violating;
  Alcotest.(check int)
    "same findings count"
    (List.length seq.E.findings)
    (List.length par.E.findings);
  List.iter2
    (fun (a : E.finding) (b : E.finding) ->
      Alcotest.(check (list int))
        "finding schedules identical" a.E.execution.E.schedule
        b.E.execution.E.schedule)
    seq.E.findings par.E.findings;
  (* ddmin starts from the same first finding, so the shrunk golden
     counterexample is identical *)
  (match (seq.E.shrunk, par.E.shrunk) with
  | Some (s1, _), Some (s2, _) ->
      Alcotest.(check (list int)) "same shrunk schedule" s1 s2
  | _ -> Alcotest.fail "shrunk counterexample missing");
  Alcotest.(check int)
    "same execution count" seq.E.stats.E.executions par.E.stats.E.executions;
  (* cache on: still caught, shrunk schedule still violates *)
  let parf =
    E.check ~domains:3 ~fingerprint:true ~factory ~branch_depth:deep
      ~max_steps:10_000 ~oracles:[ O.at_most_once ] ()
  in
  Alcotest.(check bool) "caught with cache" true (parf.E.violating > 0);
  match parf.E.shrunk with
  | None -> Alcotest.fail "no shrunk counterexample with cache"
  | Some (sched, violations) ->
      Alcotest.(check bool) "shrunk still violates" true
        (List.exists (fun v -> v.O.oracle = "at-most-once") violations);
      let e = E.replay ~factory sched in
      Alcotest.(check bool) "shrunk replays to a violation" true
        (List.exists
           (fun v -> v.O.oracle = "at-most-once")
           (O.check_all [ O.at_most_once ] e.E.trace))

(* ---- one domain streams ---- *)

exception First_execution

(* On one domain each execution reaches [on_execution] as soon as it
   is found, so an exception there escapes before the explorer has
   built more than the instance it is walking (one spare allowed). *)
let test_one_domain_streams () =
  let builds = ref 0 in
  let factory () =
    incr builds;
    Core.Trivial.processes ~n:40 ~m:2
  in
  let explore on_execution =
    E.explore ~strategy:E.Brute_force ~domains:1 ~factory ~branch_depth:12
      ~max_steps:1000 ~on_execution ()
  in
  (match explore (fun _ -> raise First_execution) with
  | _ -> Alcotest.fail "no execution delivered"
  | exception First_execution -> ());
  Alcotest.(check bool)
    (Printf.sprintf "factory ran %d <= 2 times" !builds)
    true (!builds <= 2);
  Alcotest.(check int) "2^12 executions" 4096
    (explore ignore).E.executions

(* ---- amo_run explore CLI: exit codes ---- *)

let test_explore_cli () =
  let exe = Filename.quote (Helpers.amo_exe ()) in
  let out, status =
    Helpers.run_capture
      (exe
     ^ " explore --jobs 3 --procs 2 --domains 2 --fingerprint --differential \
        2>&1")
  in
  Alcotest.(check int) "differential run exits 0" 0 (Helpers.exit_code status);
  Alcotest.(check bool) "differential OK printed" true
    (Test_obs.contains out "differential    : OK");
  let _, status =
    Helpers.run_capture (exe ^ " explore --domains 0 >/dev/null 2>&1")
  in
  Alcotest.(check int) "--domains 0 is a CLI error (124)" 124
    (Helpers.exit_code status)

(* ---- QCheck: the differential property over a seeded grid ---- *)

(* m stays at 2: the m=3 instances blow up under an unlimited branch
   budget (the CI exhaustive job covers them through E10's bounded
   cases instead) *)
let prop_differential =
  QCheck.Test.make
    ~name:"d domains = one domain (streams cache-off, sets cache-on) on KK grid"
    ~count:15
    QCheck.(triple (int_range 2 4) (int_range 2 3) (int_range 1 4))
    (fun (n, beta, domains) ->
      (* the shrinker can walk below the generator's range; beta >= 2
         like the existing KK grids — beta=1 admits executions longer
         than the 10k step budget at n >= 3 *)
      let n = max 2 n and m = 2 in
      let beta = max 2 beta and domains = max 1 domains in
      let factory = Test_explore.kk_factory ~n ~m ~beta in
      let seq_stream, seq_stats = collect_seq factory in
      let par_stream, par_stats = collect ~domains factory in
      let parf_stream, parf_stats =
        collect ~domains ~fingerprint:true factory
      in
      par_stream = seq_stream
      && par_stats.E.executions = seq_stats.E.executions
      && par_stats.E.fully_exhaustive = seq_stats.E.fully_exhaustive
      && canon parf_stream = canon seq_stream
      && parf_stats.E.executions <= seq_stats.E.executions)

(* ---- fingerprint collision soundness on a reference model ---- *)

(* A scan-then-mark model whose complete state is observable from the
   outside (arrays instead of closure-captured refs), so we can check
   that fingerprint-equal states are structurally equal. *)
let drive_reference ~seed ~n ~m ~steps =
  let metrics = Shm.Metrics.create ~m in
  let board = Shm.Memory.vector ~metrics ~name:"refboard" ~len:n ~init:0 in
  let cursor = Array.make (m + 1) 1 in
  let pending = Array.make (m + 1) 0 in
  let handles =
    Array.init m (fun i ->
        let pid = i + 1 in
        {
          Shm.Automaton.pid;
          step =
            (fun () ->
              if pending.(pid) <> 0 then begin
                Shm.Memory.vset board ~p:pid pending.(pid) 1;
                pending.(pid) <- 0;
                cursor.(pid) <- cursor.(pid) + 1;
                []
              end
              else begin
                let j = cursor.(pid) in
                if Shm.Memory.vget board ~p:pid j = 0 then begin
                  pending.(pid) <- j;
                  [ Shm.Event.Do { p = pid; job = j } ]
                end
                else begin
                  cursor.(pid) <- cursor.(pid) + 1;
                  []
                end
              end);
          alive = (fun () -> cursor.(pid) <= n);
          crash = (fun () -> ());
          phase = (fun () -> "scan");
          footprint = (fun () -> Shm.Footprint.Unknown);
          fingerprint =
            (fun () ->
              let open Util.Mix in
              let h = combine (int 0x52) cursor.(pid) in
              let h = combine h pending.(pid) in
              Some (combine h (Shm.Memory.vhash board)));
        })
  in
  let acc = F.acc_create ~m in
  let rng = Util.Prng.of_int seed in
  let stepno = ref 0 in
  let dos = ref [] in
  for _ = 1 to steps do
    let live = Shm.Executor.live_pids handles in
    if Array.length live > 0 then begin
      let p = live.(Util.Prng.int rng (Array.length live)) in
      let evs = handles.(p - 1).Shm.Automaton.step () in
      F.acc_feed acc evs;
      List.iter
        (function
          | Shm.Event.Do { p; job } -> dos := (p, job) :: !dos | _ -> ())
        evs;
      incr stepno
    end
  done;
  (* incremental memory hash = re-hash from scratch, after every kind
     of step the executor can take *)
  if Shm.Memory.vhash board <> Shm.Memory.hash_cells (Shm.Memory.vsnapshot board)
  then Alcotest.fail "incremental vhash diverged from scratch hash";
  let fp =
    F.state ~handles ~stepno:!stepno ~do_hash:(F.acc_hash acc) ~sleep:[]
  in
  let alive = Array.map (fun h -> h.Shm.Automaton.alive ()) handles in
  let obs =
    ( !stepno,
      Array.to_list cursor,
      Array.to_list pending,
      Array.to_list (Shm.Memory.vsnapshot board),
      Array.to_list alive,
      E.canonical_do_log (List.rev !dos) )
  in
  (fp, obs)

type ref_obs =
  int * int list * int list * int list * bool list * (int * int list) list

(* one table across the whole QCheck run: fingerprint-equal states
   must be structurally equal across ANY pair of generated states *)
let fingerprint_seen : (int, ref_obs) Hashtbl.t = Hashtbl.create 512

let prop_fingerprint_sound =
  QCheck.Test.make
    ~name:"fingerprint-equal reference states are structurally equal"
    ~count:300
    QCheck.(pair small_int (int_range 0 14))
    (fun (seed, steps) ->
      let fp, obs = drive_reference ~seed ~n:3 ~m:2 ~steps in
      match fp with
      | None -> false (* reference model is never opaque *)
      | Some fp -> (
          match Hashtbl.find_opt fingerprint_seen fp with
          | None ->
              Hashtbl.add fingerprint_seen fp obs;
              true
          | Some prev -> prev = obs))

(* ---- incremental memory hashes under random writes ---- *)

(* The hashes are built on their first call and kept incrementally after
   it: whether that call comes before, between or after the writes, it
   and every later call equal the scratch re-hash. *)
let prop_memory_hash_incremental =
  QCheck.Test.make ~name:"vhash/mhash stay equal to scratch re-hash"
    ~count:200
    QCheck.(quad small_int (int_range 1 60) (int_range 0 60) bool)
    (fun (seed, ops, first, init7) ->
      let first = min first ops and init = if init7 then 7 else 0 in
      let metrics = Shm.Metrics.create ~m:2 in
      let v = Shm.Memory.vector ~metrics ~name:"v" ~len:5 ~init in
      let mx = Shm.Memory.matrix ~metrics ~name:"m" ~rows:3 ~cols:4 ~init in
      let rng = Util.Prng.of_int seed in
      let agree () =
        Shm.Memory.vhash v = Shm.Memory.hash_cells (Shm.Memory.vsnapshot v)
        && Shm.Memory.mhash mx
           = Shm.Memory.hash_matrix (Shm.Memory.msnapshot mx)
      in
      let ok = ref (first > 0 || agree ()) in
      for i = 1 to ops do
        (if Util.Prng.int rng 2 = 0 then
           Shm.Memory.vset v ~p:1
             (1 + Util.Prng.int rng 5)
             (Util.Prng.int rng 10 - 3)
         else
           Shm.Memory.mset mx ~p:2
             (1 + Util.Prng.int rng 3)
             (1 + Util.Prng.int rng 4)
             (Util.Prng.int rng 10 - 3));
        if i >= first then ok := !ok && agree ()
      done;
      !ok)

(* ---- the seen-state table ---- *)

let test_fingerprint_table () =
  let t = F.create ~bits:4 () in
  Alcotest.(check bool) "first sight" false (F.seen t 42);
  Alcotest.(check bool) "second sight" true (F.seen t 42);
  Alcotest.(check bool) "zero remaps" false (F.seen t 0);
  Alcotest.(check bool) "zero remembered" true (F.seen t 0);
  (* overflow a 16-slot table: must stay bounded and keep counting *)
  for i = 1000 to 1200 do
    ignore (F.seen t i)
  done;
  let s = F.stats t in
  Alcotest.(check int) "capacity" 16 s.F.capacity;
  Alcotest.(check bool) "evictions happened" true (s.F.evictions > 0);
  Alcotest.(check int) "hits counted" 2 s.F.hits;
  Alcotest.(check int) "misses = inserts" (2 + 201) s.F.misses

(* ---- the work-stealing deque ---- *)

let test_wsdeque_orders () =
  let d = Multicore.Wsdeque.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check (option int)) "pop front" (Some 1) (Multicore.Wsdeque.pop d);
  Alcotest.(check (option int)) "steal back" (Some 4) (Multicore.Wsdeque.steal d);
  Multicore.Wsdeque.push d 0;
  Alcotest.(check (option int)) "push front" (Some 0) (Multicore.Wsdeque.pop d);
  Alcotest.(check int) "length" 2 (Multicore.Wsdeque.length d);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Multicore.Wsdeque.pop d);
  Alcotest.(check (option int)) "steal 3" (Some 3) (Multicore.Wsdeque.steal d);
  Alcotest.(check (option int)) "empty pop" None (Multicore.Wsdeque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Multicore.Wsdeque.steal d)

let test_wsdeque_concurrent_drain () =
  let n_deques = 4 and per = 250 in
  let deques =
    Array.init n_deques (fun d ->
        Multicore.Wsdeque.of_list (List.init per (fun i -> (d * per) + i)))
  in
  let seen = Array.make (n_deques * per) 0 in
  let mu = Mutex.create () in
  let worker wid () =
    let rec steal_from k =
      if k >= n_deques then None
      else
        match Multicore.Wsdeque.steal deques.((wid + k) mod n_deques) with
        | Some x -> Some x
        | None -> steal_from (k + 1)
    in
    let rec loop () =
      let item =
        match Multicore.Wsdeque.pop deques.(wid) with
        | Some x -> Some x
        | None -> steal_from 1
      in
      match item with
      | None -> ()
      | Some x ->
          Mutex.lock mu;
          seen.(x) <- seen.(x) + 1;
          Mutex.unlock mu;
          loop ()
    in
    loop ()
  in
  let doms = Array.init n_deques (fun wid -> Domain.spawn (worker wid)) in
  Array.iter Domain.join doms;
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "item %d drained %d times" i c)
    seen

let suite =
  [
    Alcotest.test_case "streams byte-identical (cache off, d=1,2,4)" `Slow
      test_streams_identical;
    Alcotest.test_case "canonical sets preserved (cache on)" `Slow
      test_cache_preserves_sets;
    Alcotest.test_case "cache deterministic on one domain" `Quick
      test_cache_deterministic_single_domain;
    Alcotest.test_case "mutant caught via parallel path, same shrunk" `Slow
      test_mutant_parallel;
    Alcotest.test_case "one domain streams executions" `Quick
      test_one_domain_streams;
    Alcotest.test_case "explore CLI exit codes 0/124" `Quick test_explore_cli;
    Alcotest.test_case "fingerprint table bounded, counters" `Quick
      test_fingerprint_table;
    Alcotest.test_case "wsdeque pop/steal orders" `Quick test_wsdeque_orders;
    Alcotest.test_case "wsdeque concurrent drain, no loss/dup" `Quick
      test_wsdeque_concurrent_drain;
    Helpers.qtest prop_differential;
    Helpers.qtest prop_fingerprint_sound;
    Helpers.qtest prop_memory_hash_incremental;
  ]
