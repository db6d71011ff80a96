(* Tests for Analysis.Atomicity, the SWMR register-history checker, and
   for the atomicity of Msg.Abd's emulated registers: hand-built
   histories (one per violated condition), KKβ over ABD under the E12
   fault scenarios and under generated network fault plans, and a
   no-write-back ABD mutant that the checker must catch. *)

module A = Analysis.Atomicity

(* ---- hand-built histories ---- *)

let op kind ?(proc = 1) ?(reg = 1) value inv resp =
  { A.proc; reg; kind; value; inv; resp }

let w ?proc ?reg value inv resp = op A.Write ?proc ?reg value inv (Some resp)
let pending_w ?proc ?reg value inv = op A.Write ?proc ?reg value inv None
let r ?(proc = 2) ?reg value inv resp = op A.Read ~proc ?reg value inv (Some resp)

let conditions h = List.map (fun v -> A.condition_name v.A.condition) (A.check h)

let check_conditions name expected h =
  Alcotest.(check (list string)) name (List.map A.condition_name expected) (conditions h)

let test_atomic_history () =
  check_conditions "sequential" []
    [ w 10 1 2; r 10 3 4; w 20 5 6; r ~proc:3 20 7 8 ];
  (* a read overlapping a write may return either value *)
  check_conditions "overlap, old" [] [ w 10 1 2; w 20 3 6; r 10 4 5 ];
  check_conditions "overlap, new" [] [ w 10 1 2; w 20 3 6; r 20 4 5 ];
  check_conditions "initial value" [] [ r 0 1 2; w 10 3 4 ];
  (* registers are judged separately *)
  check_conditions "two registers" []
    [ w ~reg:1 10 1 2; w ~proc:2 ~reg:2 10 3 4; r ~proc:3 ~reg:2 10 5 6; r ~reg:1 10 7 8 ]

let test_future_read () =
  check_conditions "reads a write invoked after it responded" [ A.Future_read ]
    [ r 10 1 2; w 10 3 4 ]

let test_stale_read () =
  check_conditions "older than a completed write" [ A.Stale_read ]
    [ w 10 1 2; w 20 3 4; r 10 5 6 ];
  check_conditions "initial value after a completed write" [ A.Stale_read ]
    [ w 10 1 2; r 0 3 4 ]

let test_new_old_inversion () =
  (* both reads overlap the second write, so each alone is regular;
     the later one returning the older value is the inversion *)
  check_conditions "later read returns the older value" [ A.New_old_inversion ]
    [ w 10 1 2; w 20 3 10; r ~proc:2 20 4 5; r ~proc:3 10 6 7 ];
  (* overlapping reads may disagree *)
  check_conditions "overlapping reads" []
    [ w 10 1 2; w 20 3 10; r ~proc:2 20 4 7; r ~proc:3 10 5 8 ]

let test_unwritten () =
  check_conditions "no write wrote 99" [ A.Unwritten ] [ w 10 1 2; r 99 3 4 ]

let test_pending_write () =
  (* a crashed writer's last write may or may not take effect *)
  check_conditions "taken effect" []
    [ w 10 1 2; pending_w 20 3; r 20 4 5; r ~proc:3 20 6 7 ];
  check_conditions "not taken effect" [] [ w 10 1 2; pending_w 20 3; r 10 4 5; r 10 8 9 ];
  (* but once a read returned it, a later read cannot go back *)
  check_conditions "inversion past a pending write" [ A.New_old_inversion ]
    [ w 10 1 2; pending_w 20 3; r 20 4 5; r ~proc:3 10 6 7 ];
  (* and it still cannot be read before it is invoked *)
  check_conditions "pending write read early" [ A.Future_read ]
    [ w 10 1 2; r 20 3 4; pending_w 20 5 ];
  (* a pending read constrains nothing *)
  check_conditions "pending read" []
    [ w 10 1 2; op A.Read 99 3 None ]

let test_rejects_non_swmr () =
  let rejects name h =
    match A.check h with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "two writers" [ w ~proc:1 10 1 2; w ~proc:2 20 3 4 ];
  rejects "overlapping writes" [ w 10 1 4; w 20 3 6 ];
  rejects "a value written twice" [ w 10 1 2; w 10 3 4 ];
  rejects "the initial value written" [ w 0 1 2 ];
  rejects "response before invocation" [ r 0 5 4 ]

(* ---- recorded ABD histories ---- *)

(* KKβ over ABD with every client recorded; checks at-most-once (C1),
   the floor n − (β + m − 2) (C3) unless [floor] is off, and the
   atomicity of every register. *)
let recorded_kk ?(floor = true) ?crash_plan ?duplicate_prob ?deliver ~name ~servers ~n
    ~m ~seed () =
  let h = Helpers.history () in
  let o =
    Msg.Abd.run ?crash_plan ?duplicate_prob ?deliver ~servers
      ~registers:(Msg.Kk_mp.register_count ~n ~m)
      ~rng:(Util.Prng.of_int seed)
      ~client_bodies:
        (Array.init m (fun i ->
             Helpers.record h (Msg.Kk_mp.kk_body ~n ~m ~beta:m ~pid:(i + 1)) ~pid:(i + 1)))
      ()
  in
  Helpers.check_amo o.Msg.Abd.dos;
  let done_ = Core.Spec.do_count o.Msg.Abd.dos in
  if floor && done_ < n - (m + m - 2) then
    Alcotest.failf "%s: did %d < %d" name done_ (n - (m + m - 2));
  Helpers.check_atomic ~name h;
  o

(* The E12 grid's fault scenarios. *)
let test_e12_scenarios_atomic () =
  List.iter
    (fun (label, servers, m, crash_plan, duplicate_prob) ->
      for seed = 1 to 4 do
        let name = Printf.sprintf "%s seed %d" label seed in
        let o =
          recorded_kk ~name ~crash_plan ~duplicate_prob ~servers ~n:60 ~m ~seed ()
        in
        Alcotest.(check (list int)) (name ^ " stuck") [] o.Msg.Abd.stuck
      done)
    [
      ("failure-free", 3, 3, [], 0.);
      ("m-1 client crashes", 3, 3, [ (150, `Client 1); (400, `Client 2) ], 0.);
      ("minority server crashes", 5, 3, [ (100, `Server 1); (300, `Server 4) ], 0.);
      ("clients + servers", 5, 4, [ (120, `Client 2); (250, `Server 5) ], 0.);
      ("25% message duplication", 3, 3, [ (200, `Client 1) ], 0.25);
    ]

(* Generated network fault plans (duplication, delay, partitions and
   sometimes loss) driven through the plan's delivery driver. *)
let test_net_plans_atomic () =
  let rng = Util.Prng.of_int 2024 in
  for i = 1 to 60 do
    let plan =
      Fault.Plan.gen_net ~name:(Printf.sprintf "atomic-%02d" i) ~n:20 ~m:3 ~beta:3
        ~servers:3 (Util.Prng.split rng)
    in
    ignore
      (recorded_kk ~name:plan.Fault.Plan.name
         ~floor:(not (Fault.Plan.lossy plan))
         ~deliver:(Fault.Inject.net_deliver ~plan ())
         ~servers:3 ~n:20 ~m:3 ~seed:plan.Fault.Plan.seed ())
  done

(* ---- a no-write-back ABD mutant ----

   A copy of ABD's SWMR read and write logic whose read returns the
   freshest of a quorum of replies at once, without writing it back.
   One reader can then see a value that only a minority stores, and a
   later reader an older one: a new/old inversion. *)

type mutant_msg =
  | Query of { op : int; reg : int }
  | Reply of { op : int; ts : int; v : int }
  | Store of { op : int; reg : int; ts : int; v : int }
  | Ack of { op : int }

type _ Effect.t += Mread : int -> int Effect.t | Mwrite : int * int -> unit Effect.t

let mutant_run ~servers ~registers ~seed bodies =
  let quorum = (servers / 2) + 1 in
  let m = Array.length bodies in
  let net : mutant_msg Msg.Net.t = Msg.Net.create ~nodes:(servers + m) () in
  for srv = 1 to servers do
    let ts = Array.make (registers + 1) 0 and v = Array.make (registers + 1) 0 in
    Msg.Net.set_handler net ~node:srv (fun ~src msg ->
        match msg with
        | Query { op; reg } ->
            Msg.Net.send net ~src:srv ~dst:src (Reply { op; ts = ts.(reg); v = v.(reg) })
        | Store { op; reg; ts = t; v = x } ->
            if t > ts.(reg) then begin
              ts.(reg) <- t;
              v.(reg) <- x
            end;
            Msg.Net.send net ~src:srv ~dst:src (Ack { op })
        | Reply _ | Ack _ -> ())
  done;
  Array.iteri
    (fun i body ->
      let node = servers + i + 1 in
      let op = ref 0 and seen = Array.make (servers + 1) false and count = ref 0 in
      let best_ts = ref (-1) and best_v = ref 0 and wts = ref 0 in
      let on_reply = ref (fun ~src:_ _ -> ()) in
      let broadcast msg =
        for srv = 1 to servers do
          Msg.Net.send net ~src:node ~dst:srv msg
        done
      in
      let start () =
        incr op;
        Array.fill seen 0 (servers + 1) false;
        count := 0
      in
      let distinct src =
        if not seen.(src) then begin
          seen.(src) <- true;
          incr count
        end
      in
      Msg.Net.set_handler net ~node (fun ~src msg -> !on_reply ~src msg);
      Effect.Deep.match_with
        (fun () ->
          body
            ~read:(fun reg -> Effect.perform (Mread reg))
            ~write:(fun reg x -> Effect.perform (Mwrite (reg, x)))
            ~do_job:ignore)
        ()
        {
          retc = (fun () -> on_reply := fun ~src:_ _ -> ());
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Mread reg ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      start ();
                      best_ts := -1;
                      (on_reply :=
                         fun ~src -> function
                          | Reply { op = o; ts; v } when o = !op ->
                              if ts > !best_ts then begin
                                best_ts := ts;
                                best_v := v
                              end;
                              distinct src;
                              (* the mutation: no write-back phase *)
                              if !count = quorum then begin
                                on_reply := (fun ~src:_ _ -> ());
                                Effect.Deep.continue k !best_v
                              end
                          | _ -> ());
                      broadcast (Query { op = !op; reg }))
              | Mwrite (reg, x) ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      start ();
                      incr wts;
                      (on_reply :=
                         fun ~src -> function
                          | Ack { op = o } when o = !op ->
                              distinct src;
                              if !count = quorum then begin
                                on_reply := (fun ~src:_ _ -> ());
                                Effect.Deep.continue k ()
                              end
                          | _ -> ());
                      broadcast (Store { op = !op; reg; ts = !wts; v = x }))
              | _ -> None);
        })
    bodies;
  let rng = Util.Prng.of_int seed in
  while Msg.Net.deliver_random net rng do
    ()
  done

(* One writer and two readers, 30 operations each, on one register. *)
let writer_readers h =
  Array.map
    (fun (pid, body) -> Helpers.record h body ~pid)
    [|
      ( 1,
        fun ~read:_ ~write ~do_job:_ ->
          for v = 1 to 30 do
            write 1 v
          done );
      (2, fun ~read ~write:_ ~do_job:_ -> for _ = 1 to 30 do ignore (read 1) done);
      (3, fun ~read ~write:_ ~do_job:_ -> for _ = 1 to 30 do ignore (read 1) done);
    |]

let test_mutant_caught () =
  let caught = ref 0 in
  for seed = 1 to 30 do
    let h = Helpers.history () in
    mutant_run ~servers:3 ~registers:1 ~seed (writer_readers h);
    if A.check (Helpers.history_ops h) <> [] then incr caught
  done;
  if !caught = 0 then Alcotest.fail "no-write-back mutant never caught in 30 seeds"

(* The same workload on the real registers stays atomic. *)
let test_writer_readers_atomic () =
  for seed = 1 to 30 do
    let h = Helpers.history () in
    let o =
      Msg.Abd.run ~servers:3 ~registers:1 ~rng:(Util.Prng.of_int seed)
        ~client_bodies:(writer_readers h) ()
    in
    Alcotest.(check int) "all complete" 3 (List.length o.Msg.Abd.completed);
    Helpers.check_atomic ~name:(Printf.sprintf "seed %d" seed) h
  done

(* KKβ's own registers on real domains: [Kk_direct.run] on two domains
   over [Atomic_mem.vector] (next, registers 1..m) and [Atomic_mem.log]
   (done, register m + (q-1)·n + c for cell (q, c)), every access
   stamped at invocation and response from one fetch-and-add clock.
   A process may write the same job to [next] twice, so each domain
   tags its next values [(seq lsl 32) lor v]; a done cell is written
   once.  Each domain keeps its own op list; the lists are merged
   after join. *)
let multicore_history ~seed ~n =
  let m = 2 in
  let module Am = Multicore.Atomic_mem in
  let next = Am.vector ~len:m ~init:0 and done_l = Am.log ~rows:m ~cols:n in
  let clock = Atomic.make 0 and ready = Atomic.make 0 in
  let body pid () =
    let ops = ref [] and seq = ref 0 in
    let stamp () = Atomic.fetch_and_add clock 1 in
    let access ~reg ~kind ~value ~inv =
      let resp = stamp () in
      ops := { A.proc = pid; reg; kind; value; inv; resp = Some resp } :: !ops
    in
    let done_reg q c = m + ((q - 1) * n) + c in
    let regs =
      {
        Core.Kk_direct.read_next =
          (fun q ->
            let inv = stamp () in
            let v = Am.vget next q in
            access ~reg:q ~kind:A.Read ~value:v ~inv;
            v land 0xffff_ffff);
        write_next =
          (fun v ->
            incr seq;
            let v = (!seq lsl 32) lor v in
            let inv = stamp () in
            Am.vset next pid v;
            access ~reg:pid ~kind:A.Write ~value:v ~inv);
        read_done =
          (fun q c ->
            let inv = stamp () in
            let v = Am.lget done_l q c in
            access ~reg:(done_reg q c) ~kind:A.Read ~value:v ~inv;
            v);
        write_done =
          (fun c v ->
            let inv = stamp () in
            Am.lappend done_l pid c v;
            access ~reg:(done_reg pid c) ~kind:A.Write ~value:v ~inv);
      }
    in
    let policy =
      if seed = 0 then Core.Policy.Rank_split
      else Core.Policy.Random (Util.Prng.of_int ((10 * seed) + pid))
    in
    let jobs = ref [] in
    (* start together, so the two loops overlap *)
    Atomic.incr ready;
    while Atomic.get ready < m do
      Domain.cpu_relax ()
    done;
    ignore
      (Core.Kk_direct.run regs ~policy ~budget:max_int
         ~ledger:(Shm.Metrics.create ~m) ~pid ~m ~beta:m ~cols:n
         ~free:(Core.Freeset.interval 1 n)
         ~perform:(fun j -> jobs := (pid, j) :: !jobs));
    (!ops, !jobs)
  in
  let results =
    List.map Domain.join (List.init m (fun i -> Domain.spawn (body (i + 1))))
  in
  (List.concat_map fst results, List.concat_map snd results)

let test_multicore_atomic () =
  List.iter
    (fun (seed, n) ->
      let ops, dos = multicore_history ~seed ~n in
      Helpers.check_amo dos;
      match A.check ops with
      | [] -> ()
      | v :: _ as vs ->
          Alcotest.failf "seed %d n %d: %d atomicity violations, first: %s"
            seed n (List.length vs)
            (Format.asprintf "%a" A.pp_violation v))
    [ (0, 64); (0, 2000); (1, 500); (2, 500); (3, 2000) ]

let suite =
  [
    Alcotest.test_case "atomic histories pass" `Quick test_atomic_history;
    Alcotest.test_case "future read flagged" `Quick test_future_read;
    Alcotest.test_case "stale read flagged" `Quick test_stale_read;
    Alcotest.test_case "new/old inversion flagged" `Quick test_new_old_inversion;
    Alcotest.test_case "unwritten value flagged" `Quick test_unwritten;
    Alcotest.test_case "pending write may or may not take effect" `Quick
      test_pending_write;
    Alcotest.test_case "non-SWMR histories rejected" `Quick test_rejects_non_swmr;
    Alcotest.test_case "abd: E12 scenarios atomic" `Quick test_e12_scenarios_atomic;
    Alcotest.test_case "abd: net fault plans atomic" `Quick test_net_plans_atomic;
    Alcotest.test_case "abd: writer and readers atomic" `Quick
      test_writer_readers_atomic;
    Alcotest.test_case "no-write-back mutant caught" `Quick test_mutant_caught;
    Alcotest.test_case "multicore: kk on two domains atomic" `Quick
      test_multicore_atomic;
  ]
