(* Tests for the message-passing substrate: the network simulator,
   ABD atomic-register emulation, and KKβ over message passing (the
   paper's closing open question, bench E12). *)

(* ---- network ---- *)

let test_net_basic_delivery () =
  let net : int Msg.Net.t = Msg.Net.create ~nodes:2 () in
  let got = ref [] in
  Msg.Net.set_handler net ~node:2 (fun ~src v -> got := (src, v) :: !got);
  Msg.Net.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Msg.Net.send net ~src:1 ~dst:2 42;
  Msg.Net.send net ~src:1 ~dst:2 43;
  Alcotest.(check int) "pending" 2 (Msg.Net.pending net);
  while Msg.Net.deliver_oldest net do () done;
  Alcotest.(check int) "delivered" 2 (Msg.Net.delivered_count net);
  Alcotest.(check bool) "both received" true
    (List.sort compare !got = [ (1, 42); (1, 43) ])

let test_net_crash_drops () =
  let net : int Msg.Net.t = Msg.Net.create ~nodes:2 () in
  let got = ref 0 in
  Msg.Net.set_handler net ~node:2 (fun ~src:_ _ -> incr got);
  Msg.Net.send net ~src:1 ~dst:2 1;
  Msg.Net.crash net 2;
  Msg.Net.send net ~src:1 ~dst:2 2;
  (* a crashed node also stops sending *)
  Msg.Net.crash net 1;
  Msg.Net.send net ~src:1 ~dst:2 3;
  Alcotest.(check int) "crashed sender dropped" 2 (Msg.Net.pending net);
  while Msg.Net.deliver_oldest net do () done;
  Alcotest.(check int) "handler never ran" 0 !got;
  Alcotest.(check bool) "alive flags" false (Msg.Net.alive net 2)

let test_net_handlers_can_send () =
  (* ping-pong: handlers sending from within delivery *)
  let net : int Msg.Net.t = Msg.Net.create ~nodes:2 () in
  let rounds = ref 0 in
  Msg.Net.set_handler net ~node:1 (fun ~src v ->
      if v > 0 then Msg.Net.send net ~src:1 ~dst:src (v - 1));
  Msg.Net.set_handler net ~node:2 (fun ~src v ->
      incr rounds;
      if v > 0 then Msg.Net.send net ~src:2 ~dst:src (v - 1));
  Msg.Net.send net ~src:1 ~dst:2 6;
  while Msg.Net.deliver_oldest net do () done;
  Alcotest.(check int) "pong count" 4 !rounds

(* The pending queue is parallel arrays: with no observer, journal or
   clocks, a send and a delivery allocate nothing of their own. *)
let test_net_delivery_allocation_free () =
  let net : int list Msg.Net.t = Msg.Net.create ~nodes:2 () in
  let body = [ 1; 2; 3 ] in
  Msg.Net.set_handler net ~node:2 (fun ~src:_ _ -> ());
  let rng = Util.Prng.of_int 5 in
  for _ = 1 to 32 do
    Msg.Net.send net ~src:1 ~dst:2 body
  done;
  let rounds = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Msg.Net.send net ~src:1 ~dst:2 body;
    ignore (Msg.Net.deliver_random net rng)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check int) "all delivered" rounds (Msg.Net.delivered_count net);
  if words >= 1. then Alcotest.failf "%.2f words per delivery" words

(* ---- ABD registers ---- *)

let run_abd ?crash_plan ?(servers = 3) ?(seed = 1) ~registers bodies =
  Msg.Abd.run ?crash_plan ~servers ~registers ~rng:(Util.Prng.of_int seed)
    ~client_bodies:bodies ()

let test_abd_write_read_roundtrip () =
  for seed = 0 to 20 do
    let observed = ref (-1) in
    let o =
      run_abd ~seed ~registers:2
        [|
          (fun ~read ~write ~do_job:_ ->
            write 1 5;
            let v = read 1 in
            write 2 v;
            observed := read 2);
        |]
    in
    Alcotest.(check (list int)) "completed" [ 1 ] o.Msg.Abd.completed;
    Alcotest.(check int) (Printf.sprintf "seed %d roundtrip" seed) 5 !observed
  done

let test_abd_fresh_register_reads_zero () =
  let got = ref (-1) in
  let o =
    run_abd ~registers:1 [| (fun ~read ~write:_ ~do_job:_ -> got := read 1) |]
  in
  Alcotest.(check int) "zero init" 0 !got;
  Alcotest.(check bool) "done" true (o.Msg.Abd.completed = [ 1 ])

let test_abd_reads_monotone_across_clients () =
  (* writer bumps reg 1 through 1..8; a concurrent reader's view must
     be non-decreasing (atomicity of the emulated register) *)
  for seed = 0 to 30 do
    let seen = ref [] in
    let o =
      run_abd ~seed ~registers:1
        [|
          (fun ~read:_ ~write ~do_job:_ ->
            for v = 1 to 8 do
              write 1 v
            done);
          (fun ~read ~write:_ ~do_job:_ ->
            for _ = 1 to 12 do
              seen := read 1 :: !seen
            done);
        |]
    in
    Alcotest.(check int) "both complete" 2 (List.length o.Msg.Abd.completed);
    let chron = List.rev !seen in
    let rec monotone = function
      | a :: (b :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    if not (monotone chron) then
      Alcotest.failf "seed %d: non-monotone reads %s" seed
        (String.concat "," (List.map string_of_int chron))
  done

let test_abd_survives_minority_server_crash () =
  let got = ref (-1) in
  let o =
    run_abd
      ~crash_plan:[ (3, `Server 1); (5, `Server 2) ]
      ~servers:5 ~registers:1
      [|
        (fun ~read ~write ~do_job:_ ->
          write 1 9;
          got := read 1);
      |]
  in
  Alcotest.(check (list int)) "completed" [ 1 ] o.Msg.Abd.completed;
  Alcotest.(check int) "value survives" 9 !got

let test_abd_majority_crash_reports_stuck () =
  (* both servers crash before the first delivery, so no quorum of
     replies can ever form (at delivery 1 server 1's reply is already
     in flight, and two agreeing replies complete a one-round read) *)
  let o =
    run_abd
      ~crash_plan:[ (0, `Server 1); (0, `Server 2) ]
      ~servers:3 ~registers:1
      [| (fun ~read ~write:_ ~do_job:_ -> ignore (read 1)) |]
  in
  Alcotest.(check (list int)) "stuck, not hung" [ 1 ] o.Msg.Abd.stuck;
  Alcotest.(check (list int)) "not completed" [] o.Msg.Abd.completed

let test_abd_client_crash_releases_others () =
  let o =
    run_abd
      ~crash_plan:[ (4, `Client 1) ]
      ~servers:3 ~registers:2
      [|
        (fun ~read ~write ~do_job:_ ->
          for v = 1 to 50 do
            write 1 v;
            ignore (read 2)
          done);
        (fun ~read ~write ~do_job:_ ->
          write 2 1;
          ignore (read 1));
      |]
  in
  Alcotest.(check (list int)) "p1 crashed" [ 1 ] o.Msg.Abd.crashed_clients;
  Alcotest.(check (list int)) "p2 completed" [ 2 ] o.Msg.Abd.completed

let test_abd_single_writer_enforced () =
  Alcotest.check_raises "two writers"
    (Invalid_argument "Abd: single-writer discipline violated") (fun () ->
      ignore
        (run_abd ~registers:1
           [|
             (fun ~read:_ ~write ~do_job:_ -> write 1 1);
             (fun ~read:_ ~write ~do_job:_ -> write 1 2);
           |]))

(* ---- KK over message passing ---- *)

let test_kk_mp_failure_free () =
  for seed = 0 to 8 do
    let o =
      Msg.Kk_mp.run_kk ~servers:3 ~n:40 ~m:3 ~beta:3
        ~rng:(Util.Prng.of_int seed) ()
    in
    Helpers.check_amo o.Msg.Kk_mp.dos;
    Alcotest.(check int) "all clients done" 3 (List.length o.Msg.Kk_mp.completed);
    (* Theorem 4.4's bound; even failure-free, adversarial delivery can
       strand a terminating process's last announcement in TRY sets *)
    let done_ = Core.Spec.do_count o.Msg.Kk_mp.dos in
    if done_ < 40 - (3 + 3 - 2) then
      Alcotest.failf "seed %d: did %d < 36" seed done_
  done

let test_kk_mp_client_crashes () =
  for seed = 0 to 8 do
    let n = 40 and m = 3 in
    let o =
      Msg.Kk_mp.run_kk
        ~crash_plan:[ (60, `Client 1); (200, `Client 2) ]
        ~servers:3 ~n ~m ~beta:m
        ~rng:(Util.Prng.of_int (100 + seed))
        ()
    in
    Helpers.check_amo o.Msg.Kk_mp.dos;
    Alcotest.(check (list int)) "no one stuck" [] o.Msg.Kk_mp.stuck;
    let done_ = Core.Spec.do_count o.Msg.Kk_mp.dos in
    (* Theorem 4.4 transfers through the emulation *)
    if done_ < n - (m + m - 2) then
      Alcotest.failf "seed %d: did %d < %d" seed done_ (n - (m + m - 2))
  done

let test_kk_mp_server_minority_crashes () =
  let n = 30 and m = 2 in
  let o =
    Msg.Kk_mp.run_kk
      ~crash_plan:[ (25, `Server 2); (80, `Server 5) ]
      ~servers:5 ~n ~m ~beta:m
      ~rng:(Util.Prng.of_int 7)
      ()
  in
  Helpers.check_amo o.Msg.Kk_mp.dos;
  Alcotest.(check int) "both clients done" 2 (List.length o.Msg.Kk_mp.completed);
  let done_ = Core.Spec.do_count o.Msg.Kk_mp.dos in
  Alcotest.(check int) "jobs done (pinned)" 29 done_;
  Alcotest.(check bool) "at least n - (beta + m - 2)" true (done_ >= n - (m + m - 2))

let test_abd_mw_register () =
  (* two clients write the same MW register; atomicity: a reader's
     final read after both completed returns one of the written
     values, and repeated reads are consistent with some total order *)
  for seed = 0 to 20 do
    let final = ref (-1) in
    let o =
      Msg.Abd.run
        ~multi_writer:(fun reg -> reg = 1)
        ~servers:3 ~registers:1
        ~rng:(Util.Prng.of_int (500 + seed))
        ~client_bodies:
          [|
            (fun ~read:_ ~write ~do_job:_ -> write 1 7);
            (fun ~read:_ ~write ~do_job:_ -> write 1 9);
            (fun ~read ~write:_ ~do_job:_ ->
              let a = read 1 in
              let b = read 1 in
              (* monotone in the MW order: once a value with a higher
                 timestamp is seen, earlier ones never reappear *)
              ignore a;
              final := b);
          |]
        ()
    in
    Alcotest.(check int) "all complete" 3 (List.length o.Msg.Abd.completed);
    if not (List.mem !final [ 0; 7; 9 ]) then
      Alcotest.failf "seed %d: impossible value %d" seed !final
  done

let test_abd_mw_flag_semantics () =
  (* the IterStepKK flag pattern: many writers all writing 1; once a
     reader sees 1 it must keep seeing 1 *)
  for seed = 0 to 10 do
    let ok = ref true in
    let o =
      Msg.Abd.run
        ~multi_writer:(fun reg -> reg = 1)
        ~servers:5 ~registers:1
        ~rng:(Util.Prng.of_int (800 + seed))
        ~client_bodies:
          [|
            (fun ~read:_ ~write ~do_job:_ -> write 1 1);
            (fun ~read:_ ~write ~do_job:_ -> write 1 1);
            (fun ~read ~write:_ ~do_job:_ ->
              let seen_one = ref false in
              for _ = 1 to 10 do
                let v = read 1 in
                if v = 1 then seen_one := true
                else if !seen_one then ok := false
              done);
          |]
        ()
    in
    Alcotest.(check int) "all complete" 3 (List.length o.Msg.Abd.completed);
    Alcotest.(check bool) (Printf.sprintf "seed %d flag stable" seed) true !ok
  done

let test_iterative_mp () =
  for seed = 0 to 3 do
    let n = 96 and m = 2 in
    let o =
      Msg.Kk_mp.run_iterative ~servers:3 ~n ~m ~epsilon_inv:1
        ~rng:(Util.Prng.of_int (900 + seed))
        ()
    in
    Helpers.check_amo o.Msg.Kk_mp.dos;
    Alcotest.(check int) "all clients done" m (List.length o.Msg.Kk_mp.completed);
    let done_ = Core.Spec.do_count o.Msg.Kk_mp.dos in
    let bound = Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv:1 in
    if n - done_ > bound then
      Alcotest.failf "seed %d: lost %d > %d" seed (n - done_) bound
  done

let test_iterative_mp_with_crash () =
  let n = 96 and m = 3 in
  let o =
    Msg.Kk_mp.run_iterative
      ~crash_plan:[ (300, `Client 2) ]
      ~servers:3 ~n ~m ~epsilon_inv:1
      ~rng:(Util.Prng.of_int 41)
      ()
  in
  Helpers.check_amo o.Msg.Kk_mp.dos;
  Alcotest.(check (list int)) "no one stuck" [] o.Msg.Kk_mp.stuck

let test_net_duplicate () =
  let net : int Msg.Net.t = Msg.Net.create ~nodes:2 () in
  let got = ref 0 in
  Msg.Net.set_handler net ~node:2 (fun ~src:_ _ -> incr got);
  Msg.Net.send net ~src:1 ~dst:2 7;
  let rng = Util.Prng.of_int 1 in
  Alcotest.(check bool) "duplicated" true (Msg.Net.duplicate_random net rng);
  Alcotest.(check int) "two in flight" 2 (Msg.Net.pending net);
  while Msg.Net.deliver_oldest net do () done;
  Alcotest.(check int) "handler ran twice" 2 !got

let test_abd_tolerates_duplication () =
  (* heavy duplication: quorums count distinct servers, so atomicity
     and termination must survive *)
  for seed = 0 to 10 do
    let seen = ref [] in
    let o =
      Msg.Abd.run ~duplicate_prob:0.3 ~servers:3 ~registers:1
        ~rng:(Util.Prng.of_int (600 + seed))
        ~client_bodies:
          [|
            (fun ~read:_ ~write ~do_job:_ ->
              for v = 1 to 6 do
                write 1 v
              done);
            (fun ~read ~write:_ ~do_job:_ ->
              for _ = 1 to 8 do
                seen := read 1 :: !seen
              done);
          |]
        ()
    in
    Alcotest.(check int) "both complete" 2 (List.length o.Msg.Abd.completed);
    let rec monotone = function
      | a :: (b :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    if not (monotone (List.rev !seen)) then
      Alcotest.failf "seed %d: duplication broke atomicity" seed;
    seen := []
  done

let test_kk_mp_with_duplication () =
  let n = 30 and m = 2 in
  let bodies = Array.init m (fun i -> Msg.Kk_mp.kk_body ~n ~m ~beta:m ~pid:(i + 1)) in
  let o =
    Msg.Abd.run ~duplicate_prob:0.25 ~servers:3
      ~registers:(Msg.Kk_mp.register_count ~n ~m)
      ~rng:(Util.Prng.of_int 13) ~client_bodies:bodies ()
  in
  Helpers.check_amo o.Msg.Abd.dos;
  Alcotest.(check int) "both complete" m (List.length o.Msg.Abd.completed);
  let done_ = Core.Spec.do_count o.Msg.Abd.dos in
  if done_ < n - ((2 * m) - 2) then Alcotest.failf "did %d" done_

(* Seeded ABD runs are deterministic: these deliveries and do-logs pin
   the register-access sequence of the shared KKβ body
   (Core.Kk_direct) and the ABD read path (one round when the quorum's
   replies agree, a write-back otherwise), so a change to either shows
   up here. *)
let test_kk_mp_pinned () =
  let check name (deliveries, dos) (o : Msg.Kk_mp.outcome) =
    Alcotest.(check int) (name ^ " deliveries") deliveries o.deliveries;
    Alcotest.(check (list (pair int int))) (name ^ " do-log") dos o.dos
  in
  List.iter
    (fun (seed, kk, iterative) ->
      let rng () = Util.Prng.of_int seed in
      check (Printf.sprintf "kk seed %d" seed) kk
        (Msg.Kk_mp.run_kk ~servers:3 ~n:12 ~m:3 ~beta:3 ~rng:(rng ()) ());
      check (Printf.sprintf "iterative seed %d" seed) iterative
        (Msg.Kk_mp.run_iterative ~servers:3 ~n:24 ~m:2 ~epsilon_inv:1
           ~rng:(rng ()) ()))
    [
      ( 1,
        ( 575,
          [ (1, 1); (2, 4); (3, 7); (1, 2); (3, 8); (2, 6); (2, 5); (1, 3);
            (3, 11); (2, 10); (3, 12) ] ),
        ( 638,
          [ (2, 12); (1, 1); (2, 14); (1, 2); (1, 3); (2, 15); (1, 4); (2, 16);
            (1, 5); (2, 13); (1, 6); (1, 7); (2, 17) ] ) );
      ( 2,
        ( 598,
          [ (2, 4); (1, 1); (3, 7); (1, 2); (2, 6); (3, 10); (3, 9); (2, 8);
            (1, 3); (3, 12); (2, 11); (1, 5) ] ),
        ( 635,
          [ (2, 12); (1, 1); (1, 2); (2, 13); (1, 3); (1, 4); (2, 15); (1, 5);
            (2, 16); (2, 17); (1, 6); (2, 18); (1, 7) ] ) );
      ( 3,
        ( 568,
          [ (1, 1); (3, 7); (2, 4); (2, 5); (1, 2); (3, 10); (2, 8); (3, 9);
            (1, 3); (2, 6); (3, 12) ] ),
        ( 652,
          [ (1, 1); (2, 12); (2, 14); (1, 2); (1, 3); (2, 15); (1, 4); (1, 5);
            (2, 16); (1, 6); (2, 13); (1, 7); (2, 18) ] ) );
    ]

let test_kk_mp_register_layout () =
  Alcotest.(check int) "count" (4 + (4 * 10))
    (Msg.Kk_mp.register_count ~n:10 ~m:4)

let suite =
  [
    Alcotest.test_case "net: basic delivery" `Quick test_net_basic_delivery;
    Alcotest.test_case "net: crash drops" `Quick test_net_crash_drops;
    Alcotest.test_case "net: handlers can send" `Quick
      test_net_handlers_can_send;
    Alcotest.test_case "net delivery allocation-free" `Quick
      test_net_delivery_allocation_free;
    Alcotest.test_case "abd: write/read roundtrip" `Quick
      test_abd_write_read_roundtrip;
    Alcotest.test_case "abd: fresh register reads 0" `Quick
      test_abd_fresh_register_reads_zero;
    Alcotest.test_case "abd: reads monotone across clients" `Quick
      test_abd_reads_monotone_across_clients;
    Alcotest.test_case "abd: survives minority server crash" `Quick
      test_abd_survives_minority_server_crash;
    Alcotest.test_case "abd: majority crash reports stuck" `Quick
      test_abd_majority_crash_reports_stuck;
    Alcotest.test_case "abd: client crash releases others" `Quick
      test_abd_client_crash_releases_others;
    Alcotest.test_case "abd: single-writer enforced" `Quick
      test_abd_single_writer_enforced;
    Alcotest.test_case "kk-mp: failure free" `Quick test_kk_mp_failure_free;
    Alcotest.test_case "kk-mp: client crashes" `Quick test_kk_mp_client_crashes;
    Alcotest.test_case "kk-mp: server minority crashes" `Quick
      test_kk_mp_server_minority_crashes;
    Alcotest.test_case "net: duplication" `Quick test_net_duplicate;
    Alcotest.test_case "abd: tolerates duplication" `Quick
      test_abd_tolerates_duplication;
    Alcotest.test_case "kk-mp: with duplication" `Quick
      test_kk_mp_with_duplication;
    Alcotest.test_case "abd: multi-writer register" `Quick
      test_abd_mw_register;
    Alcotest.test_case "abd: MW flag semantics" `Quick
      test_abd_mw_flag_semantics;
    Alcotest.test_case "kk-mp: iterative over message passing" `Quick
      test_iterative_mp;
    Alcotest.test_case "kk-mp: iterative with client crash" `Quick
      test_iterative_mp_with_crash;
    Alcotest.test_case "kk-mp: pinned seeded runs" `Quick test_kk_mp_pinned;
    Alcotest.test_case "kk-mp: register layout" `Quick
      test_kk_mp_register_layout;
  ]
