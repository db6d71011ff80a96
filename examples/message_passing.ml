(* At-most-once without shared memory: KKβ over a simulated
   asynchronous network (the paper's §8 open question).

     dune exec examples/message_passing.exe

   Three worker nodes coordinate n jobs through five replica servers
   using ABD-emulated atomic registers — no shared memory exists
   anywhere; every register read/write is a quorum round-trip, and
   the adversary picks the order of every single message delivery.
   We crash one worker mid-run and one replica server, and verify the
   paper's guarantees survive the change of communication medium. *)

let n = 80
let m = 3
let servers = 5

let () =
  Printf.printf
    "KK over message passing: %d jobs, %d workers, %d ABD replica servers\n\n"
    n m servers;
  let run ~label ~crash_plan ~seed =
    let o =
      Msg.Kk_mp.run_kk ~crash_plan ~servers ~n ~m ~beta:m
        ~rng:(Util.Prng.of_int seed) ()
    in
    Core.Spec.assert_at_most_once o.Msg.Kk_mp.dos;
    Printf.printf "%-28s at-most-once OK; %2d/%d jobs (guarantee >= %d)\n"
      label
      (Core.Spec.do_count o.Msg.Kk_mp.dos)
      n
      (n - (2 * m) + 2);
    Printf.printf
      "%-28s crashed workers [%s]; %d message deliveries (%.0f per job)\n\n" ""
      (String.concat "; " (List.map string_of_int o.Msg.Kk_mp.crashed_clients))
      o.Msg.Kk_mp.deliveries
      (float_of_int o.Msg.Kk_mp.deliveries /. float_of_int n)
  in
  run ~label:"failure-free:" ~crash_plan:[] ~seed:1;
  run ~label:"worker + server crash:"
    ~crash_plan:[ (300, `Client 2); (700, `Server 4) ]
    ~seed:2;

  (* the emulation is the load-bearing part: a peek at its cost *)
  Printf.printf
    "every register operation is a quorum protocol: a write is one\n\
     broadcast + %d acks; a read is a query round, plus a write-back round\n\
     (the phase that makes reads atomic) only when the quorum's replies\n\
     disagree.  The paper's algorithm is unchanged — only the registers\n\
     moved from hardware to quorums.\n"
    ((servers / 2) + 1);

  (* and the iterated algorithm, whose termination flag is genuinely
     multi-writer (two-phase MW-ABD writes) *)
  let o =
    Msg.Kk_mp.run_iterative ~servers:3 ~n:128 ~m:2 ~epsilon_inv:1
      ~rng:(Util.Prng.of_int 3) ()
  in
  Core.Spec.assert_at_most_once o.Msg.Kk_mp.dos;
  Printf.printf
    "\nIterativeKK(1) over message passing: %d/128 jobs, %d deliveries\n"
    (Core.Spec.do_count o.Msg.Kk_mp.dos)
    o.Msg.Kk_mp.deliveries
