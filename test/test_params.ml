(* Tests for Params, Job and Event — the small foundation modules. *)

let test_make_validation () =
  Alcotest.check_raises "m < 1" (Invalid_argument "Params.make: m must be >= 1")
    (fun () -> ignore (Core.Params.make ~n:5 ~m:0 ~beta:1));
  Alcotest.check_raises "n < m" (Invalid_argument "Params.make: need n >= m")
    (fun () -> ignore (Core.Params.make ~n:3 ~m:4 ~beta:1));
  Alcotest.check_raises "beta < 1"
    (Invalid_argument "Params.make: beta must be >= 1") (fun () ->
      ignore (Core.Params.make ~n:5 ~m:2 ~beta:0))

let test_regimes () =
  let p = Core.Params.effectiveness_optimal ~n:100 ~m:5 in
  Alcotest.(check int) "beta = m" 5 p.Core.Params.beta;
  Alcotest.(check bool) "terminates" true (Core.Params.guarantees_termination p);
  Alcotest.(check bool) "no work bound" false
    (Core.Params.guarantees_work_bound p);
  let w = Core.Params.work_optimal ~n:1000 ~m:5 in
  Alcotest.(check int) "beta = 3m^2" 75 w.Core.Params.beta;
  Alcotest.(check bool) "work bound" true (Core.Params.guarantees_work_bound w);
  let tiny = Core.Params.make ~n:10 ~m:4 ~beta:2 in
  Alcotest.(check bool) "beta < m: no termination guarantee" false
    (Core.Params.guarantees_termination tiny)

let test_predictions () =
  let p = Core.Params.make ~n:100 ~m:5 ~beta:5 in
  Alcotest.(check int) "Thm 4.4" 92 (Core.Params.predicted_effectiveness p);
  Alcotest.(check int) "Thm 2.1" 97
    (Core.Params.effectiveness_upper_bound ~n:100 ~f:3);
  Alcotest.(check int) "trivial" 60
    (Core.Params.trivial_effectiveness ~n:100 ~m:5 ~f:2)

let test_log2_ceil () =
  Alcotest.(check int) "1" 1 (Core.Params.log2_ceil 1);
  Alcotest.(check int) "2" 1 (Core.Params.log2_ceil 2);
  Alcotest.(check int) "3" 2 (Core.Params.log2_ceil 3);
  Alcotest.(check int) "4" 2 (Core.Params.log2_ceil 4);
  Alcotest.(check int) "5" 3 (Core.Params.log2_ceil 5);
  Alcotest.(check int) "1024" 10 (Core.Params.log2_ceil 1024);
  Alcotest.(check int) "1025" 11 (Core.Params.log2_ceil 1025);
  Alcotest.check_raises "0 rejected"
    (Invalid_argument "Params.log2_ceil: x must be >= 1") (fun () ->
      ignore (Core.Params.log2_ceil 0))

let test_pp () =
  let p = Core.Params.make ~n:10 ~m:2 ~beta:3 in
  Alcotest.(check string) "pp" "(n=10, m=2, beta=3)"
    (Format.asprintf "%a" Core.Params.pp p)

let test_job () =
  Alcotest.(check int) "none is 0" 0 Core.Job.none;
  Alcotest.(check bool) "valid" true (Core.Job.is_valid ~n:5 3);
  Alcotest.(check bool) "zero invalid" false (Core.Job.is_valid ~n:5 0);
  Alcotest.(check bool) "above n invalid" false (Core.Job.is_valid ~n:5 6);
  Alcotest.(check int) "universe" 7 (Ostree.cardinal (Core.Job.universe ~n:7));
  Alcotest.(check (list int)) "range set" [ 3; 4 ]
    (Ostree.elements (Core.Job.range_set ~lo:3 ~hi:4));
  Alcotest.(check string) "pp" "job#4" (Format.asprintf "%a" Core.Job.pp 4)

(* [universe] keeps the last tree it built: a repeated [n] shares it, a
   new [n] builds the right set. *)
let test_job_universe_shared () =
  List.iter
    (fun n ->
      let u = Core.Job.universe ~n in
      Alcotest.(check bool)
        (Printf.sprintf "universe %d = of_range 1 %d" n n)
        true
        (Ostree.equal u (Ostree.of_range 1 n));
      Alcotest.(check bool)
        (Printf.sprintf "universe %d shared when repeated" n)
        true
        (Core.Job.universe ~n == u))
    [ 7; 3; 7; 0; 12; 1; 12; 3 ]

(* Two domains alternating between different [n] each get their own
   set on every call, whatever the other last stored. *)
let test_job_universe_domains () =
  let worker n () =
    let ok = ref true in
    for _ = 1 to 2_000 do
      let u = Core.Job.universe ~n in
      if Ostree.cardinal u <> n || Ostree.max_elt u <> n then ok := false
    done;
    !ok
  in
  let d1 = Domain.spawn (worker 5) and d2 = Domain.spawn (worker 9) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "n = 5 domain" true ok1;
  Alcotest.(check bool) "n = 9 domain" true ok2

let test_event () =
  let open Shm.Event in
  Alcotest.(check int) "pid of do" 3 (pid (Do { p = 3; job = 1 }));
  Alcotest.(check int) "pid of crash" 2 (pid (Crash { p = 2 }));
  Alcotest.(check bool) "is_do" true (is_do (Do { p = 1; job = 1 }));
  Alcotest.(check bool) "not is_do" false (is_do (Terminate { p = 1 }));
  Alcotest.(check string) "to_string do" "do(p=1, job=9)"
    (to_string (Do { p = 1; job = 9 }));
  Alcotest.(check string) "to_string write" "write(p=2, next[1]<-5)"
    (to_string (Write { p = 2; cell = "next[1]"; value = 5; wid = 0 }))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "parameter regimes" `Quick test_regimes;
    Alcotest.test_case "predictions" `Quick test_predictions;
    Alcotest.test_case "log2_ceil" `Quick test_log2_ceil;
    Alcotest.test_case "params pp" `Quick test_pp;
    Alcotest.test_case "job helpers" `Quick test_job;
    Alcotest.test_case "job universe shared per n" `Quick
      test_job_universe_shared;
    Alcotest.test_case "job universe across domains" `Quick
      test_job_universe_domains;
    Alcotest.test_case "event helpers" `Quick test_event;
  ]
