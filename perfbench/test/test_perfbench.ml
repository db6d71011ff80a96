(* The benchmark's arithmetic on fixed inputs. *)

let feq = Alcotest.float 1e-9

(* A tracer on a clock the test sets by hand. *)
let manual_tracer names =
  let clock = ref 0 in
  let tr =
    Tracer.create ~now:(fun () -> !clock) ~sink:(Obs.Sink.memory ()) names
  in
  (tr, clock)

let test_self_time () =
  let tr, clock = manual_tracer [| "run"; "step"; "set" |] in
  let at t f = clock := t; f () in
  (* run [0,100] > step [10,30], step [40,70] > set [45,55] *)
  at 0 (fun () -> Tracer.enter tr 0);
  at 10 (fun () -> Tracer.enter tr 1);
  at 30 (fun () -> Tracer.exit tr);
  at 40 (fun () -> Tracer.enter tr 1);
  at 45 (fun () -> Tracer.enter tr 2);
  at 55 (fun () -> Tracer.exit tr);
  at 70 (fun () -> Tracer.exit tr);
  at 100 (fun () -> Tracer.exit tr);
  Alcotest.check feq "run total" 100. (Tracer.total_ns tr 0);
  Alcotest.check feq "run self = 100 - 20 - 30" 50. (Tracer.self_ns tr 0);
  Alcotest.check feq "step total" 50. (Tracer.total_ns tr 1);
  Alcotest.check feq "step self = 20 + (30 - 10)" 40. (Tracer.self_ns tr 1);
  Alcotest.check feq "set self" 10. (Tracer.self_ns tr 2);
  Alcotest.(check int) "step count" 2 (Tracer.count tr 1)

let test_spans_kept () =
  let tr, clock = manual_tracer [| "run"; "step" |] in
  Tracer.begin_instance tr;
  Tracer.enter tr 0;
  clock := 5;
  Tracer.span tr 1 (fun () -> clock := 7);
  clock := 9;
  Tracer.exit tr;
  Tracer.end_instance tr;
  let spans =
    List.map
      (fun (r : Obs.Sink.record) -> (r.name, r.ts, r.dur, List.assoc "parent" r.args))
      (Obs.Sink.records tr.sink)
  in
  Alcotest.(check (list (pair string (pair int int))))
    "name, start, duration"
    [ ("step", (5, 2)); ("run", (0, 9)) ]
    (List.map (fun (n, ts, d, _) -> (n, (ts, d))) spans);
  match spans with
  | [ (_, _, _, Obs.Json.Int parent); (_, _, _, Obs.Json.Int root) ] ->
      Alcotest.(check int) "child's parent is the run span" 1 parent;
      Alcotest.(check int) "run span has no parent" 0 root
  | _ -> Alcotest.fail "expected two spans"

let test_span_allocates_nothing () =
  let tr = Tracer.create ~sink:Obs.Sink.null [| "empty" |] in
  for _ = 1 to 1000 do
    Tracer.enter tr 0;
    Tracer.exit tr
  done;
  Alcotest.check feq "self words of empty spans" 0. (Tracer.self_words tr 0)

let test_tail_percentile () =
  let check count expected =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "%d samples" count)
      expected
      (Measure.tail_percentile ~count)
  in
  check 19 None;
  check 20 (Some 50.);
  check 39 (Some 50.);
  check 40 (Some 75.);
  check 100 (Some 90.);
  check 200 (Some 95.);
  check 1000 (Some 99.);
  check 9999 (Some 99.);
  check 10000 (Some 99.9);
  let s = Measure.summarize (List.init 40 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "median" 20.5 s.p50;
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "p75 leaves ten samples beyond it" (Some (75., 30.)) s.tail

let test_budget_used () =
  (* n = 100, m = 4, β = 4: each instance may lose β + m − 2 + r jobs *)
  let share, lost, allowed =
    Measure.budget_used ~n:100 ~m:4 ~beta:4 [ (94, 0); (95, 0) ]
  in
  Alcotest.(check (pair int int)) "no restarts: lost, allowed" (11, 12) (lost, allowed);
  Alcotest.check feq "no restarts: share" (11. /. 12.) share;
  let share, _, allowed =
    Measure.budget_used ~n:100 ~m:4 ~beta:4 [ (94, 1); (95, 2) ]
  in
  Alcotest.(check int) "restarts widen the allowance" 15 allowed;
  Alcotest.check feq "restarts: share" (11. /. 15.) share

let test_failed_frac () =
  Alcotest.check feq "failed over attempted" 0.25
    (Measure.failed_frac ~failed:1 ~attempted:4);
  Alcotest.check feq "none failed" 0. (Measure.failed_frac ~failed:0 ~attempted:7);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Measure.failed_frac: nothing attempted") (fun () ->
      ignore (Measure.failed_frac ~failed:0 ~attempted:0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Measure.failed_frac: failed outside 0..attempted")
    (fun () -> ignore (Measure.failed_frac ~failed:3 ~attempted:2))

let test_overhead () =
  let diff, frac = Measure.overhead ~untraced:100_000. ~traced:80_000. in
  Alcotest.check feq "difference" 20_000. diff;
  Alcotest.check feq "share of untraced" 0.2 frac;
  let diff, _ = Measure.overhead ~untraced:100. ~traced:101. in
  Alcotest.check feq "a faster traced run gives a negative overhead" (-1.) diff

let test_ref_units () =
  let reference = [ 0.05; 0.04; 0.06 ] in
  Alcotest.check feq "one ref is the median sample" 0.05 (Measure.ref_unit reference);
  Alcotest.check feq "even count: midpoint" 0.045 (Measure.ref_unit [ 0.04; 0.05 ]);
  Alcotest.check feq "time in refs" 40. (Measure.in_refs ~reference 2.);
  Alcotest.check feq "jobs per ref" 25.
    (Measure.jobs_per_ref ~reference ~jobs:1000 ~seconds:2.);
  let slower = List.map (fun r -> r *. 1.3) reference in
  Alcotest.check feq "a host 1.3x slower for both leaves jobs per ref unchanged" 25.
    (Measure.jobs_per_ref ~reference:slower ~jobs:1000 ~seconds:2.6);
  Alcotest.check_raises "no reference samples"
    (Invalid_argument "Measure.ref_unit: no reference samples") (fun () ->
      ignore (Measure.ref_unit []))

let test_histogram_median () =
  Alcotest.check feq "empty" 0. (Measure.histogram_median [| 0; 0 |]);
  Alcotest.check feq "lower median" 1. (Measure.histogram_median [| 1; 1; 1; 1 |]);
  Alcotest.check feq "skewed" 3. (Measure.histogram_median [| 1; 0; 0; 5; 1 |])

let () =
  Alcotest.run "perfbench"
    [
      ( "tracer",
        [
          Alcotest.test_case "self time subtracts child spans" `Quick test_self_time;
          Alcotest.test_case "kept spans carry parent ids" `Quick test_spans_kept;
          Alcotest.test_case "spans allocate nothing" `Quick test_span_allocates_nothing;
        ] );
      ( "measure",
        [
          Alcotest.test_case "ten-beyond percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "budget_used with restarts" `Quick test_budget_used;
          Alcotest.test_case "failed_frac base" `Quick test_failed_frac;
          Alcotest.test_case "tracing overhead" `Quick test_overhead;
          Alcotest.test_case "histogram median" `Quick test_histogram_median;
          Alcotest.test_case "reference units" `Quick test_ref_units;
        ] );
    ]
