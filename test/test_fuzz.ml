(* Tests for the coverage-guided fuzzer (ISSUE 8):

   - the generic Analysis.Fuzz engine on a deterministic toy harness
     (budget accounting, seed handling, novelty-gated keeping,
     violation tracking, stop-on-violation, determinism);
   - QCheck properties over plan-space mutation: every mutant
     satisfies Plan.validate, Fixed schedules stay well-formed, and
     mutants round-trip through the Plan JSON codec unchanged;
   - the integration claim: the guided loop re-finds the skip-check
     mutant and ddmin-shrinks it to a replayable plan;
   - `amo_run fuzz` CLI: --help golden and the documented exit codes
     (0 clean, 1 violation found, 2 bad corpus). *)

module F = Analysis.Fuzz
module P = Fault.Plan

let qtest = Helpers.qtest

let read_file = Helpers.read_file

let golden = Helpers.golden

(* ---- the generic engine on a toy harness ---- *)

(* Deterministic toy input space: ints, mutation is +1, coverage is
   the value folded through [project].  No randomness in the harness
   itself, so every assertion is exact.  Projections must stay
   nonzero: the seen table reserves fingerprint 0 for empty slots and
   remaps it to 1, so 0 and 1 would collide. *)
let toy ?(violates = fun _ -> false) ~project () =
  {
    F.mutate = (fun _rng x -> x + 1);
    F.execute =
      (fun x -> { F.states = [ project x ]; violating = violates x; pinned = x });
  }

let test_budget_accounting () =
  let execs_seen = ref 0 and keeps = ref 0 in
  let o =
    F.run ~seed:1 ~budget:50
      ~harness:(toy ~project:(fun x -> x + 1) ())
      ~seeds:[ 0 ]
      ~on_exec:(fun _ -> incr execs_seen)
      ~on_keep:(fun _ -> incr keeps)
      ()
  in
  let st = o.F.stats in
  Alcotest.(check int) "every budgeted exec runs" 50 st.F.execs;
  Alcotest.(check int) "on_exec fires per exec" 50 !execs_seen;
  Alcotest.(check int) "one lookup per exec here" 50 st.F.lookups;
  Alcotest.(check int) "on_keep fires per kept" st.F.kept !keeps;
  Alcotest.(check int) "corpus counter matches list"
    (List.length o.F.final_corpus) st.F.corpus;
  Alcotest.(check int) "violation-free" 0 st.F.violations;
  Alcotest.(check (option int)) "no first violation" None
    st.F.first_violation_exec;
  let hr = F.hit_rate st in
  Alcotest.(check bool) "hit rate in [0,1]" true (hr >= 0. && hr <= 1.)

let test_seeds_kept_even_without_budget () =
  (* seeds enter the corpus unconditionally — with zero budget they
     are kept raw (unexecuted), in order *)
  let o =
    F.run ~seed:1 ~budget:0
      ~harness:(toy ~project:(fun x -> x) ())
      ~seeds:[ 7; 8; 9 ] ()
  in
  Alcotest.(check int) "no executions" 0 o.F.stats.F.execs;
  Alcotest.(check (list int)) "all seeds kept in order" [ 7; 8; 9 ]
    o.F.final_corpus

let test_coverage_saturation () =
  (* 4 reachable fingerprints: novelty-gated keeping must stop at 4
     keepers and the table must report exactly 4 distinct states *)
  let o =
    F.run ~seed:3 ~budget:200
      ~harness:(toy ~project:(fun x -> (x mod 4) + 1) ())
      ~seeds:[ 0 ] ()
  in
  let st = o.F.stats in
  Alcotest.(check int) "distinct saturates at 4" 4 st.F.distinct_states;
  Alcotest.(check bool) "keeping is novelty-gated" true (st.F.kept <= 4);
  Alcotest.(check (Alcotest.float 1e-9)) "hit rate accounts the rest"
    (float_of_int (200 - 4) /. 200.)
    (F.hit_rate st)

let test_stop_on_violation () =
  let o =
    F.run ~stop_on_violation:true ~seed:5 ~budget:500
      ~harness:(toy ~violates:(fun x -> x >= 5) ~project:(fun x -> x + 1) ())
      ~seeds:[ 0 ] ()
  in
  let st = o.F.stats in
  Alcotest.(check int) "exactly one violation" 1 st.F.violations;
  Alcotest.(check (option int)) "loop stopped at the violating exec"
    (Some st.F.execs) st.F.first_violation_exec;
  Alcotest.(check bool) "stopped before the budget" true (st.F.execs < 500);
  match o.F.failures with
  | [ x ] -> Alcotest.(check bool) "failure is the violating input" true (x >= 5)
  | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l)

let test_novelty_curve_monotone () =
  let o =
    F.run ~seed:11 ~budget:2000
      ~harness:(toy ~project:(fun x -> (x mod 32) + 1) ())
      ~seeds:[ 0 ] ()
  in
  let st = o.F.stats in
  let rec mono = function
    | (e1, d1) :: ((e2, d2) :: _ as rest) ->
        e1 < e2 && d1 <= d2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "novelty samples are monotone" true (mono st.F.novelty);
  (match List.rev st.F.novelty with
  | (_, last) :: _ ->
      Alcotest.(check bool) "final distinct >= last sample" true
        (st.F.distinct_states >= last)
  | [] -> Alcotest.fail "novelty curve is empty");
  Alcotest.(check int) "curve saturates at the state count" 32
    st.F.distinct_states

let test_engine_deterministic () =
  let go () =
    F.run ~seed:42 ~budget:120
      ~harness:(toy ~project:(fun x -> (x mod 7) + 1) ())
      ~seeds:[ 0; 3 ] ()
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "equal stats" true (a.F.stats = b.F.stats);
  Alcotest.(check (list int)) "equal corpora" a.F.final_corpus b.F.final_corpus

let test_engine_rejects_bad_args () =
  let h = toy ~project:(fun x -> x) () in
  Alcotest.check_raises "empty seeds"
    (Invalid_argument "Fuzz.run: empty seed list") (fun () ->
      ignore (F.run ~seed:1 ~budget:10 ~harness:h ~seeds:[] ()));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Fuzz.run: negative budget") (fun () ->
      ignore (F.run ~seed:1 ~budget:(-1) ~harness:h ~seeds:[ 0 ] ()))

(* ---- plan-space mutation properties ---- *)

(* Mutation preserves the full plan contract: k successive mutants of
   any generated plan (shm or net) still validate, and a Fixed
   schedule stays well-formed, i.e. replayable. *)
let prop_mutation_preserves_validity =
  QCheck.Test.make ~name:"mutants validate; Fixed schedules well-formed"
    ~count:150
    QCheck.(triple (int_range 0 100_000) (int_range 1 12) bool)
    (fun (seed, k, net) ->
      let rng = Util.Prng.of_int seed in
      let m = 2 + Util.Prng.int rng 3 in
      let n = m + Util.Prng.int rng 8 in
      let plan =
        if net then P.gen_net ~name:"fz" ~n ~m ~beta:m ~servers:3 rng
        else P.gen ~recovery:(Util.Prng.bool rng) ~name:"fz" ~n ~m ~beta:m rng
      in
      let rec go k p = if k = 0 then p else go (k - 1) (Fault.Fuzz.mutate rng p) in
      let p = go k plan in
      (match P.validate p with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "mutant invalid: %s" e);
      match p.P.sched with
      | P.Fixed picks -> Shm.Schedule.well_formed ~m:p.P.m picks
      | _ -> true)

(* Mutants survive the JSON codec unchanged — corpus persistence is
   lossless for anything the fuzzer can produce. *)
let prop_mutant_json_roundtrip =
  QCheck.Test.make ~name:"mutant plans JSON round-trip" ~count:150
    QCheck.(triple (int_range 0 100_000) (int_range 1 8) bool)
    (fun (seed, k, net) ->
      let rng = Util.Prng.of_int seed in
      let m = 2 + Util.Prng.int rng 3 in
      let n = m + Util.Prng.int rng 8 in
      let plan =
        if net then P.gen_net ~name:"rt" ~n ~m ~beta:m ~servers:3 rng
        else P.gen ~recovery:true ~name:"rt" ~n ~m ~beta:m rng
      in
      let rec go k p = if k = 0 then p else go (k - 1) (Fault.Fuzz.mutate rng p) in
      let p = go k plan in
      match P.of_string (P.to_string p) with
      | Ok p' -> p' = p
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

(* ---- execute: pinning makes corpus entries deterministic ---- *)

let test_pinned_replay_deterministic () =
  let seeds =
    Fault.Fuzz.default_seeds ~seed:3 ~n:4 ~m:2 ~beta:2 ()
  in
  List.iter
    (fun plan ->
      if plan.P.net = [] then begin
        let ex = Fault.Fuzz.execute plan in
        let pinned = ex.F.pinned in
        (match pinned.P.sched with
        | P.Fixed _ -> ()
        | _ -> Alcotest.failf "%s: pinned plan is not Fixed" plan.P.name);
        let r1 = Fault.Chaos.run_plan pinned in
        let r2 = Fault.Chaos.run_plan pinned in
        Alcotest.(check (list int))
          (plan.P.name ^ ": replay schedule is stable")
          r1.Fault.Chaos.schedule r2.Fault.Chaos.schedule;
        Alcotest.(check int)
          (plan.P.name ^ ": replay do-count is stable")
          r1.Fault.Chaos.do_count r2.Fault.Chaos.do_count
      end)
    seeds

(* ---- integration: the guided loop re-finds a seeded mutant ---- *)

let test_skip_check_found_and_shrunk () =
  let seeds =
    Fault.Fuzz.default_seeds ~algo:P.Kk_mutant_skip_check ~seed:1 ~n:4 ~m:2
      ~beta:2 ()
  in
  let o =
    F.run ~stop_on_violation:true ~seed:1 ~budget:400
      ~harness:(Fault.Fuzz.harness ()) ~seeds ()
  in
  (match o.F.stats.F.first_violation_exec with
  | Some _ -> ()
  | None -> Alcotest.fail "skip-check mutant not found in 400 execs");
  match o.F.failures with
  | [] -> Alcotest.fail "violation counted but no failing plan recorded"
  | failing :: _ -> (
      match Fault.Fuzz.minimize failing with
      | None -> Alcotest.fail "failing corpus entry did not reproduce"
      | Some (mp, mr) ->
          Alcotest.(check bool) "shrunk run still violates" true
            (mr.Fault.Chaos.violations <> []);
          (* the shrunk plan replays to a violation on a fresh run *)
          let replay = Fault.Chaos.run_plan mp in
          Alcotest.(check bool) "shrunk plan replays the violation" true
            (replay.Fault.Chaos.violations <> []))

(* ---- amo_run fuzz CLI: help golden and exit codes ---- *)

let amo_exe = Helpers.amo_exe
let run_capture = Helpers.run_capture
let exit_code = Helpers.exit_code

let temp_dir = Helpers.temp_dir

let test_fuzz_help_golden () =
  let out, status =
    run_capture (Filename.quote (amo_exe ()) ^ " fuzz --help")
  in
  Alcotest.(check string) "help text" (read_file (golden "fuzz_help.txt")) out;
  Alcotest.(check int) "--help exits 0" 0 (exit_code status)

let test_fuzz_exit_codes () =
  let exe = Filename.quote (amo_exe ()) in
  (* 0: a clean bounded run on the real algorithm *)
  let out_dir = temp_dir "amo_fuzz_out" in
  let _, status =
    run_capture
      (Printf.sprintf
         "%s fuzz --budget 40 --jobs 4 --procs 2 --seed 3 --out-dir %s \
          >/dev/null 2>&1"
         exe (Filename.quote out_dir))
  in
  Alcotest.(check int) "clean run exits 0" 0 (exit_code status);
  (* 1: a violation found (seeded mutant, stop at first find) *)
  let _, status =
    run_capture
      (Printf.sprintf
         "%s fuzz --budget 400 --jobs 4 --procs 2 --seed 1 --algo skip-check \
          --stop-on-violation --out-dir %s >/dev/null 2>&1"
         exe (Filename.quote out_dir))
  in
  Alcotest.(check int) "violation found exits 1" 1 (exit_code status);
  (* the counterexample artifact lands in --out-dir and replays *)
  let artifacts =
    Sys.readdir out_dir |> Array.to_list
    |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "FUZZ_")
  in
  Alcotest.(check bool) "FUZZ_*.json artifact written" true (artifacts <> []);
  (match P.load (Filename.concat out_dir (List.hd artifacts)) with
  | Ok p ->
      let r = Fault.Chaos.run_plan p in
      Alcotest.(check bool) "artifact replays the violation" true
        (r.Fault.Chaos.violations <> [])
  | Error e -> Alcotest.failf "artifact does not parse: %s" e);
  (* 2: a corpus entry that does not parse *)
  let bad_dir = temp_dir "amo_fuzz_corpus" in
  let oc = open_out (Filename.concat bad_dir "bad.json") in
  output_string oc "{ not json";
  close_out oc;
  let _, status =
    run_capture
      (Printf.sprintf
         "%s fuzz --budget 20 --jobs 4 --procs 2 --corpus %s >/dev/null 2>&1"
         exe (Filename.quote bad_dir))
  in
  Alcotest.(check int) "bad corpus exits 2" 2 (exit_code status)

let suite =
  [
    Alcotest.test_case "engine: budget accounting" `Quick test_budget_accounting;
    Alcotest.test_case "engine: seeds kept without budget" `Quick
      test_seeds_kept_even_without_budget;
    Alcotest.test_case "engine: coverage saturation gates keeping" `Quick
      test_coverage_saturation;
    Alcotest.test_case "engine: stop on violation" `Quick test_stop_on_violation;
    Alcotest.test_case "engine: novelty curve monotone" `Quick
      test_novelty_curve_monotone;
    Alcotest.test_case "engine: deterministic in the seed" `Quick
      test_engine_deterministic;
    Alcotest.test_case "engine: rejects bad arguments" `Quick
      test_engine_rejects_bad_args;
    qtest prop_mutation_preserves_validity;
    qtest prop_mutant_json_roundtrip;
    Alcotest.test_case "pinned corpus entries replay deterministically" `Quick
      test_pinned_replay_deterministic;
    Alcotest.test_case "skip-check mutant re-found and shrunk" `Quick
      test_skip_check_found_and_shrunk;
    Alcotest.test_case "fuzz --help golden" `Quick test_fuzz_help_golden;
    Alcotest.test_case "fuzz exit codes 0/1/2" `Quick test_fuzz_exit_codes;
  ]
