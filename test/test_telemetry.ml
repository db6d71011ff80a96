(* Tests for the online-telemetry layer: mergeable quantile sketches
   (error bound, exact merge, k = 1 degeneration to a log-bucketed
   histogram),
   the streaming oracle monitor (verdicts byte-identical to
   Analysis.Oracle, fail-fast soak abort),
   Prometheus exposition rendering, dashboard frames, JSON string
   escaping under fuzz, and the compare.exe --help golden. *)

module J = Obs.Json
module Sk = Obs.Sketch
module M = Obs.Monitor
module P = Fault.Plan
module C = Fault.Chaos

let qtest = Helpers.qtest

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runs the suite from test/, a manual `dune exec` from the
   project root; goldens resolve from either. *)
let golden name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

(* ---- sketch ---- *)

let exact_percentile sorted p =
  let c = Array.length sorted in
  if p >= 100. then sorted.(c - 1)
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int c))) in
    sorted.(rank - 1)

let test_sketch_basics () =
  let sk = Sk.create () in
  Alcotest.(check int) "default k" 32 Sk.default_sub_buckets;
  Alcotest.(check int) "k" 32 (Sk.sub_buckets sk);
  Alcotest.(check int) "empty count" 0 (Sk.count sk);
  Alcotest.(check int) "empty percentile" 0 (Sk.percentile sk 50.);
  List.iter (Sk.add sk) [ 5; 1; 700; 700; -3 ];
  Alcotest.(check int) "count" 5 (Sk.count sk);
  Alcotest.(check int) "min (negative clamps)" 0 (Sk.min_value sk);
  Alcotest.(check int) "max" 700 (Sk.max_value sk);
  Alcotest.(check int) "p100 exact max" 700 (Sk.percentile sk 100.);
  Alcotest.check_raises "k must be a power of two"
    (Invalid_argument
       "Sketch.create: sub_buckets must be a positive power of two")
    (fun () -> ignore (Sk.create ~sub_buckets:3 ()));
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Sketch.percentile: p in [0,100]") (fun () ->
      ignore (Sk.percentile sk 101.))

let test_sketch_merge_mismatch () =
  (* regression: the error must name BOTH k values, in argument order,
     so a mis-sharded pipeline is diagnosable from the message alone *)
  Alcotest.check_raises "merge needs equal k"
    (Invalid_argument
       "Sketch.merge: cannot merge sketches with differing sub_buckets (8 vs \
        4) — their bucket grids are incompatible") (fun () ->
      ignore (Sk.merge (Sk.create ~sub_buckets:8 ()) (Sk.create ~sub_buckets:4 ())));
  Alcotest.check_raises "argument order preserved"
    (Invalid_argument
       "Sketch.merge: cannot merge sketches with differing sub_buckets (4 vs \
        8) — their bucket grids are incompatible") (fun () ->
      ignore (Sk.merge (Sk.create ~sub_buckets:4 ()) (Sk.create ~sub_buckets:8 ())))

(* QCheck: the (1 + 1/k) relative-error bound against exact sorted
   quantiles, for every k and any sample set. *)
let sketch_bound_prop =
  QCheck.Test.make ~name:"sketch percentile within (1+1/k) of exact" ~count:200
    QCheck.(
      pair
        (int_bound 3)
        (list_of_size Gen.(1 -- 200) (int_bound 2_000_000)))
    (fun (kexp, samples) ->
      let k = 1 lsl (2 * kexp) in
      (* k in {1,4,16,64} *)
      let sk = Sk.create ~sub_buckets:k () in
      List.iter (Sk.add sk) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun p ->
          let exact = exact_percentile sorted p in
          let est = Sk.percentile sk p in
          est >= exact
          && float_of_int est
             <= (float_of_int exact *. (1. +. Sk.relative_error sk)) +. 1e-9)
        [ 0.; 25.; 50.; 90.; 99.; 99.9; 100. ])

(* QCheck: merging shards is exact — any split of the samples yields
   the same percentiles as sketching the whole list. *)
let sketch_merge_prop =
  QCheck.Test.make ~name:"sketch merge of shards == whole" ~count:200
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 1_000_000))
    (fun samples ->
      let whole = Sk.create () in
      let shards = Array.init 4 (fun _ -> Sk.create ()) in
      List.iteri
        (fun i v ->
          Sk.add whole v;
          Sk.add shards.(i mod 4) v)
        samples;
      let merged = Array.fold_left Sk.merge (Sk.create ()) shards in
      Sk.count merged = Sk.count whole
      && Sk.min_value merged = Sk.min_value whole
      && Sk.max_value merged = Sk.max_value whole
      && List.for_all
           (fun p -> Sk.percentile merged p = Sk.percentile whole p)
           [ 10.; 50.; 90.; 99.; 100. ])

(* The upper edge of the power-of-two band [2^(b-1), 2^b - 1] that
   holds [v]; the top band ends at max_int. *)
let band_edge v =
  let rec go e = if e > v then e - 1 else go (2 * e) in
  if v <= 0 then 0 else if v >= 1 lsl 61 then max_int else go 1

(* QCheck: with k = 1 the sketch is a log-bucketed histogram: every
   estimate is the exact quantile's band upper edge, capped at the
   max. *)
let sketch_k1_prop =
  QCheck.Test.make ~name:"sketch k=1 == histogram" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 5_000_000))
    (fun samples ->
      let sk = Sk.create ~sub_buckets:1 () in
      List.iter (Sk.add sk) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let max_v = sorted.(Array.length sorted - 1) in
      List.for_all
        (fun p -> Sk.percentile sk p = min (band_edge (exact_percentile sorted p)) max_v)
        [ 0.; 10.; 50.; 90.; 99.; 99.9; 100. ])

(* ---- streaming monitor ---- *)

let render vs = List.map (fun v -> Format.asprintf "%a" M.pp_violation v) vs

let monitor_of_trace ~n ~m ~beta trace =
  let mon = M.create ~n ~m ~beta () in
  M.observe_trace mon trace;
  mon

(* The monitor's finalize must be byte-identical to the post-hoc
   oracle suite on the committed golden counterexamples — both of
   which actually fire. *)
let test_monitor_agrees_on_goldens () =
  List.iter
    (fun file ->
      match P.load (golden file) with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok plan ->
          let r = C.run_plan plan in
          let mon =
            monitor_of_trace ~n:plan.P.n ~m:plan.P.m ~beta:plan.P.beta
              r.C.trace
          in
          let got = render (M.finalize mon) in
          let want = render r.C.violations in
          Alcotest.(check bool) (file ^ " fires") true (want <> []);
          Alcotest.(check (list string)) (file ^ " byte-identical") want got)
    [ "chaos_skip_check.plan.json"; "chaos_skip_recovery_mark.plan.json" ]

(* ... and on clean runs, including beta < m where Lemma 4.3 gates
   the floor and quiescence oracles off on both sides. *)
let test_monitor_agrees_on_random_plans () =
  let root = Util.Prng.of_int 616 in
  for i = 0 to 7 do
    let beta = if i mod 2 = 0 then 3 else 2 in
    let plan =
      P.gen ~recovery:(i mod 4 = 0) ~stalls:true
        ~name:(Printf.sprintf "telem-%02d" i)
        ~n:10 ~m:3 ~beta (Util.Prng.split root)
    in
    let r = C.run_plan plan in
    let mon = monitor_of_trace ~n:10 ~m:3 ~beta r.C.trace in
    Alcotest.(check (list string))
      (Printf.sprintf "plan %d (beta=%d)" i beta)
      (render r.C.violations)
      (render (M.finalize mon))
  done;
  (* Every process ends permanently crashed: no survivor remains for
     the floor to charge, so it is vacuous on both sides. *)
  let all_crashed = Shm.Trace.create `Outcomes in
  List.iteri
    (fun step e -> Shm.Trace.record all_crashed ~step e)
    [ Shm.Event.Do { p = 1; job = 1 }; Crash { p = 1 }; Crash { p = 2 } ];
  Alcotest.(check (list string)) "all crashed: oracle" []
    (render
       (Analysis.Oracle.check_all
          (Analysis.Oracle.suite ~n:10 ~m:2 ~beta:2)
          all_crashed));
  Alcotest.(check (list string)) "all crashed: monitor" []
    (render (M.finalize (monitor_of_trace ~n:10 ~m:2 ~beta:2 all_crashed)))

let test_monitor_streaming_trip () =
  let mon = M.create ~n:4 ~m:2 ~beta:2 () in
  Alcotest.(check (option reject)) "clean" None (M.tripped mon);
  M.observe mon (Shm.Event.Do { p = 1; job = 3 });
  M.observe mon (Shm.Event.Do { p = 2; job = 3 });
  M.observe mon (Shm.Event.Do { p = 1; job = 3 });
  (match M.tripped mon with
  | None -> Alcotest.fail "should have tripped"
  | Some v ->
      Alcotest.(check string) "oracle" "at-most-once" v.M.oracle;
      Alcotest.(check string) "first repeat, first performer"
        "job 3 performed again by p2 (first by p1)" v.M.detail);
  Alcotest.(check int) "two violations streamed" 2
    (List.length (M.at_most_once mon));
  Alcotest.(check int) "distinct counts jobs once" 1 (M.distinct mon)

(* A fail-fast soak over the skip-check mutant must stop at the first
   streaming violation: aborted = true, and the stats stop at the
   failing run (the non-fail-fast soak of the same seed sees the same
   first failure, shrunk identically). *)
let test_failfast_soak_aborts () =
  let soak ~fail_fast =
    C.soak ~algo:P.Kk_mutant_skip_check ~fail_fast ~seed:1 ~count:64 ~n:4 ~m:2
      ~beta:2 ()
  in
  let plain = soak ~fail_fast:false in
  Alcotest.(check bool) "mutant fails at all" true (plain.C.failures > 0);
  Alcotest.(check bool) "plain soak is not aborted" false plain.C.aborted;
  let ff = soak ~fail_fast:true in
  Alcotest.(check bool) "fail-fast aborts" true ff.C.aborted;
  Alcotest.(check bool) "at least one failure recorded" true (ff.C.failures >= 1);
  Alcotest.(check bool) "stopped early" true (ff.C.runs <= plain.C.runs);
  match ff.C.first_failure with
  | Some (mp, mr) ->
      (* the aborted run is re-run post-hoc and shrunk like any other *)
      Alcotest.(check bool) "shrunk plan renamed -min" true
        (Filename.check_suffix mp.P.name "-min");
      Alcotest.(check bool) "shrunk run still fails" true
        (mr.C.violations <> [])
  | None -> Alcotest.fail "aborted soak must carry its first failure"

(* A fail-fast monitor on a healthy algorithm never aborts. *)
let test_failfast_clean_soak () =
  let s = C.soak ~fail_fast:true ~seed:3 ~count:12 ~n:8 ~m:3 ~beta:3 () in
  Alcotest.(check bool) "clean" false s.C.aborted;
  Alcotest.(check int) "all runs completed" 12 s.C.runs;
  Alcotest.(check int) "no failures" 0 s.C.failures

(* ---- JSON string escaping fuzz ---- *)

(* Any byte string — control characters, quotes, backslashes,
   non-ASCII bytes — must encode to JSON the parser reads back
   verbatim, standalone and as an object key. *)
let json_string_roundtrip_prop =
  QCheck.Test.make ~name:"JSON string escaping round-trips any bytes"
    ~count:1000
    QCheck.(string_gen Gen.(map Char.chr (int_range 0 255)))
    (fun s ->
      let doc = J.Obj [ (s, J.String s) ] in
      match J.parse (J.to_string doc) with
      | Ok (J.Obj [ (k, J.String v) ]) -> String.equal k s && String.equal v s
      | Ok _ -> false
      | Error e -> QCheck.Test.fail_reportf "did not re-parse: %s" e)

let test_json_control_chars () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string)
        (Printf.sprintf "escape %S" raw)
        want
        (J.to_string (J.String raw)))
    [
      ("\n", {|"\n"|});
      ("\t", {|"\t"|});
      ("\"", {|"\""|});
      ("\\", {|"\\"|});
      ("\001", {|"\u0001"|});
      ("\127", "\"\127\"");
      (* DEL passes through: not a JSON control char *)
      ("é", "\"é\"");
      (* raw UTF-8 passes through byte-for-byte *)
    ]

(* ---- Prometheus exposition ---- *)

let test_prom_render () =
  let t = Obs.Prom.create () in
  Obs.Prom.counter t ~name:"amo_runs_total" ~help:"Total runs" 42.;
  Obs.Prom.gauge t ~name:"amo_aborted" ~help:"Soak aborted" 0.;
  Obs.Prom.counter t ~name:"amo_fate_total" ~help:"Jobs by fate"
    ~labels:[ ("fate", "performed") ]
    10.;
  Obs.Prom.counter t ~name:"amo_fate_total" ~help:"Jobs by fate"
    ~labels:[ ("fate", "weird\"\n\\") ]
    1.;
  let sk = Sk.create () in
  List.iter (Sk.add sk) [ 1; 2; 3; 100 ];
  Obs.Prom.of_sketch t ~name:"amo_steps" ~help:"Steps per run" sk;
  let out = Obs.Prom.render t in
  let has needle =
    Alcotest.(check bool) ("contains " ^ String.escaped needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec scan i =
         i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
       in
       scan 0)
  in
  has "# HELP amo_runs_total Total runs\n";
  has "# TYPE amo_runs_total counter\n";
  has "amo_runs_total 42\n";
  has "# TYPE amo_aborted gauge\n";
  has "amo_fate_total{fate=\"performed\"} 10\n";
  (* label values escape backslash, double-quote and newline *)
  has "amo_fate_total{fate=\"weird\\\"\\n\\\\\"} 1\n";
  has "# TYPE amo_steps histogram\n";
  has "amo_steps_bucket{le=\"+Inf\"} 4\n";
  has "amo_steps_sum 106\n";
  has "amo_steps_count 4\n";
  (* HELP/TYPE once per name even with two labeled series *)
  let count_sub needle =
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length out then acc
      else go (i + 1) (if String.sub out i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE line per name" 1
    (count_sub "# TYPE amo_fate_total");
  Alcotest.check_raises "invalid metric name"
    (Invalid_argument "Prom.add: invalid metric name \"bad-name\"") (fun () ->
      Obs.Prom.counter t ~name:"bad-name" ~help:"x" 0.)

(* A snapshot goes out through the one file writer, into a directory
   it creates. *)
let test_prom_write_file_atomic () =
  let dir = Filename.temp_file "prom" "" in
  Sys.remove dir;
  let t = Obs.Prom.create () in
  Obs.Prom.counter t ~name:"x_total" ~help:"x" 1.;
  let path = Filename.concat dir "amo.prom" in
  Util.Files.write path (Obs.Prom.render t);
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check string) "content" (Obs.Prom.render t) (read_file path);
  Sys.remove path;
  Sys.rmdir dir

(* HELP text escapes backslash and newline (a different escape set
   from label values: quotes pass through), and an empty label set
   renders with no braces at all — `m{} 1` is valid exposition text
   but non-canonical. *)
let test_prom_help_escaping_and_empty_labels () =
  let t = Obs.Prom.create () in
  Obs.Prom.counter t ~name:"m_total" ~help:"line1\nline2 \\ \"quoted\"" 1.;
  Obs.Prom.gauge t ~name:"g" ~help:"g" ~labels:[] 2.;
  let out = Obs.Prom.render t in
  let has needle =
    Alcotest.(check bool) ("contains " ^ String.escaped needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec scan i =
         i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
       in
       scan 0)
  in
  has "# HELP m_total line1\\nline2 \\\\ \"quoted\"\n";
  has "\ng 2\n";
  (* no "g{}" anywhere *)
  Alcotest.(check bool) "no empty braces" false
    (let needle = "{}" in
     let nl = String.length needle and ol = String.length out in
     let rec scan i =
       i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
     in
     scan 0)

let test_prom_nonfinite_rejected () =
  let t = Obs.Prom.create () in
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "counter rejects %h" v)
        (Invalid_argument (Printf.sprintf "Prom.add: non-finite sample %h" v))
        (fun () -> Obs.Prom.counter t ~name:"x_total" ~help:"x" v);
      Alcotest.check_raises
        (Printf.sprintf "gauge rejects %h" v)
        (Invalid_argument (Printf.sprintf "Prom.add: non-finite sample %h" v))
        (fun () -> Obs.Prom.gauge t ~name:"x" ~help:"x" v))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* nothing was registered by the rejected calls *)
  Alcotest.(check string) "registry untouched" "" (Obs.Prom.render t)

(* QCheck: any byte string is safe as HELP text and as a label value —
   the rendered exposition never contains a raw newline inside a HELP
   line or a label value (the two places a newline would corrupt the
   line-oriented format), and rendering never raises. *)
let prom_escaping_fuzz_prop =
  QCheck.Test.make ~name:"prom HELP/label escaping yields one-line records"
    ~count:500
    QCheck.(
      pair
        (string_gen Gen.(map Char.chr (int_range 0 255)))
        (string_gen Gen.(map Char.chr (int_range 0 255))))
    (fun (help, label_v) ->
      let t = Obs.Prom.create () in
      Obs.Prom.counter t ~name:"fuzz_total" ~help
        ~labels:[ ("k", label_v) ]
        1.;
      let out = Obs.Prom.render t in
      (* every line is either a comment or a sample ending in " 1";
         raw newlines in inputs must have been escaped away *)
      String.split_on_char '\n' out
      |> List.for_all (fun line ->
             line = ""
             || String.length line >= 2
                && (String.sub line 0 2 = "# "
                   || String.sub line (String.length line - 2) 2 = " 1")))

(* ---- sketch accessors ---- *)

let test_sketch_sum_count_accessors () =
  let sk = Sk.create () in
  Alcotest.(check (float 0.)) "empty total" 0. (Sk.total sk);
  List.iter (Sk.add sk) [ 3; 0; 41; 7 ];
  Alcotest.(check int) "count" 4 (Sk.count sk);
  Alcotest.(check (float 0.)) "total is exact" 51. (Sk.total sk);
  let other = Sk.create () in
  List.iter (Sk.add other) [ 9; 100 ];
  let merged = Sk.merge sk other in
  Alcotest.(check (float 0.)) "merge sums totals" 160. (Sk.total merged);
  Alcotest.(check int) "merge sums counts" 6 (Sk.count merged)

(* ---- dashboard frames ---- *)

let test_dashboard_render () =
  let sk = Sk.create () in
  List.iter (Sk.add sk) [ 10; 20; 30; 40 ];
  let frame () =
    Obs.Dashboard.render ~title:"soak n=8 m=3" ~status:"OK"
      [
        Obs.Dashboard.section ~title:"progress"
          [
            Obs.Dashboard.gauge ~label:"plans" ~frac:0.5 "5 / 10";
            Obs.Dashboard.kv "steps" "1234";
            Obs.Dashboard.kvf "throughput" "%.1f jobs/s" 42.5;
          ];
        Obs.Dashboard.section ~title:"latency"
          [
            Obs.Dashboard.percentiles ~label:"steps/job" sk;
            Obs.Dashboard.spark ~label:"trend" [ 1; 2; 3; 4 ];
          ];
      ]
  in
  let out = frame () in
  Alcotest.(check string) "pure renderer" out (frame ());
  let has needle =
    Alcotest.(check bool) ("contains " ^ needle) true
      (let nl = String.length needle and ol = String.length out in
       let rec scan i =
         i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
       in
       scan 0)
  in
  has "soak n=8 m=3";
  has "OK";
  has "progress";
  has "5 / 10";
  has "1234";
  has "42.5 jobs/s";
  has "p50=";
  has "max=40";
  Alcotest.(check bool) "frame ends with newline" true
    (out.[String.length out - 1] = '\n')

(* ---- compare.exe --help golden ---- *)

let compare_exe () =
  List.find Sys.file_exists
    [ "../bench/compare.exe"; "bench/compare.exe"; "_build/default/bench/compare.exe" ]

let run_capture cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (Buffer.contents buf, status)

let test_compare_help_golden () =
  let out, status = run_capture (Filename.quote (compare_exe ()) ^ " --help") in
  Alcotest.(check string) "help text" (read_file (golden "compare_help.txt")) out;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "--help must exit 0");
  (* usage errors keep exit code 2 (documented in the help text) *)
  let _, status = run_capture (Filename.quote (compare_exe ()) ^ " 2>/dev/null") in
  match status with
  | Unix.WEXITED 2 -> ()
  | _ -> Alcotest.fail "usage error must exit 2"

let suite =
  [
    Alcotest.test_case "sketch basics" `Quick test_sketch_basics;
    Alcotest.test_case "sketch merge k mismatch" `Quick
      test_sketch_merge_mismatch;
    qtest sketch_bound_prop;
    qtest sketch_merge_prop;
    qtest sketch_k1_prop;
    Alcotest.test_case "monitor agrees on golden counterexamples" `Quick
      test_monitor_agrees_on_goldens;
    Alcotest.test_case "monitor agrees on random plans" `Quick
      test_monitor_agrees_on_random_plans;
    Alcotest.test_case "monitor streams at-most-once trips" `Quick
      test_monitor_streaming_trip;
    Alcotest.test_case "fail-fast soak aborts on mutant" `Quick
      test_failfast_soak_aborts;
    Alcotest.test_case "fail-fast soak clean" `Quick test_failfast_clean_soak;
    qtest json_string_roundtrip_prop;
    Alcotest.test_case "JSON control-char escaping" `Quick
      test_json_control_chars;
    Alcotest.test_case "prometheus exposition" `Quick test_prom_render;
    Alcotest.test_case "prometheus HELP escaping and empty labels" `Quick
      test_prom_help_escaping_and_empty_labels;
    Alcotest.test_case "prometheus rejects non-finite samples" `Quick
      test_prom_nonfinite_rejected;
    qtest prom_escaping_fuzz_prop;
    Alcotest.test_case "sketch sum/count accessors" `Quick
      test_sketch_sum_count_accessors;
    Alcotest.test_case "prometheus atomic write" `Quick
      test_prom_write_file_atomic;
    Alcotest.test_case "dashboard frame" `Quick test_dashboard_render;
    Alcotest.test_case "compare --help golden" `Quick test_compare_help_golden;
  ]
