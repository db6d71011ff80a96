(* Tests for the observability layer (lib/obs): k = 1 sketches as
   log-bucketed histograms, the dependency-free JSON codec, versioned
   bench snapshots with regression diffing, the bounded record sink,
   job-fate ledgers, causal spans, register heatmaps, a golden
   byte-stable Chrome trace and HTML report, and the guarantee that
   library code is silent unless logging is enabled. *)

module J = Obs.Json
module Sk = Obs.Sketch

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- k = 1 sketch: a log-bucketed histogram ---- *)

let histogram () = Sk.create ~sub_buckets:1 ()

(* The upper edge of [v]'s band, read back through a k = 1 sketch:
   with [max_int] also present, p50 of the two samples is [v]'s band
   edge. *)
let band_hi v =
  let h = histogram () in
  Sk.add h v;
  Sk.add h max_int;
  Sk.percentile h 50.

let test_histogram_edges () =
  let h = histogram () in
  Sk.add h 0;
  Sk.add h 1;
  Sk.add h max_int;
  Alcotest.(check int) "count" 3 (Sk.count h);
  Alcotest.(check int) "bucket of 0" 0 (Sk.band_start 0);
  Alcotest.(check int) "bucket of 1" 1 (Sk.band_start 1);
  Alcotest.(check int) "bucket of 2" 2 (Sk.band_start 2);
  Alcotest.(check int) "bucket of 3" 2 (Sk.band_start 3);
  Alcotest.(check int) "bucket of 4" 4 (Sk.band_start 4);
  Alcotest.(check int) "bucket of max_int" (1 lsl 61) (Sk.band_start max_int);
  Alcotest.(check int) "top bucket absorbs to max_int" max_int (band_hi (1 lsl 61));
  Alcotest.(check int) "min" 0 (Sk.min_value h);
  Alcotest.(check int) "max" max_int (Sk.max_value h);
  Alcotest.(check int) "p100 is the exact max" max_int (Sk.percentile h 100.);
  (* negative samples clamp into bucket 0 *)
  Sk.add h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Sk.percentile h 25.);
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Sketch.percentile: p in [0,100]") (fun () ->
      ignore (Sk.percentile h 101.))

let test_histogram_bucket_tiling () =
  (* consecutive buckets tile the non-negative ints without gaps *)
  for b = 1 to 62 do
    let lo = 1 lsl (b - 1) in
    Alcotest.(check int)
      (Printf.sprintf "lo(%d) = hi(%d)+1" b (b - 1))
      (band_hi (lo - 1) + 1)
      (Sk.band_start lo)
  done;
  List.iter
    (fun v ->
      if v < Sk.band_start v || v > band_hi v then
        Alcotest.failf "%d outside its bucket [%d, %d]" v (Sk.band_start v) (band_hi v))
    [ 0; 1; 2; 3; 4; 7; 8; 1023; 1024; 4097; max_int - 1; max_int ]

let test_histogram_merge_and_percentile () =
  let a = histogram () and b = histogram () in
  for i = 1 to 100 do
    Sk.add a i
  done;
  for _ = 1 to 100 do
    Sk.add b 1000
  done;
  let m = Sk.merge a b in
  Alcotest.(check int) "merged count" 200 (Sk.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 525.25
    (Sk.total m /. float_of_int (Sk.count m));
  (* p99 lands in 1000's bucket; the estimate is capped at the true max *)
  Alcotest.(check int) "p99 capped at max" 1000 (Sk.percentile m 99.);
  Alcotest.(check int) "originals untouched" 100 (Sk.count a);
  (* to_json parses back and reports the same count *)
  let j = Sk.to_json m in
  match J.member "n" j with
  | Some (J.Int 200) -> ()
  | _ -> Alcotest.fail "histogram json count"

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 1);
        ( "b",
          J.List [ J.Null; J.Bool true; J.Float 1.5; J.String "x\n\"y\"\t\\" ]
        );
        ("empty_obj", J.Obj []);
        ("empty_list", J.List []);
        ("neg", J.Int (-42));
        ("big", J.Float 1.2345678901e+30);
      ]
  in
  let minified = J.to_string v in
  (match J.parse minified with
  | Ok v' -> Alcotest.(check string) "minified" minified (J.to_string v')
  | Error e -> Alcotest.fail e);
  (* pretty output parses back to the same value *)
  (match J.parse (J.to_string ~minify:false v) with
  | Ok v' -> Alcotest.(check string) "pretty" minified (J.to_string v')
  | Error e -> Alcotest.fail e);
  (* unicode escapes decode to UTF-8 *)
  (match J.parse "\"A\\u00e9\"" with
  | Ok (J.String "A\xc3\xa9") -> ()
  | _ -> Alcotest.fail "unicode escape");
  (* strictness *)
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "{"; "[1,2] x"; "{\"a\":}"; "nul"; "'single'"; "" ]

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string)
    "inf" "[null,null]"
    (J.to_string (J.List [ J.Float Float.infinity; J.Float Float.neg_infinity ]))

(* ---- snapshots ---- *)

let sample_snapshot ?(ok = true) ?(work = 202.5) () =
  Obs.Snapshot.make ~title:"sample" ~claim:"a paper claim"
    ~params:[ ("n", J.Int 1024); ("grid", J.String "a,b") ]
    ~metrics:
      [
        Obs.Snapshot.metric ~predicted:100. ~name:"work" work;
        Obs.Snapshot.metric ~direction:Obs.Snapshot.Higher_is_better
          ~name:"effectiveness" 9.;
      ]
    ~ok "e_test"

let test_snapshot_roundtrip () =
  let snap = sample_snapshot () in
  let s1 = J.to_string ~minify:false (Obs.Snapshot.to_json snap) in
  match Obs.Snapshot.of_string s1 with
  | Error e -> Alcotest.fail e
  | Ok snap' ->
      (* decode → encode is byte-identical: snapshots are diff-stable *)
      let s2 = J.to_string ~minify:false (Obs.Snapshot.to_json snap') in
      Alcotest.(check string) "byte-stable" s1 s2;
      Alcotest.(check string) "experiment" "e_test" snap'.Obs.Snapshot.experiment

let test_snapshot_save_load () =
  let dir = Filename.get_temp_dir_name () in
  let snap = sample_snapshot () in
  let path = Obs.Snapshot.save ~dir snap in
  Alcotest.(check string)
    "filename" "BENCH_e_test.json" (Filename.basename path);
  (match Obs.Snapshot.load path with
  | Ok s ->
      Alcotest.(check bool) "ok" true s.Obs.Snapshot.ok;
      Alcotest.(check int) "metrics" 2 (List.length s.Obs.Snapshot.metrics)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_snapshot_version_guard () =
  match Obs.Snapshot.of_string {|{"schema_version":99,"experiment":"x","ok":true}|} with
  | Ok _ -> Alcotest.fail "accepted future schema"
  | Error _ -> ()

let test_snapshot_schema_mismatch () =
  let current = sample_snapshot () in
  (* equal versions: comparable *)
  (match Obs.Snapshot.schema_mismatch ~baseline:(sample_snapshot ()) ~current with
  | None -> ()
  | Some m -> Alcotest.failf "same-version snapshots flagged: %s" m);
  (* an older (still loadable) baseline must be flagged as
     incomparable — bench/compare.exe turns this into exit 2 even
     under --warn-only *)
  let old_baseline =
    match
      Obs.Snapshot.of_string
        {|{"schema_version":0,"experiment":"e_test","ok":true}|}
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "version-0 snapshot should load: %s" e
  in
  match Obs.Snapshot.schema_mismatch ~baseline:old_baseline ~current with
  | Some msg ->
      Alcotest.(check bool) "message non-empty" true (String.length msg > 0)
  | None -> Alcotest.fail "version skew not flagged"

let test_snapshot_diff_detects_regression () =
  let baseline = sample_snapshot ~work:100. () in
  (* synthetic 2x work regression: ratio 1.0 -> 2.0 *)
  let current = sample_snapshot ~work:200. () in
  let changes = Obs.Snapshot.diff ~baseline ~current () in
  let regs = Obs.Snapshot.regressions changes in
  (match regs with
  | [ c ] ->
      Alcotest.(check string) "metric" "work" c.Obs.Snapshot.metric_name;
      Alcotest.(check (float 1e-6)) "delta" 100. c.Obs.Snapshot.delta_pct
  | _ -> Alcotest.failf "expected 1 regression, got %d" (List.length regs));
  (* within tolerance: clean *)
  let near = sample_snapshot ~work:105. () in
  Alcotest.(check int)
    "5% within tolerance" 0
    (List.length (Obs.Snapshot.regressions (Obs.Snapshot.diff ~baseline ~current:near ())));
  (* a drop against a Higher_is_better metric regresses *)
  let worse_eff =
    Obs.Snapshot.make
      ~metrics:
        [
          Obs.Snapshot.metric ~predicted:100. ~name:"work" 100.;
          Obs.Snapshot.metric ~direction:Obs.Snapshot.Higher_is_better
            ~name:"effectiveness" 4.;
        ]
      ~ok:true "e_test"
  in
  let regs = Obs.Snapshot.regressions (Obs.Snapshot.diff ~baseline ~current:worse_eff ()) in
  (match regs with
  | [ c ] ->
      Alcotest.(check string) "higher-is-better" "effectiveness"
        c.Obs.Snapshot.metric_name
  | _ -> Alcotest.fail "expected effectiveness regression");
  (* verdict flip is always a regression, even with identical metrics *)
  let failed = sample_snapshot ~work:100. ~ok:false () in
  let regs = Obs.Snapshot.regressions (Obs.Snapshot.diff ~baseline ~current:failed ()) in
  if not (List.exists (fun c -> c.Obs.Snapshot.metric_name = "verdict") regs)
  then Alcotest.fail "verdict flip not flagged"

(* ---- sinks ---- *)

let test_sink_ring_buffer () =
  let sink = Obs.Sink.memory ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Sink.emit sink (Obs.Sink.record ~ts:i ~kind:Obs.Sink.Log "msg")
  done;
  let kept = Obs.Sink.records sink in
  Alcotest.(check (list int))
    "ring keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun r -> r.Obs.Sink.ts) kept);
  Alcotest.(check bool) "not null" false (Obs.Sink.is_null sink);
  Alcotest.(check bool) "null is null" true (Obs.Sink.is_null Obs.Sink.null)

let test_metrics_merge_and_json () =
  let a = Shm.Metrics.create ~m:2 and b = Shm.Metrics.create ~m:2 in
  Shm.Metrics.on_read a ~p:1;
  Shm.Metrics.on_write a ~p:2;
  Shm.Metrics.add_work a ~p:1 5;
  Shm.Metrics.on_read b ~p:1;
  Shm.Metrics.on_internal b ~p:2;
  Shm.Metrics.add_work b ~p:2 7;
  Shm.Metrics.merge a b;
  Alcotest.(check int) "reads merged" 2 (Shm.Metrics.reads a ~p:1);
  Alcotest.(check int) "internals merged" 1 (Shm.Metrics.internals a ~p:2);
  Alcotest.(check int) "work merged" 12 (Shm.Metrics.total_work a);
  Alcotest.(check int) "b untouched" 2 (Shm.Metrics.total_actions b);
  Alcotest.check_raises "m mismatch"
    (Invalid_argument "Metrics.merge: ledgers for different m") (fun () ->
      Shm.Metrics.merge a (Shm.Metrics.create ~m:3));
  (* the shm-level JSON string parses with the obs codec *)
  match J.parse (Shm.Metrics.to_json a) with
  | Ok j -> (
      match J.member "total_work" j with
      | Some (J.Int 12) -> ()
      | _ -> Alcotest.fail "total_work in json")
  | Error e -> Alcotest.fail e

(* ---- provenance: ledger, spans, heatmap (DESIGN.md §8) ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_ledger_partition () =
  (* a crash-recovery plan exercises performed/forfeited/lost/recovered;
     the fates must partition the job universe and agree with Do(α) *)
  let plan =
    Fault.Plan.make ~name:"ledger" ~seed:11 ~n:6 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let r = Fault.Chaos.run_plan plan in
  let t = Obs.Ledger.of_trace ~n:6 ~m:2 r.Fault.Chaos.trace in
  let c = Obs.Ledger.counts t in
  Alcotest.(check bool) "reconciles" true (Obs.Ledger.reconciles t);
  Alcotest.(check int)
    "fates partition n" 6
    (c.Obs.Ledger.performed + c.Obs.Ledger.forfeited + c.Obs.Ledger.lost
    + c.Obs.Ledger.recovered + c.Obs.Ledger.violations);
  Alcotest.(check int) "performed = Do(alpha)" r.Fault.Chaos.do_count
    c.Obs.Ledger.performed;
  Alcotest.(check int) "no violations" 0 c.Obs.Ledger.violations;
  Alcotest.(check (list int)) "violations list empty" [] (Obs.Ledger.violations t);
  Alcotest.(check int) "entries cover 1..n" 6 (List.length (Obs.Ledger.entries t));
  (* every job explains itself and its history is chronological *)
  for job = 1 to 6 do
    let e = Obs.Ledger.entry t job in
    Alcotest.(check int) "entry job" job e.Obs.Ledger.job;
    let expl = Obs.Ledger.explain t job in
    Alcotest.(check bool) "explanation names the job" true
      (contains expl (Printf.sprintf "job %d:" job));
    let steps = List.map fst e.Obs.Ledger.history in
    Alcotest.(check (list int)) "history chronological" (List.sort compare steps)
      steps
  done;
  Alcotest.check_raises "entry range"
    (Invalid_argument "Ledger.entry: job out of range") (fun () ->
      ignore (Obs.Ledger.entry t 7));
  (* the ledger JSON parses and repeats the counts *)
  match J.parse (J.to_string (Obs.Ledger.to_json t)) with
  | Ok j -> (
      match J.member "counts" j with
      | Some (J.Obj fields) ->
          Alcotest.(check bool) "counts.performed" true
            (List.assoc "performed" fields = J.Int c.Obs.Ledger.performed)
      | _ -> Alcotest.fail "counts object")
  | Error e -> Alcotest.fail e

let test_ledger_flags_mutant () =
  (* the seeded recovery mutant re-performs a job; the ledger must
     classify it doubly_performed and explain the missed re-mark *)
  let plan =
    Fault.Plan.make ~name:"mutant" ~algo:Fault.Plan.Kk_mutant_skip_recovery_mark
      ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let r = Fault.Chaos.run_plan plan in
  let t = Obs.Ledger.of_trace ~n:2 ~m:2 r.Fault.Chaos.trace in
  (match Obs.Ledger.violations t with
  | [ job ] ->
      Alcotest.(check string) "fate name" "doubly_performed"
        (Obs.Ledger.fate_name (Obs.Ledger.entry t job).Obs.Ledger.fate);
      let expl = Obs.Ledger.explain t job in
      Alcotest.(check bool) "names the violation" true
        (contains expl "AT-MOST-ONCE VIOLATION");
      Alcotest.(check bool) "blames the skipped re-mark" true
        (contains expl "recovery re-mark was skipped");
      (* why = explanation + per-step history *)
      (match Obs.Ledger.why t job with
      | first :: _ :: _ -> Alcotest.(check string) "why leads with explain" expl first
      | _ -> Alcotest.fail "why too short")
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
  Alcotest.(check bool) "reconciles with violations counted" true
    (Obs.Ledger.reconciles t);
  match Obs.Ledger.explain_violation t with
  | Some _ -> ()
  | None -> Alcotest.fail "explain_violation empty"

(* a deterministic provenance-rich run shared by the span/heatmap tests *)
let full_run () =
  Core.Harness.kk ~trace_level:`Full ~verbose:true ~provenance:true ~n:12 ~m:3
    ~beta:3 ()

let test_span_vector_clocks () =
  let s = full_run () in
  let spans = Obs.Span.of_trace ~m:3 s.Core.Harness.trace in
  Alcotest.(check bool) "spans non-empty" true (spans <> []);
  (* chronological *)
  let steps = List.map (fun sp -> sp.Obs.Span.step) spans in
  Alcotest.(check (list int)) "chronological" (List.sort compare steps) steps;
  (* each process's actions are totally ordered by happens-before
     (entries sharing (pid, step) belong to one action and share a
     clock, so compare across distinct steps only) *)
  let pid sp = Shm.Event.pid sp.Obs.Span.event in
  let checked = ref 0 in
  for p = 1 to 3 do
    let mine = List.filter (fun sp -> pid sp = p) spans in
    let rec walk = function
      | a :: (b :: _ as rest) ->
          if a.Obs.Span.step < b.Obs.Span.step then begin
            incr checked;
            Alcotest.(check bool) "program order is causal" true
              (Obs.Span.happens_before a b);
            Alcotest.(check bool) "asymmetric" false
              (Obs.Span.happens_before b a);
            Alcotest.(check bool) "not concurrent" false
              (Obs.Span.concurrent a b)
          end;
          walk rest
      | _ -> ()
    in
    walk mine
  done;
  Alcotest.(check bool) "exercised program-order pairs" true (!checked > 0);
  (* every wid-tagged read inherits its write's causal past *)
  let read_edges = ref 0 in
  List.iter
    (fun sp ->
      match Obs.Span.read_from spans sp with
      | Some w ->
          incr read_edges;
          Alcotest.(check bool) "write hb read" true
            (Obs.Span.happens_before w sp)
      | None -> ())
    spans;
  Alcotest.(check bool) "cross-process read-from edges found" true
    (!read_edges > 0)

let test_span_causal_chain () =
  let s = full_run () in
  let job = 5 in
  let chain = Obs.Span.causal_chain ~m:3 s.Core.Harness.trace ~job in
  Alcotest.(check bool) "chain non-empty" true (chain <> []);
  let steps = List.map (fun sp -> sp.Obs.Span.step) chain in
  Alcotest.(check (list int)) "chain chronological" (List.sort compare steps)
    steps;
  (* the chain settles the job's fate with one of its lifecycle events *)
  let settles sp =
    match sp.Obs.Span.event with
    | Shm.Event.Do { job = j; _ }
    | Shm.Event.Forfeit { job = j; _ }
    | Shm.Event.Recover { job = j; _ } ->
        j = job
    | _ -> false
  in
  Alcotest.(check bool) "chain settles the job" true (List.exists settles chain);
  (* the chain is a subsequence of the full span list, so it stays
     causally consistent; render is deterministic *)
  List.iter
    (fun sp ->
      let line = Obs.Span.render sp in
      Alcotest.(check bool) "render has step and clock" true
        (contains line "step" && contains line "vc=["))
    chain

let test_heatmap_aggregation () =
  let s = full_run () in
  let h = Obs.Heatmap.of_trace s.Core.Harness.trace in
  (* probe-fed and trace-fed aggregation agree on the same run *)
  let h2 = Obs.Heatmap.create () in
  List.iter
    (fun { Shm.Trace.step; event } -> Obs.Heatmap.observe h2 ~step event)
    (Shm.Trace.entries s.Core.Harness.trace);
  Alcotest.(check int) "observe = of_trace" (Obs.Heatmap.total_accesses h)
    (Obs.Heatmap.total_accesses h2);
  (* totals match the retained read/write events *)
  let rw =
    List.length
      (List.filter
         (fun { Shm.Trace.event; _ } ->
           match event with
           | Shm.Event.Read _ | Shm.Event.Write _ -> true
           | _ -> false)
         (Shm.Trace.entries s.Core.Harness.trace))
  in
  Alcotest.(check int) "accesses = trace reads+writes" rw
    (Obs.Heatmap.total_accesses h);
  let cells = Obs.Heatmap.cells h in
  Alcotest.(check bool) "cells non-empty" true (cells <> []);
  let names = List.map (fun c -> c.Obs.Heatmap.name) cells in
  Alcotest.(check (list string)) "cells sorted by name"
    (List.sort compare names) names;
  List.iter
    (fun c ->
      let total = c.Obs.Heatmap.reads + c.Obs.Heatmap.writes in
      Alcotest.(check bool) "accessors >= 1" true (c.Obs.Heatmap.accessors >= 1);
      Alcotest.(check bool) "contention bounded" true
        (c.Obs.Heatmap.contention <= total);
      (* time buckets tile the cell's accesses exactly *)
      let br, bw =
        List.fold_left
          (fun (r, w) (_, br, bw) -> (r + br, w + bw))
          (0, 0) c.Obs.Heatmap.buckets
      in
      Alcotest.(check int) "bucket reads" c.Obs.Heatmap.reads br;
      Alcotest.(check int) "bucket writes" c.Obs.Heatmap.writes bw)
    cells

let test_ledger_agreement_oracle () =
  (* the bridge between ledger and oracles: clean run passes, the
     mutant's trace makes the oracle fire *)
  let s = full_run () in
  Alcotest.(check int) "clean run: oracle silent" 0
    (List.length
       (Analysis.Oracle.check_all
          [ Analysis.Oracle.ledger_agreement ~n:12 ~m:3 ~beta:3 ]
          s.Core.Harness.trace));
  let plan =
    Fault.Plan.make ~name:"mutant" ~algo:Fault.Plan.Kk_mutant_skip_recovery_mark
      ~seed:7 ~n:2 ~m:2 ~beta:2
      ~shm:
        [
          Fault.Plan.Crash_in_phase { pid = 1; phase = "done" };
          Fault.Plan.Restart_at { pid = 1; step = 0 };
        ]
      ()
  in
  let r = Fault.Chaos.run_plan plan in
  Alcotest.(check bool) "mutant trace: oracle fires" true
    (Analysis.Oracle.check_all
       [ Analysis.Oracle.ledger_agreement ~n:2 ~m:2 ~beta:2 ]
       r.Fault.Chaos.trace
    <> [])

(* ---- verdict detail strings ---- *)

(* The exact "[oracle] detail" bytes of each predicate, on hand-built
   traces: the golden HTML report and the *.explain.txt goldens embed
   them.  Each trace is judged by the monitor's gated verdict (β = m)
   and by the three trace oracles, which must render the same lines. *)
let test_verdict_details () =
  let open Shm.Event in
  let cases =
    [
      ( "repeated Do",
        3,
        2,
        [
          Do { p = 1; job = 2 }; Do { p = 2; job = 2 }; Do { p = 1; job = 2 };
          Terminate { p = 1 }; Terminate { p = 2 };
        ],
        [
          "[at-most-once] job 2 performed again by p2 (first by p1)";
          "[at-most-once] job 2 performed again by p1 (first by p1)";
        ] );
      ( "job above n, pid above m",
        3,
        2,
        [
          Do { p = 5; job = 9 }; Do { p = 1; job = 9 }; Do { p = 2; job = 1 };
          Terminate { p = 1 }; Terminate { p = 2 };
        ],
        [ "[at-most-once] job 9 performed again by p1 (first by p5)" ] );
      ( "floor breach, 2 restarts",
        10,
        2,
        [
          Do { p = 1; job = 1 }; Crash { p = 1 }; Restart { p = 1 };
          Crash { p = 2 }; Restart { p = 2 }; Do { p = 2; job = 3 };
          Terminate { p = 1 }; Terminate { p = 2 };
        ],
        [
          "[recovery-effectiveness] 2 distinct jobs performed, recovery floor \
           is 6 (base 8, 2 restarts)";
        ] );
      ( "one unsettled process",
        3,
        3,
        [
          Do { p = 1; job = 1 }; Terminate { p = 1 }; Crash { p = 2 };
          Crash { p = 3 }; Restart { p = 3 };
        ],
        [ "[quiescence] p3 neither terminated nor crashed" ] );
    ]
  in
  List.iter
    (fun (name, n, m, events, want) ->
      let trace = Shm.Trace.create `Outcomes in
      List.iteri (fun step e -> Shm.Trace.record trace ~step e) events;
      let render pp vs = List.map (Format.asprintf "%a" pp) vs in
      let mon = Obs.Monitor.create ~n ~m ~beta:m () in
      Obs.Monitor.observe_trace mon trace;
      Alcotest.(check (list string)) (name ^ ": monitor") want
        (render Obs.Monitor.pp_violation (Obs.Monitor.finalize mon));
      Alcotest.(check (list string)) (name ^ ": oracles") want
        (render Analysis.Oracle.pp_violation
           (Analysis.Oracle.check_all
              [
                Analysis.Oracle.at_most_once;
                Analysis.Oracle.recovery_effectiveness ~n ~m ~beta:m;
                Analysis.Oracle.quiescence ~m;
              ]
              trace)))
    cases

(* ---- golden HTML report ---- *)

(* Replicates `amo_run report --plan test/golden/chaos_skip_recovery_mark.plan.json
   --why 1 -o ...` byte for byte: same plan replay, ledger, heatmap,
   verdicts and causal chain.  Regenerate the golden with that exact
   command after an intentional report change. *)
let test_golden_report () =
  let plan_rel = "test/golden/chaos_skip_recovery_mark.plan.json" in
  let plan_path =
    List.find Sys.file_exists
      [ "golden/chaos_skip_recovery_mark.plan.json"; plan_rel ]
  in
  let plan =
    match Fault.Plan.load plan_path with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let r = Fault.Chaos.run_plan ~trace_level:`Full plan in
  let trace = r.Fault.Chaos.trace in
  let nn = plan.Fault.Plan.n and mm = plan.Fault.Plan.m in
  let bb = plan.Fault.Plan.beta in
  let ledger = Obs.Ledger.of_trace ~n:nn ~m:mm trace in
  let oracles =
    Fault.Chaos.oracles_for plan
    @ [ Analysis.Oracle.ledger_agreement ~n:nn ~m:mm ~beta:bb ]
  in
  let verdicts =
    List.map
      (fun (o : Analysis.Oracle.t) ->
        match o.Analysis.Oracle.check trace with
        | [] -> (o.Analysis.Oracle.name, true, "OK")
        | vs ->
            ( o.Analysis.Oracle.name,
              false,
              String.concat "; "
                (List.map (fun v -> v.Analysis.Oracle.detail) vs) ))
      oracles
  in
  let why =
    [
      ( 1,
        Obs.Ledger.explain ledger 1
        :: List.map Obs.Span.render (Obs.Span.causal_chain ~m:mm trace ~job:1)
      );
    ]
  in
  let html =
    Obs.Report.make ~run_name:plan.Fault.Plan.name
      ~params:
        [
          ("plan", plan_rel);
          ("n", string_of_int nn);
          ("m", string_of_int mm);
          ("beta", string_of_int bb);
          ("seed", string_of_int plan.Fault.Plan.seed);
        ]
      ~ledger
      ~heatmap:(Obs.Heatmap.of_trace trace)
      ~verdicts
      ~plan_json:(Fault.Plan.to_json plan)
      ~why ~trace ()
  in
  let golden_path =
    try
      List.find Sys.file_exists
        [ "golden/report_rec_mutant.html"; "test/golden/report_rec_mutant.html" ]
    with Not_found ->
      Alcotest.fail "golden/report_rec_mutant.html missing"
  in
  Alcotest.(check string) "byte-stable report" (read_file golden_path) html

(* ---- golden Chrome trace ---- *)

let test_golden_chrome_trace () =
  (* same deterministic run that produced test/golden/kk_n6_m2.trace.json
     (via `amo_run kk --jobs 6 --procs 2 --beta 2 --trace-out ...`);
     the export must stay byte-stable *)
  let s = Core.Harness.kk ~trace_level:`Full ~verbose:true ~n:6 ~m:2 ~beta:2 () in
  let got =
    Obs.Chrome_trace.to_string
      (Obs.Chrome_trace.events ~run_name:"KK(beta=2)"
         ~heatmap:(Obs.Heatmap.of_trace s.Core.Harness.trace)
         ~m:2 s.Core.Harness.trace)
  in
  let golden =
    (* cwd is test/ under `dune runtest`, the repo root under `dune exec` *)
    List.find Sys.file_exists
      [ "golden/kk_n6_m2.trace.json"; "test/golden/kk_n6_m2.trace.json" ]
  in
  let want = read_file golden in
  Alcotest.(check string) "byte-stable chrome trace" want got

(* ---- libraries are silent ---- *)

let with_output_captured fn =
  flush stdout;
  flush stderr;
  let tmp = Filename.temp_file "amo_silent" ".log" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let save_out = Unix.dup Unix.stdout and save_err = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stdout;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      flush stderr;
      Unix.dup2 save_out Unix.stdout;
      Unix.dup2 save_err Unix.stderr;
      Unix.close save_out;
      Unix.close save_err)
    fn;
  let out = read_file tmp in
  Sys.remove tmp;
  out

let exercise_libraries () =
  ignore (Core.Harness.kk ~n:40 ~m:3 ~beta:3 ());
  (* crash adversary + iterated runs cover the modules that used to
     print (adversary decisions, level transitions, gantt, oracles) *)
  let rng = Util.Prng.of_int 3 in
  let s =
    Core.Harness.kk
      ~adversary:(Shm.Adversary.random rng ~f:1 ~m:3 ~horizon:160)
      ~n:40 ~m:3 ~beta:3 ()
  in
  ignore (Analysis.Gantt.render ~m:3 s.Core.Harness.trace);
  ignore (Core.Harness.iterative ~n:64 ~m:2 ~epsilon_inv:1 ())

let test_libraries_silent_by_default () =
  let saved = Util.Logging.level () in
  Util.Logging.set_level Util.Logging.Quiet;
  let captured = with_output_captured exercise_libraries in
  Util.Logging.set_level saved;
  Alcotest.(check string) "no unconditional output" "" captured

let test_logging_opt_in () =
  let saved = Util.Logging.level () in
  Util.Logging.set_level Util.Logging.Debug;
  let captured = with_output_captured exercise_libraries in
  Util.Logging.set_level saved;
  Alcotest.(check bool) "debug level produces diagnostics" true
    (captured <> "");
  Alcotest.(check bool) "tagged lines" true
    (String.length captured >= 5 && String.sub captured 0 5 = "[amo:")

let suite =
  [
    Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
    Alcotest.test_case "histogram bucket tiling" `Quick
      test_histogram_bucket_tiling;
    Alcotest.test_case "histogram merge + percentile" `Quick
      test_histogram_merge_and_percentile;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json non-finite floats" `Quick
      test_json_nonfinite_floats;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot save/load" `Quick test_snapshot_save_load;
    Alcotest.test_case "snapshot schema mismatch" `Quick
      test_snapshot_schema_mismatch;
    Alcotest.test_case "snapshot version guard" `Quick
      test_snapshot_version_guard;
    Alcotest.test_case "snapshot diff detects 2x regression" `Quick
      test_snapshot_diff_detects_regression;
    Alcotest.test_case "sink ring buffer" `Quick test_sink_ring_buffer;
    Alcotest.test_case "metrics merge + json" `Quick
      test_metrics_merge_and_json;
    Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome_trace;
    Alcotest.test_case "ledger partitions job fates" `Quick
      test_ledger_partition;
    Alcotest.test_case "ledger flags the recovery mutant" `Quick
      test_ledger_flags_mutant;
    Alcotest.test_case "span vector clocks" `Quick test_span_vector_clocks;
    Alcotest.test_case "span causal chain" `Quick test_span_causal_chain;
    Alcotest.test_case "heatmap aggregation" `Quick test_heatmap_aggregation;
    Alcotest.test_case "ledger-agreement oracle" `Quick
      test_ledger_agreement_oracle;
    Alcotest.test_case "verdict detail strings" `Quick test_verdict_details;
    Alcotest.test_case "golden html report" `Quick test_golden_report;
    Alcotest.test_case "libraries silent by default" `Quick
      test_libraries_silent_by_default;
    Alcotest.test_case "logging opt-in" `Quick test_logging_opt_in;
  ]
