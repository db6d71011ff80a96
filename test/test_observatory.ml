(* Tests for the runtime-profiling + observatory layer: the snapshot
   v2 timing block (round-trip and v1 defaults), the Series JSONL
   store (round-trip, missing file, blank and malformed lines), the
   trend analysis on hand-built histories (regression, improvement,
   identical, insufficient; deterministic bootstrap), the dashboard
   golden, the Runtime_events consumer (custom spans arrive, rings
   observed, no leftover ring files), Gcstat probe attribution, the
   runner/soak instrumentation seams, and the observatory.exe CLI end
   to end. *)

module S = Obs.Series
module Snap = Obs.Snapshot

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let tmp_file suffix =
  let f = Filename.temp_file "observatory" suffix in
  at_exit (fun () -> if Sys.file_exists f then Sys.remove f);
  f

(* ---- snapshot v2 timing ---- *)

let test_snapshot_timing_roundtrip () =
  let timing =
    { Snap.iterations = 8; warmup = 2; clock = "cpu:Sys.time" }
  in
  let snap =
    Snap.make ~title:"t" ~claim:"c"
      ~metrics:[ Snap.metric ~name:"work" 2.5 ]
      ~timing ~ok:true "e99"
  in
  Alcotest.(check int) "schema v2" 2 Snap.schema_version;
  Alcotest.(check int) "written at v2" Snap.schema_version snap.Snap.version;
  match Snap.of_string (Obs.Json.to_string (Snap.to_json snap)) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check int) "iterations" 8 back.Snap.timing.Snap.iterations;
      Alcotest.(check int) "warmup" 2 back.Snap.timing.Snap.warmup;
      Alcotest.(check string) "clock" "cpu:Sys.time" back.Snap.timing.Snap.clock

(* A v1 snapshot (no timing block) parses with the default timing —
   old committed baselines stay readable even though compare.exe
   refuses to diff across versions. *)
let test_snapshot_v1_timing_defaults () =
  let v1 =
    {|{"schema_version": 1, "experiment": "e4", "title": "t", "claim": "c",
       "params": {}, "metrics": [], "ok": true}|}
  in
  match Snap.of_string v1 with
  | Error e -> Alcotest.fail e
  | Ok snap ->
      Alcotest.(check int) "keeps its version" 1 snap.Snap.version;
      Alcotest.(check int) "default iterations" Snap.default_timing.Snap.iterations
        snap.Snap.timing.Snap.iterations;
      Alcotest.(check string) "default clock" "logical-steps"
        snap.Snap.timing.Snap.clock

(* ---- series store ---- *)

let entry ?(exp = "e4") ?(metric = "work") ?(sha = "cafe") ?(ts = 1000) v =
  {
    S.exp;
    metric;
    value = v;
    direction = Snap.Lower_is_better;
    git_sha = sha;
    timestamp = ts;
  }

let test_series_roundtrip () =
  let path = tmp_file ".jsonl" in
  Sys.remove path;
  (* missing file is an empty store, not an error *)
  (match S.load ~path with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing store should be empty"
  | Error e -> Alcotest.fail e);
  let es =
    [
      entry ~sha:"aaa" ~ts:1 1.5;
      entry ~metric:"max_ratio" ~sha:"aaa" ~ts:1 4.2;
      { (entry ~sha:"bbb" ~ts:2 1.6) with S.direction = Snap.Higher_is_better };
    ]
  in
  S.append ~path [ List.hd es; List.nth es 1 ];
  S.append ~path [ List.nth es 2 ];
  (* appends accumulate *)
  match S.load ~path with
  | Error e -> Alcotest.fail e
  | Ok got ->
      Alcotest.(check int) "three entries" 3 (List.length got);
      List.iter2
        (fun (w : S.entry) (g : S.entry) ->
          Alcotest.(check string) "exp" w.S.exp g.S.exp;
          Alcotest.(check string) "metric" w.S.metric g.S.metric;
          Alcotest.(check (float 1e-9)) "value" w.S.value g.S.value;
          Alcotest.(check bool) "direction" true (w.S.direction = g.S.direction);
          Alcotest.(check string) "sha" w.S.git_sha g.S.git_sha;
          Alcotest.(check int) "ts" w.S.timestamp g.S.timestamp)
        es got

let test_series_blank_and_bad_lines () =
  let path = tmp_file ".jsonl" in
  let oc = open_out path in
  output_string oc
    ({|{"exp":"e1","metric":"m","value":1.0,"direction":"lower"}|} ^ "\n\n");
  close_out oc;
  (match S.load ~path with
  | Ok [ e ] ->
      (* missing sha/timestamp default *)
      Alcotest.(check string) "default sha" "unknown" e.S.git_sha;
      Alcotest.(check int) "default ts" 0 e.S.timestamp
  | Ok _ -> Alcotest.fail "blank line should be skipped"
  | Error e -> Alcotest.fail e);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json\n";
  close_out oc;
  match S.load ~path with
  | Ok _ -> Alcotest.fail "malformed line must fail"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (let needle = ":3:" in
         let nl = String.length needle and ol = String.length e in
         let rec scan i =
           i + nl <= ol && (String.sub e i nl = needle || scan (i + 1))
         in
         scan 0)

let test_series_of_snapshot_uses_compared_value () =
  let snap =
    Snap.make
      ~metrics:
        [
          Snap.metric ~name:"ratio" ~predicted:10. 25.;
          Snap.metric ~name:"raw" 7.;
        ]
      ~ok:true "e4"
  in
  match S.of_snapshot ~git_sha:"abc" ~timestamp:42 snap with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "predicted -> ratio" 2.5 a.S.value;
      Alcotest.(check (float 1e-9)) "no prediction -> raw" 7. b.S.value;
      Alcotest.(check string) "sha carried" "abc" a.S.git_sha;
      Alcotest.(check int) "ts carried" 42 b.S.timestamp
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

(* ---- trend analysis ---- *)

(* 12 baseline + 5 recent runs with a deterministic jitter; shift is
   applied to the recent window. *)
let history ?(metric = "work") ?(direction = Snap.Lower_is_better)
    ?(jitter = 5) ~shift () =
  let rng = Util.Prng.of_int 99 in
  List.init 17 (fun i ->
      let centre = if i < 12 then 100. else 100. +. shift in
      {
        S.exp = "syn";
        metric;
        value = centre +. float_of_int (Util.Prng.int rng jitter);
        direction;
        git_sha = Printf.sprintf "%04x" i;
        timestamp = 1000 + i;
      })

let verdict_of entries =
  match S.trends entries with
  | [ t ] -> t.S.verdict
  | l -> Alcotest.failf "expected one series, got %d" (List.length l)

let test_trend_verdicts () =
  Alcotest.(check string) "upward shift, lower-is-better: regression"
    "regression"
    (S.verdict_to_string (verdict_of (history ~shift:30. ())));
  Alcotest.(check string) "downward shift, lower-is-better: improvement"
    "improvement"
    (S.verdict_to_string (verdict_of (history ~shift:(-30.) ())));
  Alcotest.(check string) "upward shift, higher-is-better: improvement"
    "improvement"
    (S.verdict_to_string
       (verdict_of (history ~direction:Snap.Higher_is_better ~shift:30. ())));
  Alcotest.(check string) "flat series: stable" "stable"
    (S.verdict_to_string (verdict_of (history ~jitter:1 ~shift:0. ())));
  (* identical values throughout: p = 1, never flagged *)
  let t =
    match S.trends (history ~jitter:1 ~shift:0. ()) with
    | [ t ] -> t
    | _ -> Alcotest.fail "one series"
  in
  Alcotest.(check int) "flat series flags nothing" 0
    (List.length (S.flagged [ t ]))

let test_trend_insufficient () =
  let short = List.filteri (fun i _ -> i < 4) (history ~shift:30. ()) in
  Alcotest.(check string) "fewer than min_points" "insufficient"
    (S.verdict_to_string (verdict_of short))

(* The whole analysis is a pure function of the entries: same history,
   same trend record — including the bootstrap CI, whose seed derives
   from the series key, not from global randomness. *)
let test_trend_deterministic () =
  let t1 = S.trends (history ~shift:30. ()) in
  let t2 = S.trends (history ~shift:30. ()) in
  Alcotest.(check string) "identical JSON"
    (Obs.Json.to_string (S.trends_json t1))
    (Obs.Json.to_string (S.trends_json t2));
  match (t1, t2) with
  | [ a ], [ b ] ->
      Alcotest.(check (float 0.)) "ci_lo" a.S.ci_lo b.S.ci_lo;
      Alcotest.(check (float 0.)) "ci_hi" a.S.ci_hi b.S.ci_hi
  | _ -> Alcotest.fail "one series each"

(* Two independent MW-U sanity anchors: a total separation is maximally
   significant, a perfect interleave is not. *)
let test_trend_mwu_anchors () =
  let sep = Util.Stats.mann_whitney_u [| 1.; 2.; 3.; 4.; 5. |] [| 10.; 11.; 12.; 13.; 14. |] in
  Alcotest.(check bool) "separation significant" true (sep.Util.Stats.p < 0.02);
  let mix = Util.Stats.mann_whitney_u [| 1.; 3.; 5.; 7. |] [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check bool) "interleave not significant" true
    (mix.Util.Stats.p > 0.3)

(* ---- dashboard golden ---- *)

let dashboard () =
  let entries =
    history ~shift:30. ()
    @ history ~metric:"max_ratio" ~shift:(-30.) ()
    @ history ~metric:"steps" ~jitter:1 ~shift:0. ()
  in
  S.dashboard_html (S.trends entries)

let test_dashboard_golden () =
  let got = dashboard () in
  Alcotest.(check string) "byte-deterministic" got (dashboard ());
  Alcotest.(check string) "matches golden"
    (read_file (golden "observatory_dashboard.html"))
    got

(* ---- Runtime_events consumer ---- *)

(* Custom spans emitted on this very domain arrive on some ring, the
   transient <pid>.events ring file is gone once collection stops, and
   the summary rebases to µs (first event at 0). *)
let test_rtevents_custom_spans () =
  let re = Obs.Rtevents.start () in
  Obs.Rtevents.with_span "test.outer" (fun () ->
      Obs.Rtevents.with_span "test.inner" (fun () -> Sys.opaque_identity ()));
  ignore (Obs.Rtevents.poll re);
  let s = Obs.Rtevents.stop re in
  let count name =
    List.length
      (List.filter (fun (sp : Obs.Rtevents.span) -> sp.Obs.Rtevents.name = name)
         s.Obs.Rtevents.spans)
  in
  Alcotest.(check int) "outer span arrived" 1 (count "test.outer");
  Alcotest.(check int) "inner span arrived" 1 (count "test.inner");
  Alcotest.(check bool) "events counted" true (s.Obs.Rtevents.events >= 4);
  Alcotest.(check int) "nothing lost" 0 s.Obs.Rtevents.lost;
  Alcotest.(check bool) "timestamps rebased" true
    (List.for_all
       (fun (sp : Obs.Rtevents.span) -> sp.Obs.Rtevents.start_us >= 0)
       s.Obs.Rtevents.spans)
(* (the transient <pid>.events ring file is removed by the runtime at
   process exit, not at [stop] — not assertable mid-process) *)

let test_rtevents_pause_resume () =
  let re = Obs.Rtevents.start () in
  Obs.Rtevents.pause ();
  Obs.Rtevents.emit_begin "test.paused";
  Obs.Rtevents.emit_end "test.paused";
  Obs.Rtevents.resume ();
  Obs.Rtevents.with_span "test.live" (fun () -> Sys.opaque_identity ());
  let s = Obs.Rtevents.stop re in
  let names =
    List.map (fun (sp : Obs.Rtevents.span) -> sp.Obs.Rtevents.name)
      s.Obs.Rtevents.spans
  in
  Alcotest.(check bool) "paused span dropped" false
    (List.mem "test.paused" names);
  Alcotest.(check bool) "live span kept" true (List.mem "test.live" names)

let test_rtevents_trace_events_and_prom () =
  let re = Obs.Rtevents.start () in
  Obs.Rtevents.with_span "test.chrome" (fun () -> Sys.opaque_identity ());
  let s = Obs.Rtevents.stop re in
  let evs = Obs.Rtevents.trace_events s in
  Alcotest.(check bool) "has events" true (evs <> []);
  (* every span/instant lands on a synthetic runtime pid, away from
     the logical tracks *)
  List.iter
    (fun j ->
      match j with
      | Obs.Json.Obj fields -> (
          match List.assoc_opt "pid" fields with
          | Some (Obs.Json.Int pid) ->
              Alcotest.(check bool) "runtime pid" true
                (pid >= Obs.Rtevents.base_pid)
          | _ -> Alcotest.fail "event without pid")
      | _ -> Alcotest.fail "event not an object")
    evs;
  let p = Obs.Prom.create () in
  Obs.Rtevents.prom s p;
  let out = Obs.Prom.render p in
  Alcotest.(check bool) "prom export mentions events" true
    (let needle = "amo_rt_events_total" in
     let nl = String.length needle and ol = String.length out in
     let rec scan i =
       i + nl <= ol && (String.sub out i nl = needle || scan (i + 1))
     in
     scan 0)

(* ---- Gcstat attribution ---- *)

let test_gcstat_probe_attribution () =
  let gc = Obs.Gcstat.create () in
  let s =
    Core.Harness.kk ~trace_level:`Full ~verbose:true
      ~probe:(Obs.Gcstat.probe gc) ~n:64 ~m:3 ~beta:3 ()
  in
  Alcotest.(check int) "one sample per trace event"
    (Shm.Trace.length s.Core.Harness.trace)
    (Obs.Gcstat.events gc);
  let words, _, _ = Obs.Gcstat.totals gc in
  Alcotest.(check bool) "allocation attributed" true (words > 0.);
  let rows = Obs.Gcstat.rows gc in
  Alcotest.(check bool) "cells exist" true (rows <> []);
  Alcotest.(check int) "rows sum to total events"
    (Obs.Gcstat.events gc)
    (List.fold_left (fun a (r : Obs.Gcstat.row) -> a + r.Obs.Gcstat.events) 0 rows);
  (* by_phase merges pids: same event total, phase-keyed *)
  let merged = Obs.Gcstat.by_phase gc in
  Alcotest.(check int) "by_phase preserves events"
    (Obs.Gcstat.events gc)
    (List.fold_left
       (fun a (r : Obs.Gcstat.row) -> a + r.Obs.Gcstat.events)
       0 merged)

(* ---- instrumentation seams ---- *)

let test_runner_rtevents_seam () =
  let re = Obs.Rtevents.start () in
  let r = Multicore.Runner.run_kk ~rtevents:re ~n:32 ~m:2 ~beta:2 () in
  let s = Obs.Rtevents.stop re in
  (* at-most-once, near-optimal effectiveness: every performed job is
     distinct, and nearly all of the 32 get done *)
  let jobs = List.map snd r.Multicore.Runner.dos in
  Alcotest.(check int) "no duplicates"
    (List.length jobs)
    (List.length (List.sort_uniq compare jobs));
  Alcotest.(check bool) "effective" true
    (let k = List.length jobs in
     k > 24 && k <= 32);
  let count name =
    List.length
      (List.filter (fun (sp : Obs.Rtevents.span) -> sp.Obs.Rtevents.name = name)
         s.Obs.Rtevents.spans)
  in
  Alcotest.(check int) "one mc.run span" 1 (count "mc.run");
  Alcotest.(check int) "one mc.domain span per worker" 2 (count "mc.domain")

(* ---- observatory.exe end to end ---- *)

let observatory_exe () =
  List.find Sys.file_exists
    [
      "../bench/observatory.exe";
      "bench/observatory.exe";
      "_build/default/bench/observatory.exe";
    ]

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

let contains out needle =
  let nl = String.length needle and ol = String.length out in
  let rec scan i = i + nl <= ol && (String.sub out i nl = needle || scan (i + 1)) in
  scan 0

let test_observatory_exe_end_to_end () =
  let exe = Filename.quote (observatory_exe ()) in
  let dir = Filename.temp_file "obsdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let store = Filename.concat dir "series.jsonl" in
  let html = Filename.concat dir "trends.html" in
  (* seed a store with a known regression *)
  S.append ~path:store (history ~shift:30. ());
  let out, status =
    run_capture
      (Printf.sprintf "%s report --store %s --html %s --format github" exe
         (Filename.quote store) (Filename.quote html))
  in
  (match status with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED c -> Alcotest.failf "regression store must exit 1, got %d" c
  | _ -> Alcotest.fail "unexpected termination");
  Alcotest.(check bool) "github annotation" true
    (contains out "::error title=observatory regression::");
  Alcotest.(check bool) "dashboard written" true (Sys.file_exists html);
  Alcotest.(check string) "CLI dashboard matches library render"
    (S.dashboard_html (S.trends (history ~shift:30. ())))
    (read_file html);
  (* --warn-only demotes to exit 0 *)
  let _, status =
    run_capture
      (Printf.sprintf "%s report --store %s --warn-only" exe
         (Filename.quote store))
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "--warn-only must exit 0");
  (* append mode over a real snapshot dir *)
  let snapdir = Filename.concat dir "snaps" in
  Sys.mkdir snapdir 0o755;
  let snap =
    Snap.make ~title:"t" ~claim:"c"
      ~metrics:[ Snap.metric ~name:"work" 2.0 ]
      ~ok:true "e4"
  in
  ignore (Snap.save ~dir:snapdir snap);
  let store2 = Filename.concat dir "s2.jsonl" in
  let out, status =
    run_capture
      (Printf.sprintf
         "%s append --store %s --snapshots %s --git-sha feedc0de --timestamp 7"
         exe (Filename.quote store2) (Filename.quote snapdir))
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "append must exit 0");
  Alcotest.(check bool) "append reports" true (contains out "appended 1 entries");
  (match S.load ~path:store2 with
  | Ok [ e ] ->
      Alcotest.(check string) "sha recorded" "feedc0de" e.S.git_sha;
      Alcotest.(check int) "timestamp recorded" 7 e.S.timestamp
  | Ok l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  (* usage error exits 2 *)
  let _, status = run_capture (exe ^ " bogus 2>/dev/null") in
  (match status with
  | Unix.WEXITED 2 -> ()
  | _ -> Alcotest.fail "usage error must exit 2");
  (* cleanup *)
  let rm f = if Sys.file_exists f then Sys.remove f in
  rm store;
  rm store2;
  rm html;
  Array.iter (fun f -> rm (Filename.concat snapdir f)) (Sys.readdir snapdir);
  Sys.rmdir snapdir;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "snapshot v2 timing round-trips" `Quick
      test_snapshot_timing_roundtrip;
    Alcotest.test_case "snapshot v1 parses with default timing" `Quick
      test_snapshot_v1_timing_defaults;
    Alcotest.test_case "series JSONL round-trip" `Quick test_series_roundtrip;
    Alcotest.test_case "series blank and malformed lines" `Quick
      test_series_blank_and_bad_lines;
    Alcotest.test_case "series uses compared_value" `Quick
      test_series_of_snapshot_uses_compared_value;
    Alcotest.test_case "trend verdicts on known shifts" `Quick
      test_trend_verdicts;
    Alcotest.test_case "trend insufficient below min_points" `Quick
      test_trend_insufficient;
    Alcotest.test_case "trend analysis is deterministic" `Quick
      test_trend_deterministic;
    Alcotest.test_case "mann-whitney anchors" `Quick test_trend_mwu_anchors;
    Alcotest.test_case "dashboard golden" `Quick test_dashboard_golden;
    Alcotest.test_case "rtevents custom spans" `Quick
      test_rtevents_custom_spans;
    Alcotest.test_case "rtevents pause/resume" `Quick
      test_rtevents_pause_resume;
    Alcotest.test_case "rtevents chrome/prom exports" `Quick
      test_rtevents_trace_events_and_prom;
    Alcotest.test_case "gcstat probe attribution" `Quick
      test_gcstat_probe_attribution;
    Alcotest.test_case "runner rtevents seam" `Quick test_runner_rtevents_seam;
    Alcotest.test_case "observatory.exe end to end" `Quick
      test_observatory_exe_end_to_end;
  ]
