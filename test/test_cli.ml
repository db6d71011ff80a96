(* The amo_run command line, pinned end to end:
   - stdout and exit code of a deterministic matrix of runs, in text
     and --json (golden/cli/<name>.txt: the masked stdout, then a last
     line "[exit N]");
   - the --help text of every command (golden/cli/help_<cmd>.txt;
     `fuzz --help` and `trace --help` are pinned in test_fuzz and
     test_flight).
   Only wall-clock values are masked.  Every run starts in a fresh
   empty working directory, so relative output paths print the same
   everywhere.  With AMO_GOLDEN_OUT=DIR set, each case writes its
   actual output to DIR/<golden name> instead of comparing. *)

let amo_exe () =
  let exe = Helpers.amo_exe () in
  if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe

let read_file = Helpers.read_file
let temp_dir = Helpers.temp_dir

(* absolute: the runs start in other directories *)
let golden path =
  let p = Helpers.golden path in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let rm_rf dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

(* [sub] occurs in [s] at or after [from] *)
let index_from s from sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some i
    else go (i + 1)
  in
  go from

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Wall-clock values: explore's "wall clock", multicore's "wall time",
   fuzz's elapsed time and execs/s, and their JSON fields. *)
let mask_line line =
  let text_prefixes = [ "wall clock      : "; "wall time       : " ] in
  let json_keys = [ "\"seconds\": "; "\"wall_seconds\": "; "\"execs_per_sec\": " ] in
  match List.find_opt (fun prefix -> starts_with ~prefix line) text_prefixes with
  | Some prefix -> prefix ^ "<wall>"
  | None -> (
      match
        List.find_map
          (fun key -> Option.map (fun i -> i + String.length key) (index_from line 0 key))
          json_keys
      with
      | Some at ->
          let comma = if String.ends_with ~suffix:"," line then "," else "" in
          String.sub line 0 at ^ "<wall>" ^ comma
      | None when starts_with ~prefix:"fuzz            : " line -> (
          match index_from line 0 " in " with
          | Some i -> (
              match index_from line i ")" with
              | Some j ->
                  String.sub line 0 i ^ " in <wall>"
                  ^ String.sub line (j + 1) (String.length line - j - 1)
              | None -> line)
          | None -> line)
      | None -> line)

let mask out =
  String.split_on_char '\n' out |> List.map mask_line |> String.concat "\n"

(* Run [args] in a fresh directory; the masked stdout plus the exit code. *)
let run args =
  let dir = temp_dir "amo_cli" in
  let out, status =
    Helpers.run_capture
      (Printf.sprintf "cd %s && %s %s 2>/dev/null" (Filename.quote dir)
         (Filename.quote (amo_exe ())) args)
  in
  rm_rf dir;
  Printf.sprintf "%s[exit %d]\n" (mask out) (Helpers.exit_code status)

let check_golden name actual =
  match Sys.getenv_opt "AMO_GOLDEN_OUT" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc actual;
      close_out oc
  | None ->
      Alcotest.(check string) name (read_file (golden ("cli/" ^ name))) actual

(* (golden name, arguments); each name also runs with --json as
   <name>_json unless marked text-only *)
let runs ~plan =
  [
    ("kk", "kk --jobs 200 --procs 4", true);
    ("kk_random_crashes",
     "kk --jobs 300 --procs 5 --beta 7 --sched random --crashes 2 --seed 7", true);
    ("kk_bursty_timeline_gantt",
     "kk --jobs 24 --procs 3 --sched bursty --crashes 1 --seed 3 --timeline --gantt",
     false);
    ("worst", "worst --jobs 200 --procs 4", true);
    ("iterative",
     "iterative --jobs 1024 --procs 4 --eps-inv 2 --sched random --crashes 1 --seed 5",
     true);
    ("wa", "wa --jobs 1024 --procs 4 --sched random --crashes 1 --seed 5", true);
    ("trivial", "trivial --jobs 200 --procs 4 --sched random --crashes 2 --seed 9", true);
    ("pairing", "pairing --jobs 200 --procs 4 --sched random --crashes 1 --seed 9", true);
    ("claim", "claim --jobs 200 --procs 4 --sched random --crashes 2 --seed 9", true);
    ("msg", "msg --jobs 60 --procs 3 --servers 5 --crashes 1", true);
    ("multicore", "multicore --jobs 500 --procs 1", true);
    ("explore", "explore --jobs 3 --procs 2 --fingerprint --differential", true);
    ("chaos_soak", "chaos --soak 20 --jobs 10 --procs 3 --seed 3", true);
    ("chaos_plan_skip_check", "chaos --plan " ^ Filename.quote plan, true);
    ("fuzz", "fuzz --budget 20 --jobs 4 --procs 2 --seed 1", true);
    ("fuzz_skip_check",
     "fuzz --budget 300 --jobs 4 --procs 2 --seed 1 --algo skip-check \
      --stop-on-violation",
     true);
    ("report_why",
     "report --jobs 30 --procs 3 --sched random --crashes 1 --seed 4 --why 1 \
      --why 5 -o report.html",
     false);
    ("version", "version", true);
  ]

let test_stdout_goldens () =
  let plan = golden "chaos_skip_check.plan.json" in
  List.iter
    (fun (name, args, with_json) ->
      check_golden (name ^ ".txt") (run args);
      if with_json then check_golden (name ^ "_json.txt") (run (args ^ " --json")))
    (runs ~plan)

let help_commands =
  [
    []; [ "kk" ]; [ "claim" ]; [ "worst" ]; [ "iterative" ]; [ "wa" ];
    [ "trivial" ]; [ "pairing" ]; [ "msg" ]; [ "explore" ]; [ "chaos" ];
    [ "multicore" ]; [ "report" ]; [ "profile" ]; [ "version" ];
    [ "trace"; "decode" ]; [ "trace"; "query" ]; [ "trace"; "merge" ];
  ]

let test_help_goldens () =
  List.iter
    (fun cmd ->
      let name = String.concat "_" ("help" :: (if cmd = [] then [ "amo_run" ] else cmd)) in
      check_golden (name ^ ".txt") (run (String.concat " " (cmd @ [ "--help" ]))))
    help_commands

(* Run the commands [args] one after the other in a fresh directory,
   stopping at the first failure: the last exit code, and the contents
   of each of [files] (paths relative to that directory) afterwards:
   [None] where it does not exist, [Some ""] for a directory. *)
let run_leaving args files =
  let dir = temp_dir "amo_cli" in
  let exe = Filename.quote (amo_exe ()) in
  let _, status =
    Helpers.run_capture
      (Printf.sprintf "cd %s && %s >/dev/null 2>&1" (Filename.quote dir)
         (String.concat " && " (List.map (fun a -> exe ^ " " ^ a) args)))
  in
  let left =
    List.map
      (fun f ->
        let path = Filename.concat dir f in
        if not (Sys.file_exists path) then None
        else if Sys.is_directory path then Some ""
        else Some (read_file path))
      files
  in
  rm_rf dir;
  (Helpers.exit_code status, left)

let check_writes args files =
  let code, left = run_leaving [ args ] files in
  Alcotest.(check int) (args ^ " exits 0") 0 code;
  List.iter2
    (fun f ok -> Alcotest.(check bool) (args ^ " leaves " ^ f) true (ok <> None))
    files left

let test_kk_prom_missing_dir () =
  check_writes "kk --jobs 50 --procs 3 --prom-out a/b" [ "a/b/amo_kk.prom" ]

let test_fuzz_prom_missing_dir () =
  check_writes "fuzz --budget 5 --jobs 4 --procs 2 --prom-out a/b" [ "a/b/amo_fuzz.prom" ]

(* every other file-writing flag, each into a directory that does not
   exist yet *)
let test_writers_missing_dir () =
  check_writes
    "kk --jobs 30 --procs 3 --csv-dos a/dos.csv --csv-timeline b/c/tl.csv \
     --trace-out d/t.json --flight-out e/f"
    [ "a/dos.csv"; "b/c/tl.csv"; "d/t.json"; "e/f/manifest.json" ];
  check_writes "chaos --soak 10 --jobs 6 --procs 3 --prom-out a/b" [ "a/b/amo_chaos.prom" ];
  check_writes "profile --jobs 30 --procs 3 --prom-out a/b --trace-out c/t.json \
                --report-out d/r.html"
    [ "a/b/amo_profile.prom"; "c/t.json"; "d/r.html" ];
  check_writes "report --jobs 30 --procs 3 -o a/r.html --ledger-out b/l.json"
    [ "a/r.html"; "b/l.json" ];
  check_writes "fuzz --budget 5 --jobs 4 --procs 2 --corpus a/b/c" [ "a/b/c" ];
  (* a violation: the counterexample plan lands in the missing --out-dir *)
  let code, left =
    run_leaving
      [
        "fuzz --budget 300 --jobs 4 --procs 2 --seed 1 --algo skip-check \
         --stop-on-violation --out-dir a/b";
      ]
      [ "a/b/FUZZ_00_fuzz-seed-random.json" ]
  in
  Alcotest.(check int) "fuzz violation exits 1" 1 code;
  Alcotest.(check (list bool))
    "FUZZ plan in the missing --out-dir" [ true ] (List.map Option.is_some left);
  (* the trace engine's outputs, from a fresh flight dump *)
  let code, left =
    run_leaving
      [
        "kk --jobs 20 --procs 2 --flight-out fl";
        "trace decode --in fl --jsonl a/d.jsonl --chrome b/d.json";
        "trace merge --in fl --in fl --out c/m.amoj";
      ]
      [ "a/d.jsonl"; "b/d.json"; "c/m.amoj" ]
  in
  Alcotest.(check int) "trace decode/merge exit 0" 0 code;
  Alcotest.(check (list bool))
    "trace outputs written" [ true; true; true ] (List.map Option.is_some left)

(* the Chrome document `trace decode --chrome` renders from the flight
   dump of a deterministic run with a crash *)
let test_decode_chrome_golden () =
  let code, left =
    run_leaving
      [
        "kk --jobs 12 --procs 3 --sched random --crashes 1 --seed 4 --flight-out fl";
        "trace decode --in fl --chrome d.json";
      ]
      [ "d.json" ]
  in
  Alcotest.(check int) "kk --flight-out, trace decode --chrome exit 0" 0 code;
  check_golden "trace_decode_chrome.json" (Option.value ~default:"" (List.hd left))

(* bad counts and crash budgets are usage errors (exit 124), caught
   before any run *)
let test_bad_parameters_exit_124 () =
  List.iter
    (fun args ->
      let code, _ = run_leaving [ args ] [] in
      Alcotest.(check int) (args ^ " exits 124") 124 code)
    [
      "kk --jobs 0";
      "multicore --jobs 0";
      "chaos --soak 5 --jobs 0";
      "kk --procs 0";
      "msg --procs 0";
      "msg --jobs 30 --procs 3 --crashes 9";
      "msg --procs 3 --crashes=-1";
      "msg --servers 0";
      "explore --procs 0";
      "kk --procs 3 --crashes 3";
      "kk --procs 3 --crashes=-1";
      "claim --procs 2 --crashes 5";
      "iterative --procs 4 --crashes 4";
      "wa --procs 4 --crashes 4";
      "trivial --procs 2 --crashes 2";
      "pairing --procs 2 --crashes 2";
      "report --procs 2 --crashes 2";
      "profile --procs 2 --crashes 2";
    ]

let suite =
  [
    Alcotest.test_case "stdout and exit-code goldens" `Quick test_stdout_goldens;
    Alcotest.test_case "--help goldens" `Quick test_help_goldens;
    Alcotest.test_case "kk --prom-out creates its directory" `Quick
      test_kk_prom_missing_dir;
    Alcotest.test_case "fuzz --prom-out creates its directory" `Quick
      test_fuzz_prom_missing_dir;
    Alcotest.test_case "every output flag creates its directory" `Quick
      test_writers_missing_dir;
    Alcotest.test_case "trace decode --chrome golden" `Quick
      test_decode_chrome_golden;
    Alcotest.test_case "bad --jobs/--procs/--crashes exit 124" `Quick
      test_bad_parameters_exit_124;
  ]
