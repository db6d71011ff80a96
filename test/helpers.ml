(* Shared helpers for the test suite. *)

let check_amo dos =
  match Core.Spec.check_at_most_once dos with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "at-most-once violated: %s"
        (Format.asprintf "%a" Core.Spec.pp_violation v)

(* Brute-force enumeration of every interleaving, passing only the
   do-event log of each execution. *)
let explore_dos ~factory ~branch_depth ~max_steps ~on_execution () =
  Analysis.Explore.explore ~strategy:Analysis.Explore.Brute_force ~factory
    ~branch_depth ~max_steps
    ~on_execution:(fun e -> on_execution e.Analysis.Explore.dos)
    ()

(* The same, returning just the execution count. *)
let explore ~factory ~branch_depth ~max_steps ~on_execution =
  (explore_dos ~factory ~branch_depth ~max_steps ~on_execution ())
    .Analysis.Explore.executions

(* A scheduler battery for "holds under any schedule" tests. *)
let schedulers_for seed =
  [
    ("rr", Shm.Schedule.round_robin ());
    ("random", Shm.Schedule.random (Util.Prng.of_int seed));
    ("bursty", Shm.Schedule.bursty (Util.Prng.of_int (seed + 1)) ~max_burst:32);
    ( "biased",
      Shm.Schedule.biased (Util.Prng.of_int (seed + 2)) ~favourite:1 ~weight:8
    );
  ]

let qtest = QCheck_alcotest.to_alcotest

(* Driving the amo_run binary: its path from the test's working
   directory, its stdout and its exit status. *)
let amo_exe () =
  List.find Sys.file_exists
    [ "../bin/amo_run.exe"; "bin/amo_run.exe"; "_build/default/bin/amo_run.exe" ]

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

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s
