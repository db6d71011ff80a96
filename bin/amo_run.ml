(* amo_run: command-line driver for every algorithm in the library.

   Examples: README.md, section CLI.

   Exit status: 0 on success, 1 when a run violates its oracle
   (at-most-once, Write-All completeness, or a tight-bound prediction),
   2 on a bad input file or log level, 124 on a bad flag value (a
   count below 1, --crashes outside 0..procs-1).

   Layout: Cli holds the shared flags, the result printer and the
   file writer; Run_cmds, Search_cmds, Report_cmds and Trace_cmds hold
   the commands, one module per family. *)

open Cmdliner
module J = Obs.Json
open Cli
open Run_cmds
open Search_cmds
open Report_cmds
open Trace_cmds

let version_string = "1.0.0"

(* archived artifacts (BENCH_*.json baselines, Prometheus snapshots)
   are attributable to a binary + snapshot schema pair *)
let version_cmd =
  let run json =
    print ~json
      [
        {
          lines = [ "amo_run " ^ version_string ];
          fields = [ ("version", J.String version_string) ];
        };
        row "snapshot schema"
          (Printf.sprintf "v%d (BENCH_*.json / bench/compare.exe)"
             Obs.Snapshot.schema_version)
          [ ("snapshot_schema_version", J.Int Obs.Snapshot.schema_version) ];
      ]
  in
  let doc =
    "Print the binary version and the Obs.Snapshot schema version, so \
     archived BENCH_*.json and Prometheus artifacts are attributable."
  in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ json_flag)

let () =
  let doc = "at-most-once and Write-All algorithms (Kentros & Kiayias)" in
  let info = Cmd.info "amo_run" ~version:version_string ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            kk_cmd;
            claim_cmd;
            worst_cmd;
            iterative_cmd;
            wa_cmd;
            trivial_cmd;
            pairing_cmd;
            msg_cmd;
            explore_cmd;
            chaos_cmd;
            fuzz_cmd;
            multicore_cmd;
            report_cmd;
            profile_cmd;
            trace_cmd;
            version_cmd;
          ]))
