(* Benchmark harness entry point.

   Each experiment regenerates one of the paper's theorems (the
   paper's evaluation section *is* its theorems; the experiment index
   lives in DESIGN.md §5 and the recorded outcomes in EXPERIMENTS.md).

     dune exec bench/main.exe            # run everything (E1-E19)
     dune exec bench/main.exe -- e4      # run one experiment

   Wall-clock figures come from the separate benchmark in perfbench/. *)

let experiments =
  [
    ("e1", E1_safety.run);
    ("e2", E2_effectiveness.run);
    ("e3", E3_baselines.run);
    ("e4", E4_work.run);
    ("e5", E5_collisions.run);
    ("e6", E6_iterative.run);
    ("e7", E7_writeall.run);
    ("e8", E8_policy.run);
    ("e9", E9_multicore.run);
    ("e10", E10_exhaustive.run);
    ("e11", E11_nesting.run);
    ("e12", E12_message_passing.run);
    ("e13", E13_chaos.run);
    ("e14", E14_provenance.run);
    ("e15", E15_parallel.run);
    ("e16", E16_telemetry.run);
    ("e17", E17_fuzz.run);
    ("e18", E18_observatory.run);
    ("e19", E19_flight.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--csv DIR] [--json] [--json-dir DIR] [--smoke] \
     [e1|...|e19]...";
  exit 2

let check_dir ~flag dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "%s: %s is not a directory\n" flag dir;
    exit 2
  end;
  dir

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --csv DIR: also write every experiment table to DIR/<id>.csv
     --json: write BENCH_<id>.json snapshots to the current directory
     --json-dir DIR: same, into DIR
     --smoke: tiny grids, for CI smoke runs *)
  let rec take_flags acc = function
    | "--csv" :: dir :: rest ->
        Exp_common.csv_dir := Some (check_dir ~flag:"--csv" dir);
        take_flags acc rest
    | "--json" :: rest ->
        if !Exp_common.json_dir = None then Exp_common.json_dir := Some ".";
        take_flags acc rest
    | "--json-dir" :: dir :: rest ->
        Exp_common.json_dir := Some (check_dir ~flag:"--json-dir" dir);
        take_flags acc rest
    | "--smoke" :: rest ->
        Exp_common.smoke := true;
        take_flags acc rest
    | a :: rest -> take_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = take_flags [] args in
  let requested =
    match args with
    | [] -> List.map fst experiments
    | args ->
        List.iter
          (fun a -> if not (List.mem_assoc a experiments) then usage ())
          args;
        args
  in
  Printf.printf
    "at-most-once reproduction benches (Kentros & Kiayias, TCS 2013)\n";
  Printf.printf "experiments: %s\n" (String.concat ", " requested);
  let results =
    List.map (fun id -> (id, (List.assoc id experiments) ())) requested
  in
  Printf.printf "\n=== summary ===\n";
  List.iter
    (fun (id, ok) ->
      Printf.printf "  %-9s %s\n" id (if ok then "REPRODUCED" else "MISMATCH"))
    results;
  if List.for_all snd results then Printf.printf "\nall experiments reproduced.\n"
  else begin
    Printf.printf "\nsome experiments did NOT reproduce.\n";
    exit 1
  end
