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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runs the suite from test/; a manual `dune exec` may not *)
let golden name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

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

(* Recording ABD histories for Analysis.Atomicity: [record h body]
   wraps a client body's [read]/[write] with one logical clock shared
   by all clients of the run.  KKβ may write the same value twice, so a
   write stores [(seq lsl 32) lor v] with a run-wide sequence number
   and the body still sees [v]; every stored value is then unique per
   register.  A write whose client crashes stays pending. *)
type recorded = {
  r_proc : int;
  r_reg : int;
  r_kind : Analysis.Atomicity.kind;
  r_value : int;
  r_inv : int;
  mutable r_resp : int option;
}

type history = {
  mutable clock : int;
  mutable seq : int;
  mutable ops : recorded list;
}

let history () = { clock = 0; seq = 0; ops = [] }

let tick h =
  h.clock <- h.clock + 1;
  h.clock

let record h (body : Msg.Abd.body) ~pid : Msg.Abd.body =
 fun ~read ~write ~do_job ->
  let read reg =
    let r_inv = tick h in
    let stored = read reg in
    h.ops <-
      { r_proc = pid; r_reg = reg; r_kind = Analysis.Atomicity.Read;
        r_value = stored; r_inv; r_resp = Some (tick h) }
      :: h.ops;
    stored land 0xffff_ffff
  in
  let write reg v =
    h.seq <- h.seq + 1;
    let stored = (h.seq lsl 32) lor v in
    let op =
      { r_proc = pid; r_reg = reg; r_kind = Analysis.Atomicity.Write;
        r_value = stored; r_inv = tick h; r_resp = None }
    in
    h.ops <- op :: h.ops;
    write reg stored;
    op.r_resp <- Some (tick h)
  in
  body ~read ~write ~do_job

let history_ops h =
  List.rev_map
    (fun o ->
      { Analysis.Atomicity.proc = o.r_proc; reg = o.r_reg; kind = o.r_kind;
        value = o.r_value; inv = o.r_inv; resp = o.r_resp })
    h.ops

(* Fails with the first violations when the recorded history is not
   atomic. *)
let check_atomic ~name h =
  match Analysis.Atomicity.check (history_ops h) with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d atomicity violations, first: %s" name
        (List.length vs)
        (Format.asprintf "%a" Analysis.Atomicity.pp_violation (List.hd vs))
