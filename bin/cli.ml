(* What every amo_run command shares: the flags, the one printer for
   results, the one writer for output files, the seeded scheduler and
   adversary of a simulated run, the flight recorder and the live
   dashboard/Prometheus loop. *)

open Cmdliner
module J = Obs.Json

(* ---- results ---- *)

(* A result is built once, as rows, and printed either as text lines
   "label           : value" or as one JSON object of every row's
   fields, in row order.  A row whose text line and JSON field sit at
   different places in the two renderings is split in two: one row
   with only the line, one with only the fields. *)
type row = { lines : string list; fields : (string * J.t) list }

let line label text = Printf.sprintf "%-16s: %s" label text
let row label text fields = { lines = [ line label text ]; fields }
let int_row label key v = row label (string_of_int v) [ (key, J.Int v) ]
let fields fields = { lines = []; fields }
let text lines = { lines; fields = [] }

let print ~json rows =
  if json then
    print_endline
      (J.to_string ~minify:false
         (J.Obj (List.concat_map (fun r -> r.fields) rows)))
  else List.iter (fun r -> List.iter (Fmt.pr "%s@.") r.lines) rows

let ints l = J.List (List.map (fun p -> J.Int p) l)
let pids l = Printf.sprintf "[%s]" (String.concat "; " (List.map string_of_int l))
let verdict violated = if violated = 0 then "OK" else Printf.sprintf "%d VIOLATED" violated

let per_second count elapsed = if elapsed > 0. then float_of_int count /. elapsed else 0.

(* the JSON fields every run result starts with *)
let head ~algorithm ~n ~m = [ ("algorithm", J.String algorithm); ("n", J.Int n); ("m", J.Int m) ]

let amo_ok dos = Result.is_ok (Core.Spec.check_at_most_once dos)

(* The at-most-once verdict of a do-log: "OK" plus [note], or the
   first violation; its JSON field is amo_ok. *)
let amo_row ~note dos =
  let verdict =
    match Core.Spec.check_at_most_once dos with
    | Ok () -> "OK" ^ note
    | Error v ->
        Printf.sprintf "VIOLATED (%s)" (Format.asprintf "%a" Core.Spec.pp_violation v)
  in
  row "at-most-once" verdict [ ("amo_ok", J.Bool (amo_ok dos)) ]

let metrics_json metrics =
  match J.parse (Shm.Metrics.to_json metrics) with Ok j -> j | Error _ -> J.Null

(* ---- output files ---- *)

(* The one writer of every file the CLI produces: the directory is
   created first, and the file is replaced atomically (tmp + rename),
   so a scraper never reads a half-written snapshot. *)
let write_file = Util.Files.write

(* [write_file], then name the file on stdout unless the output is JSON *)
let save ~json label path contents =
  write_file path contents;
  if not json then Fmt.pr "%s@." (line label path)

let prom_snapshot fill =
  let reg = Obs.Prom.create () in
  fill reg;
  Obs.Prom.render reg

(* (name, int) pairs as Prometheus labels or report parameters *)
let int_params kvs = List.map (fun (k, v) -> (k, string_of_int v)) kvs

let prom_counters reg ~labels counters =
  List.iter
    (fun (name, help, v) ->
      Obs.Prom.counter reg ~name ~help ~labels (float_of_int v))
    counters

(* ---- flags ---- *)

let at_least_one =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok d
        | _ ->
            Error
              (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= 1" s))),
      Format.pp_print_int )

let jobs_with default =
  let doc = "Number of jobs n." in
  Arg.(value & opt at_least_one default & info [ "jobs"; "n" ] ~docv:"N" ~doc)

let procs_with default =
  let doc = "Number of processes m." in
  Arg.(value & opt at_least_one default & info [ "procs"; "m" ] ~docv:"M" ~doc)

let jobs = jobs_with 1000
let procs = procs_with 8

let beta =
  let doc = "Termination parameter beta (default: m, effectiveness-optimal)." in
  Arg.(value & opt (some int) None & info [ "beta" ] ~docv:"BETA" ~doc)

let seed =
  let doc = "PRNG seed for stochastic schedulers and crash times." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let sched_kinds = [ ("rr", `Rr); ("random", `Random); ("bursty", `Bursty) ]

let sched =
  let doc = "Scheduler: rr, random, or bursty." in
  Arg.(value & opt (enum sched_kinds) `Rr & info [ "sched" ] ~docv:"SCHED" ~doc)

let crashes =
  let doc = "Number of random crash failures to inject (f < m)." in
  Arg.(value & opt int 0 & info [ "crashes"; "f" ] ~docv:"F" ~doc)

let eps_inv =
  let doc = "1/epsilon for the iterated algorithms (a positive integer)." in
  Arg.(value & opt int 2 & info [ "eps-inv" ] ~docv:"K" ~doc)

let apply_log_level = function
  | None -> ()
  | Some name -> (
      match Util.Logging.level_of_string name with
      | Some l -> Util.Logging.set_level l
      | None ->
          Fmt.epr "amo_run: unknown log level %S (use quiet|info|debug)@." name;
          exit 2)

let log_level =
  let doc =
    "Diagnostic verbosity for library logging: quiet, info or debug \
     (overrides the AMO_LOG environment variable)."
  in
  Term.(
    const apply_log_level
    $ Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc))

(* Every command but version: --log-level is applied before [term]
   runs the command. *)
let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () () -> ()) $ log_level $ term)

let json_flag =
  let doc = "Emit the run summary as a single JSON object on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_out =
  let doc =
    "Write the execution as Chrome trace_event JSON to $(docv) (open in \
     Perfetto or chrome://tracing).  Implies a full-detail trace."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* --prom-out DIR; the term is the snapshot's path DIR/[file] *)
let prom_out ~file doc =
  Term.(
    const (Option.map (fun dir -> Filename.concat dir file))
    $ Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"DIR" ~doc))

(* Flags whose meaning differs by command only in their help text *)
let max_steps doc =
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"STEPS" ~doc)

let out_dir doc = Arg.(value & opt string "." & info [ "out-dir" ] ~docv:"DIR" ~doc)

let plan_file doc = Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)

(* ---- simulated runs ---- *)

type sim = {
  n : int;
  m : int;
  f : int;
  seed : int;
  sched : [ `Rr | `Random | `Bursty ];
}

(* --procs and --crashes of a run that needs a survivor: F outside
   0..M-1 is a usage error (exit 124). *)
let procs_crashes =
  let check m f =
    if f < 0 || f >= m then
      `Error
        ( true,
          Printf.sprintf "option '--crashes': invalid value '%d', expected 0 <= F < M = %d"
            f m )
    else `Ok (m, f)
  in
  Term.(ret (const check $ procs $ crashes))

(* --jobs --procs --crashes --seed --sched of a run under a random
   crash adversary *)
let sim =
  Term.(
    const (fun n (m, f) seed sched -> { n; m; f; seed; sched })
    $ jobs $ procs_crashes $ seed $ sched)

let sched_name kind = fst (List.find (fun (_, k) -> k = kind) sched_kinds)

(* The run's scheduler and crash adversary, drawn from one PRNG. *)
let sim_env { n; m; f; seed; sched } =
  let rng = Util.Prng.of_int seed in
  let scheduler =
    match sched with
    | `Rr -> Shm.Schedule.round_robin ()
    | `Random -> Shm.Schedule.random rng
    | `Bursty -> Shm.Schedule.bursty rng ~max_burst:64
  in
  let adversary =
    if f = 0 then Shm.Adversary.none
    else Shm.Adversary.random rng ~f ~m ~horizon:(4 * n)
  in
  (scheduler, adversary)

(* ---- flight recorder ---- *)

(* One armed recorder per --flight-out run.  The dump is once-only —
   the first trigger (a violation) wins and later triggers are no-ops,
   so a soak's first failure is not overwritten by the end-of-run
   on-demand dump. *)
type flight = { dir : string; recorder : Obs.Flight.t; mutable dumped : bool }

let flight_out =
  let doc =
    "Arm an always-on binary flight recorder on the run: every executor \
     event is journaled into a bounded ring of fixed-size segments \
     (drop-oldest retention), and the retained tail plus a manifest is \
     dumped atomically into $(docv) — immediately on a violation, else at \
     run end.  Inspect with $(b,amo_run trace)."
  in
  Term.(
    const
      (Option.map (fun dir ->
           { dir; recorder = Obs.Flight.create (); dumped = false }))
    $ Arg.(value & opt (some string) None & info [ "flight-out" ] ~docv:"DIR" ~doc))

let flight_probe = Option.map (fun fl -> Obs.Journal.probe fl.recorder)

let flight_dump ~json ~trigger ~extra = function
  | Some fl when not fl.dumped ->
      fl.dumped <- true;
      let path = Obs.Journal.dump ~trigger ~extra ~dir:fl.dir fl.recorder in
      if not json then
        Fmt.pr "%s@."
          (line "flight dump"
             (Printf.sprintf "%s (%d records retained, trigger: %s)" path
                (Obs.Flight.retained_records fl.recorder)
                trigger))
  | _ -> ()

(* ---- live telemetry ---- *)

(* The refresh loop of a long run: [frame x elapsed] repaints the
   dashboard at most 10 times a second and [metrics x] refills the
   Prometheus snapshot at most once a second; [~final:true] forces
   both and ends the dashboard's last frame. *)
let live ~dashboard ~prom_out ~frame ~metrics =
  let t_start = Unix.gettimeofday () in
  let last_dash = ref neg_infinity and last_prom = ref neg_infinity in
  fun ~final x ->
    let now = Unix.gettimeofday () in
    if dashboard && (final || now -. !last_dash >= 0.1) then begin
      last_dash := now;
      print_string (Obs.Dashboard.ansi_home ^ frame x (now -. t_start));
      flush stdout
    end;
    (match prom_out with
    | Some path when final || now -. !last_prom >= 1.0 ->
        last_prom := now;
        write_file path (prom_snapshot (metrics x))
    | _ -> ());
    if final && dashboard then print_newline ()

(* --dashboard and --prom-out DIR (snapshot DIR/[prom_file]) of a long
   run, as its [live] loop *)
let live_flags ~dashboard_doc ~prom_file prom_doc =
  Term.(
    const (fun dashboard prom_out -> live ~dashboard ~prom_out)
    $ Arg.(value & flag & info [ "dashboard" ] ~doc:dashboard_doc)
    $ prom_out ~file:prom_file prom_doc)
