(* Shared infrastructure for the experiment harness: section headers,
   aligned tables, and pass/fail verdict lines.  Each experiment Ei
   regenerates one of the paper's theorems (the paper's "evaluation"
   is its set of theorems — see DESIGN.md §5) and prints a
   measured-vs-predicted table plus a verdict. *)

(* When set (bench main's --csv DIR), every printed table is also
   written to DIR/<experiment-id>.csv. *)
let csv_dir : string option ref = ref None

(* When set (--json [DIR]), each experiment's verdict also writes a
   versioned Obs.Snapshot to DIR/BENCH_<id>.json. *)
let json_dir : string option ref = ref None

(* --smoke: shrink every grid so the whole suite runs in seconds (the
   CI bench-smoke job); snapshots are still written, against
   smoke-sized committed baselines. *)
let smoke = ref false

let if_smoke small full = if !smoke then small else full

let current_id = ref ""
let current_title = ref ""
let current_claim = ref ""
let rev_params : (string * Obs.Json.t) list ref = ref []
let rev_metrics : Obs.Snapshot.metric list ref = ref []

(* Snapshot schema v2: every BENCH_*.json says how its numbers were
   taken.  Experiments that measure wall-clock time override this via
   [record_timing]; the default describes the single-pass simulator
   measurement. *)
let current_timing : Obs.Snapshot.timing ref = ref Obs.Snapshot.default_timing

let record_timing ~iterations ~warmup ~clock =
  current_timing := { Obs.Snapshot.iterations; warmup; clock }

let section ~id ~title ~claim =
  current_id := id;
  current_title := title;
  current_claim := claim;
  rev_params := [];
  rev_metrics := [];
  current_timing := Obs.Snapshot.default_timing;
  Printf.printf "\n=== %s: %s ===\n" id title;
  Printf.printf "    paper claim: %s\n\n" claim

let record_param name v = rev_params := (name, v) :: !rev_params
let param_int name i = record_param name (Obs.Json.Int i)
let param_str name s = record_param name (Obs.Json.String s)

let record_metric ?direction ?predicted name measured =
  rev_metrics :=
    Obs.Snapshot.metric ?direction ?predicted ~name measured :: !rev_metrics

type cell = S of string | I of int | F of float

let cell_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.2f" f

let table ~header rows =
  let rows = List.map (List.map cell_to_string) rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w s -> max w (String.length s)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row cells =
    List.iter2 (fun w s -> Printf.printf "  %*s" w s) widths cells;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  match !csv_dir with
  | Some dir ->
      let path = Filename.concat dir (String.lowercase_ascii !current_id ^ ".csv") in
      Analysis.Csv.write_file ~path ~header rows
  | None -> ()

let write_snapshot ~ok =
  match !json_dir with
  | None -> ()
  | Some dir ->
      let snap =
        Obs.Snapshot.make ~title:!current_title ~claim:!current_claim
          ~params:(List.rev !rev_params)
          ~metrics:(List.rev !rev_metrics)
          ~timing:!current_timing ~ok
          (String.lowercase_ascii !current_id)
      in
      let path = Obs.Snapshot.save ~dir snap in
      Printf.printf "  snapshot: %s\n" path

let verdict ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "  %s %s\n" (if ok then "[REPRODUCED]" else "[MISMATCH]") msg;
      write_snapshot ~ok;
      ok)
    fmt

(* A distribution's p50/p99/max as table cells — E4/E5 report
   per-process distributions, not just totals. *)
let summary_cells s =
  [ I (Obs.Sketch.percentile s 50.); I (Obs.Sketch.percentile s 99.); I (Obs.Sketch.max_value s) ]

(* Standard parameter grids, shared across experiments so tables are
   comparable. *)
let m_grid = [ 2; 4; 8; 16 ]

let seeds k = List.init k (fun i -> 1000 + (17 * i))

let amo_ok dos =
  match Core.Spec.check_at_most_once dos with Ok () -> true | Error _ -> false

(* Run one KK configuration under a seeded random scheduler with f
   random crashes.  [provenance] additionally records pick/forfeit
   annotations so an Obs.Ledger can be rebuilt from the trace (E14). *)
let kk_random_run ?(provenance = false) ~seed ~n ~m ~beta ~f () =
  let rng = Util.Prng.of_int seed in
  let adversary =
    if f = 0 then Shm.Adversary.none
    else Shm.Adversary.random rng ~f ~m ~horizon:(4 * n)
  in
  Core.Harness.kk
    ~scheduler:(Shm.Schedule.random (Util.Prng.split rng))
    ~adversary ~trace_level:`Outcomes ~provenance ~n ~m ~beta ()

(* ---- probe overhead: the one estimator of E14, E16, E18 and E19 ---- *)

(* CPU time of one call of [run] from an empty minor heap, and its
   result (a digest such as the do count, so both sides can be checked
   to do the same work). *)
let time_run run =
  Gc.minor ();
  let t0 = Sys.time () in
  let d = run () in
  (Sys.time () -. t0, d)

(* A batch runs for at least this much CPU time, so that neither the
   clock's granularity nor one slow call dominates a ratio. *)
let min_batch_seconds = 0.05

(* The smallest power of two of calls of [run] that take
   [min_batch_seconds]; the doubling doubles as the warm-up. *)
let calibrate_batch run =
  let rec go batch =
    let dt = ref 0. in
    for _ = 1 to batch do
      dt := !dt +. fst (time_run run)
    done;
    if !dt >= min_batch_seconds || batch >= 1 lsl 20 then batch
    else go (2 * batch)
  in
  go 1

type overhead = {
  pct : float;  (** median of paired on/off ratios, as a percentage over 1 *)
  off_ms : float;  (** fastest off batch, per call *)
  on_ms : float;  (** fastest on batch, per call *)
}

let overhead_reps = 8

(* One grid row: [off] and [on_] run the same workload without and with
   the probe under test, and [prepare on] (default: nothing) runs
   untimed before each call of that side.  Each of [overhead_reps]
   pairs of batches interleaves its off and on calls one by one,
   alternating which goes first, so the shared host's contention
   bursts and clock-frequency swings, which last from milliseconds to
   seconds, land on both sides of a pair alike; the median of the
   paired on/off ratios then discards the pairs a burst still
   skewed.  Alternating whole batches instead let one burst inflate
   one side, and read ±5% on a 2-core host. *)
let overhead_row ?(prepare = ignore) ~off ~on_ () =
  let side on () =
    prepare on;
    (if on then on_ else off) ()
  in
  let batch = calibrate_batch (side false) in
  ignore (calibrate_batch (side true));
  let off_best = ref infinity and on_best = ref infinity in
  let ratios =
    List.init overhead_reps (fun r ->
        let t_off = ref 0. and t_on = ref 0. in
        for i = 1 to batch do
          let on_first = (r + i) mod 2 = 0 in
          let a, da = time_run (side on_first) in
          let b, db = time_run (side (not on_first)) in
          assert (da = db);
          let x_on, x_off = if on_first then (a, b) else (b, a) in
          t_on := !t_on +. x_on;
          t_off := !t_off +. x_off
        done;
        off_best := min !off_best !t_off;
        on_best := min !on_best !t_on;
        !t_on /. !t_off)
  in
  let sorted = Array.of_list (List.sort compare ratios) in
  let median =
    (sorted.((overhead_reps - 1) / 2) +. sorted.(overhead_reps / 2)) /. 2.
  in
  let per_call s = s /. float_of_int batch *. 1e3 in
  {
    pct = max 0. (100. *. (median -. 1.));
    off_ms = per_call !off_best;
    on_ms = per_call !on_best;
  }

let overhead_cells ~n ~m o = [ I n; I m; F o.off_ms; F o.on_ms; F o.pct ]
