(* E19 — flight recorder: write-path overhead, codec throughput,
   retention accounting, merge determinism.

   Four claims about the always-on black box (DESIGN.md §13):

   1. Cost: attaching the lean journal probe ([Obs.Journal.probe] —
      compact binary event encoding straight into a bounded
      [Obs.Flight]) to a [`Silent] run costs < 5% CPU time on the E4
      work grid (median of paired on/off ratios, best grid row, the
      estimator E14, E16 and E18 share) — cheap enough to leave on in
      every run.

   2. Codec: [decode (encode x) = x] over a large deterministic corpus
      of both payload shapes (compact executor events and generic
      records), at a throughput worth recording.

   3. Retention: the flight's counters account for every record ever
      pushed — total = retained + dropped, byte-exact bound respected.

   4. Determinism: merging per-domain journals from a real multicore
      run yields the same stream on repeated merges, and loses
      nothing (merged length = sum of inputs). *)

open Exp_common

(* ---- 1. write-path overhead ([Exp_common.overhead_row]) ---- *)

let kk_do_count ~journaled ~n ~m ~beta () =
  let probe =
    if journaled then Some (Obs.Journal.probe (Obs.Flight.create ())) else None
  in
  (Core.Harness.kk ~trace_level:`Silent ?probe ~n ~m ~beta ())
    .Core.Harness.do_count

(* ---- 2. codec corpus: both payload shapes, deterministic ---- *)

let corpus rng ~size =
  List.init size (fun i ->
      if i mod 2 = 0 then
        (* compact executor events — the hot-path shape *)
        let p = 1 + Util.Prng.int rng 8 in
        let ev =
          match Util.Prng.int rng 5 with
          | 0 -> Shm.Event.Do { p; job = 1 + Util.Prng.int rng 1000 }
          | 1 ->
              Shm.Event.Read
                {
                  p;
                  cell = "next" ^ string_of_int p;
                  value = Util.Prng.int rng 100;
                  wid = 0;
                }
          | 2 ->
              Shm.Event.Write
                {
                  p;
                  cell = "done" ^ string_of_int p;
                  value = Util.Prng.int rng 100;
                  wid = Util.Prng.int rng 10_000;
                }
          | 3 -> Shm.Event.Crash { p }
          | _ -> Shm.Event.Internal { p; action = "compNext" }
        in
        Obs.Journal.Event { step = i; event = ev }
      else
        (* generic records — args exercise every Json constructor *)
        Obs.Journal.Record
          (Obs.Sink.record ~ts:i ~dur:(Util.Prng.int rng 3)
             ~pid:(Util.Prng.int rng 9) ~kind:Obs.Sink.Counter
             ~args:
               [
                 ("i", Obs.Json.Int (Util.Prng.int rng 1_000_000));
                 ("f", Obs.Json.Float (float_of_int i /. 7.));
                 ("s", Obs.Json.String "e19");
                 ( "l",
                   Obs.Json.List [ Obs.Json.Int i; Obs.Json.Bool (i mod 3 = 0) ]
                 );
               ]
             "e19.counter"))

let codec_roundtrip items =
  let t0 = Sys.time () in
  let encoded = List.map Obs.Journal.encode items in
  let blob = String.concat "" encoded in
  let decoded, damage = Obs.Journal.decode_string blob in
  let dt = Sys.time () -. t0 in
  let ok = damage = None && decoded = items in
  (ok, String.length blob, dt)

(* ---- 3 & 4 in [run] directly ---- *)

let run () =
  section ~id:"E19" ~title:"flight recorder: overhead, codec, retention, merge"
    ~claim:
      "the always-on journal probe costs < 5% on `Silent runs; the binary \
       codec round-trips a mixed corpus exactly; retention counters account \
       for every record; per-domain merges are deterministic and lossless";
  let all_ok = ref true in
  (* -- 1. journal-probe overhead on the E4 work grid -- *)
  Printf.printf "  journal-probe overhead (`Silent trace, m=4):\n";
  let m = 4 in
  param_int "min_batch_ms" (int_of_float (min_batch_seconds *. 1e3));
  let best_overhead = ref infinity in
  let overhead_rows =
    List.map
      (fun n ->
        let beta = m in
        let o =
          overhead_row
            ~off:(kk_do_count ~journaled:false ~n ~m ~beta)
            ~on_:(kk_do_count ~journaled:true ~n ~m ~beta)
            ()
        in
        best_overhead := min !best_overhead o.pct;
        overhead_cells ~n ~m o)
      (if_smoke [ 256; 512 ] [ 256; 512; 1024 ])
  in
  table
    ~header:[ "n"; "m"; "off (ms)"; "on (ms)"; "overhead %" ]
    overhead_rows;
  let overhead_ok = !best_overhead < 5. in
  if not overhead_ok then all_ok := false;
  record_metric ~direction:Obs.Snapshot.Lower_is_better ~predicted:5.
    "journal_probe_overhead_pct" !best_overhead;
  (* -- 2. codec round-trip at volume -- *)
  let size = if_smoke 10_000 100_000 in
  param_int "codec_corpus" size;
  let items = corpus (Util.Prng.of_int 1919) ~size in
  let codec_ok, bytes, dt = codec_roundtrip items in
  if not codec_ok then all_ok := false;
  let per_record = float_of_int bytes /. float_of_int size in
  let mb_s =
    if dt > 0. then float_of_int bytes /. dt /. 1e6 else 0.
  in
  Printf.printf
    "\n  codec: %d items -> %d bytes (%.1f B/record), encode+decode %.1f \
     MB/s, round-trip %s\n"
    size bytes per_record mb_s
    (if codec_ok then "exact" else "BROKEN");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "codec_roundtrip_exact"
    (if codec_ok then 1. else 0.);
  record_metric ~direction:Obs.Snapshot.Lower_is_better "codec_bytes_per_record"
    per_record;
  record_metric ~direction:Obs.Snapshot.Higher_is_better "codec_mb_per_sec"
    mb_s;
  (* -- 3. retention accounting under heavy eviction -- *)
  let fl = Obs.Flight.create ~segment_bytes:1024 ~max_segments:4 () in
  List.iter (fun it -> Obs.Flight.push fl (Obs.Journal.encode it)) items;
  let accounted =
    Obs.Flight.total_records fl
    = Obs.Flight.retained_records fl + Obs.Flight.dropped_records fl
  in
  let decoded_tail =
    let blob =
      String.concat ""
        (List.map
           (fun (s : Obs.Flight.segment) -> s.Obs.Flight.bytes)
           (Obs.Flight.segments fl))
    in
    let tail, damage = Obs.Journal.decode_string blob in
    damage = None && List.length tail = Obs.Flight.retained_records fl
  in
  if not (accounted && decoded_tail) then all_ok := false;
  Printf.printf
    "  retention: %d pushed = %d retained (%d segments) + %d dropped (%d \
     segments) — %s; retained tail decodes clean: %s\n"
    (Obs.Flight.total_records fl)
    (Obs.Flight.retained_records fl)
    (Obs.Flight.segment_count fl)
    (Obs.Flight.dropped_records fl)
    (Obs.Flight.dropped_segments fl)
    (if accounted then "accounted" else "LEAK")
    (if decoded_tail then "yes" else "NO");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "retention_accounted"
    (if accounted && decoded_tail then 1. else 0.);
  (* -- 4. per-domain journals from a real multicore run: merge is
        deterministic and lossless -- *)
  let mn = if_smoke 256 1024 and mm = 4 in
  param_int "mc_n" mn;
  let journals = Array.init mm (fun _ -> Obs.Flight.create ()) in
  let outcome = Multicore.Runner.run_kk ~n:mn ~m:mm ~beta:mm ~journals () in
  let streams =
    Array.map
      (fun fl ->
        let blob =
          String.concat ""
            (List.map
               (fun (s : Obs.Flight.segment) -> s.Obs.Flight.bytes)
               (Obs.Flight.segments fl))
        in
        let its, damage = Obs.Journal.decode_string blob in
        if damage <> None then all_ok := false;
        its)
      journals
  in
  let m1 = Obs.Journal.merge streams in
  let m2 = Obs.Journal.merge streams in
  let total_in = Array.fold_left (fun a l -> a + List.length l) 0 streams in
  let deterministic = m1 = m2 in
  let lossless = List.length m1 = total_in in
  if not (deterministic && lossless) then all_ok := false;
  Printf.printf
    "  merge: %d domain journals, %d records (%d jobs done) -> %d merged; \
     repeat identical: %s\n"
    mm total_in
    (Array.fold_left ( + ) 0 outcome.Multicore.Runner.per_process)
    (List.length m1)
    (if deterministic then "yes" else "NO");
  record_metric ~direction:Obs.Snapshot.Higher_is_better ~predicted:1.
    "merge_deterministic"
    (if deterministic && lossless then 1. else 0.);
  verdict !all_ok
    "journal probe overhead %.1f%% (< 5%%); codec exact at %.1f B/record, \
     %.0f MB/s; retention accounted; %d-way multicore merge deterministic"
    !best_overhead per_record mb_s mm
