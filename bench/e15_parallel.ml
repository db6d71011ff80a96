(* E15 — domain-parallel exploration with state-fingerprint caching.

   {!Analysis.Explore.explore} on several domains claims two things
   the tests pin down and this experiment measures at bench scale:

   - determinism of the parallel merge: with the cache off, the
     execution stream (schedules AND do-logs, in order) is
     byte-identical to the one-domain walk for every domain count — so
     the verdict gates on stream/set equality, NOT on wall-clock;
   - the fingerprint cache preserves canonical do-log sets (and hence
     every oracle verdict) while pruning re-explored states.

   Speedup and cache hit-rate are recorded as informational metrics
   (Higher_is_better): on a single-core runner the speedup hovers
   around 1.0 and only improves with real cores, so the direction-aware
   gate never fails for lack of parallel hardware. *)

open Exp_common
module E = Analysis.Explore

let deep = 1_000_000
let max_steps = 50_000

(* stream = the full (schedule, dos) sequence in emission order *)
let explore_stream ?fingerprint ~domains factory =
  let out = ref [] in
  let stats =
    E.explore ~strategy:E.Por ?fingerprint ~domains ~factory
      ~branch_depth:deep ~max_steps
      ~on_execution:(fun e -> out := (e.E.schedule, e.E.dos) :: !out)
      ()
  in
  (List.rev !out, stats)

let canon stream =
  List.sort_uniq compare
    (List.map (fun (_, dos) -> E.canonical_do_log dos) stream)

(* best of three, so scheduler hiccups don't pollute the ratio *)
let time_best f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let run () =
  section ~id:"E15" ~title:"domain-parallel exploration"
    ~claim:
      "the work-stealing explorer enumerates the identical execution \
       stream on every domain count as on one (byte-identical with the \
       fingerprint cache off, identical canonical do-log sets with it on), \
       so the POR safety results transfer unchanged to multi-domain runs";
  let stream_mismatches = ref 0 in
  let set_mismatches = ref 0 in
  let seq_execs = ref 0 in
  let cache_execs = ref 0 in
  let hits_d1 = ref 0 in
  let lookups_d1 = ref 0 in
  let speedups = Hashtbl.create 4 in
  let case ~name ~timing ~factory =
    let (stream0, stats0), seq_t =
      time_best (fun () -> explore_stream ~domains:1 factory)
    in
    seq_execs := !seq_execs + List.length stream0;
    let row_of ~domains =
      if domains = 1 then (stats0, true, 1.)
      else
        let (stream, stats), par_t =
          time_best (fun () -> explore_stream ~domains factory)
        in
        let identical = stream = stream0 in
        if not identical then incr stream_mismatches;
        let speedup = seq_t /. par_t in
        if timing then
          Hashtbl.replace speedups domains
            (speedup
            :: Option.value ~default:[] (Hashtbl.find_opt speedups domains));
        (stats, identical, speedup)
    in
    let rows =
      List.map
        (fun domains ->
          let stats, identical, speedup = row_of ~domains in
          [
            S name;
            I domains;
            S "off";
            I stats.E.executions;
            S (if identical then "identical" else "MISMATCH");
            I stats.E.work_items;
            I stats.E.steals;
            F speedup;
          ])
        [ 1; 2; 4 ]
    in
    (* cache on: set preservation + pruning, d=1 (deterministic
       lookup counts) and d=4 *)
    let cache_rows =
      List.map
        (fun domains ->
          let stream, stats =
            explore_stream ~fingerprint:true ~domains factory
          in
          let same_set = canon stream = canon stream0 in
          if not same_set then incr set_mismatches;
          if stats.E.executions > List.length stream0 then incr set_mismatches;
          if domains = 1 then begin
            cache_execs := !cache_execs + stats.E.executions;
            match stats.E.cache with
            | Some c ->
                hits_d1 := !hits_d1 + c.Analysis.Fingerprint.hits;
                lookups_d1 :=
                  !lookups_d1 + c.Analysis.Fingerprint.hits
                  + c.Analysis.Fingerprint.misses
            | None -> incr set_mismatches
          end;
          [
            S name;
            I domains;
            S "on";
            I stats.E.executions;
            S (if same_set then "same set" else "SET MISMATCH");
            I stats.E.work_items;
            I stats.E.steals;
            F 0.;
          ])
        [ 1; 4 ]
    in
    rows @ cache_rows
  in
  let cases =
    if !Exp_common.smoke then
      [
        case ~name:"KK n=3 m=2 beta=2" ~timing:true
          ~factory:(E10_exhaustive.kk_factory ~n:3 ~m:2 ~beta:2);
        case ~name:"pairing n=2 m=2" ~timing:false
          ~factory:(E10_exhaustive.pairing_factory ~n:2 ~m:2);
      ]
    else
      [
        case ~name:"KK n=6 m=2 beta=2" ~timing:true
          ~factory:(E10_exhaustive.kk_factory ~n:6 ~m:2 ~beta:2);
        case ~name:"KK n=5 m=2 beta=2" ~timing:false
          ~factory:(E10_exhaustive.kk_factory ~n:5 ~m:2 ~beta:2);
        case ~name:"pairing n=3 m=2" ~timing:false
          ~factory:(E10_exhaustive.pairing_factory ~n:3 ~m:2);
      ]
  in
  table
    ~header:
      [ "instance"; "domains"; "cache"; "execs"; "vs d=1"; "items";
        "steals"; "speedup" ]
    (List.concat cases);
  let mean l =
    match l with
    | [] -> 1.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let speedup_of d =
    mean (Option.value ~default:[] (Hashtbl.find_opt speedups d))
  in
  let hit_rate =
    if !lookups_d1 = 0 then 0.
    else float_of_int !hits_d1 /. float_of_int !lookups_d1
  in
  record_metric "stream_mismatches" (float_of_int !stream_mismatches);
  record_metric "set_mismatches" (float_of_int !set_mismatches);
  record_metric "seq_executions" (float_of_int !seq_execs);
  record_metric "cache_executions" (float_of_int !cache_execs);
  record_metric ~direction:Obs.Snapshot.Higher_is_better "speedup_d2"
    (speedup_of 2);
  record_metric ~direction:Obs.Snapshot.Higher_is_better "speedup_d4"
    (speedup_of 4);
  record_metric ~direction:Obs.Snapshot.Higher_is_better "cache_hit_rate_d1"
    hit_rate;
  verdict (!stream_mismatches = 0 && !set_mismatches = 0 && !seq_execs > 0)
    "parallel streams byte-identical to one domain (cache off) and canonical \
     do-log sets preserved (cache on) on every instance and domain count; \
     speedup is informational (single-core runners score ~1.0)"
