(* Tests for the binary flight recorder + journal codec + offline
   engine (ISSUE 10):

   - QCheck: [decode (encode x) = x] for whole item streams, over
     both payload shapes (compact executor events and generic records
     with arbitrary nested Json args);
   - corrupt tolerance: a journal truncated mid-record yields every
     complete prior record plus the damage byte offset; a flipped
     byte is caught by the xor checksum at the damaged record;
   - flight retention: drop-oldest accounting (total = retained +
     dropped) and the retained tail always decodes clean;
   - dump / load_dump round-trip through the on-disk segment+manifest
     layout, both via the directory and a single segment file;
   - the [Sink.journal] variant and the [Bridge.record_of_event] /
     [event_of_record] inverse pair;
   - [to_trace]: a journal captured by the lean probe rebuilds a
     trace with the run's exact Do sequence;
   - [merge]: vector-clocked items order by happens-before (beating
     the ts tie-break), merges are deterministic and lossless, and a
     real two-node [Msg.Net] run merges send-before-recv;
   - `amo_run trace` CLI: --help golden and the documented exit codes
     (0 clean decode, 1 --fail-empty with no match, 2 damaged). *)

module J = Obs.Journal
module Fl = Obs.Flight
module Jn = Obs.Json

let qtest = Helpers.qtest

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden name =
  List.find Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat "test/golden" name ]

(* ---- deterministic item corpus (seeded, both payload shapes) ---- *)

let gen_json rng =
  let rec go depth =
    match Util.Prng.int rng (if depth >= 2 then 6 else 8) with
    | 0 -> Jn.Null
    | 1 -> Jn.Bool (Util.Prng.bool rng)
    | 2 -> Jn.Int (Util.Prng.int rng 2_000_000 - 1_000_000)
    | 3 -> Jn.Int (-Util.Prng.int rng 1_000_000)
    | 4 -> Jn.Float (float_of_int (Util.Prng.int rng 1_000_000) /. 17.)
    | 5 ->
        Jn.String
          (String.init (Util.Prng.int rng 12) (fun _ ->
               Char.chr (Util.Prng.int rng 256)))
    | 6 -> Jn.List (List.init (Util.Prng.int rng 4) (fun _ -> go (depth + 1)))
    | _ ->
        Jn.Obj
          (List.init (Util.Prng.int rng 3) (fun i ->
               (Printf.sprintf "k%d" i, go (depth + 1))))
  in
  go 0

let gen_event rng =
  let p = 1 + Util.Prng.int rng 16 in
  let job = 1 + Util.Prng.int rng 10_000 in
  match Util.Prng.int rng 11 with
  | 0 -> Shm.Event.Do { p; job }
  | 1 -> Shm.Event.Crash { p }
  | 2 -> Shm.Event.Restart { p }
  | 3 -> Shm.Event.Terminate { p }
  | 4 ->
      Shm.Event.Read
        {
          p;
          cell = "next" ^ string_of_int (Util.Prng.int rng 9);
          value = Util.Prng.int rng 1_000;
          wid = Util.Prng.int rng 1_000;
        }
  | 5 ->
      Shm.Event.Write
        {
          p;
          cell = "done" ^ string_of_int (Util.Prng.int rng 9);
          value = Util.Prng.int rng 1_000;
          wid = Util.Prng.int rng 1_000;
        }
  | 6 -> Shm.Event.Internal { p; action = "compNext" }
  | 7 ->
      Shm.Event.Pick
        {
          p;
          job;
          free_card = Util.Prng.int rng 100;
          try_card = Util.Prng.int rng 100;
        }
  | 8 -> Shm.Event.Announce { p; job }
  | 9 ->
      Shm.Event.Forfeit
        {
          p;
          job;
          hit = (if Util.Prng.bool rng then "try" else "done");
          owner = Util.Prng.int rng 8;
        }
  | _ -> Shm.Event.Recover { p; job }

let gen_item rng i =
  if Util.Prng.bool rng then
    J.Event { step = i; event = gen_event rng }
  else
    J.Record
      (Obs.Sink.record ~ts:i ~dur:(Util.Prng.int rng 5)
         ~pid:(Util.Prng.int rng 17)
         ~kind:
           (match Util.Prng.int rng 4 with
           | 0 -> Obs.Sink.Span
           | 1 -> Obs.Sink.Instant
           | 2 -> Obs.Sink.Counter
           | _ -> Obs.Sink.Log)
         ~args:
           (List.init (Util.Prng.int rng 4) (fun k ->
                (Printf.sprintf "a%d" k, gen_json rng)))
         (Printf.sprintf "rec-%d" (Util.Prng.int rng 100)))

let gen_items seed count =
  let rng = Util.Prng.of_int seed in
  List.init count (fun i -> gen_item rng i)

(* ---- codec round-trip ---- *)

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id on item streams" ~count:200
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 40))
    (fun (seed, count) ->
      let items = gen_items seed count in
      let blob = String.concat "" (List.map J.encode items) in
      let got, damage = J.decode_string blob in
      damage = None && got = items)

let test_special_floats () =
  (* NaN, -0., infinities survive bit-exactly (Int64 bits, not text) *)
  let r v =
    J.Record
      (Obs.Sink.record ~ts:1 ~kind:Obs.Sink.Counter
         ~args:[ ("v", Jn.Float v) ]
         "f")
  in
  List.iter
    (fun v ->
      let got, damage = J.decode_string (J.encode (r v)) in
      Alcotest.(check bool) "no damage" true (damage = None);
      match got with
      | [ J.Record { Obs.Sink.args = [ ("v", Jn.Float v') ]; _ } ] ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h bit-exact" v)
            true
            (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
      | _ -> Alcotest.fail "wrong shape back")
    [ Float.nan; -0.; Float.infinity; Float.neg_infinity; 1e-308; 0.1 ]

let test_extreme_ints () =
  let r v =
    J.Record
      (Obs.Sink.record ~ts:v ~kind:Obs.Sink.Counter ~args:[ ("v", Jn.Int v) ] "i")
  in
  List.iter
    (fun v ->
      let got, damage = J.decode_string (J.encode (r v)) in
      Alcotest.(check bool) "no damage" true (damage = None);
      Alcotest.(check bool)
        (Printf.sprintf "int %d round-trips" v)
        true
        (got = [ r v ]))
    [ 0; -1; 1; max_int; min_int; min_int + 1; 1 lsl 62 ]

(* ---- corrupt tolerance ---- *)

let test_truncation_recovers_prefix () =
  let items = gen_items 42 6 in
  let encs = List.map J.encode items in
  let blob = String.concat "" encs in
  let keep = List.filteri (fun i _ -> i < 5) items in
  let prefix =
    List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 5) encs |> List.map String.length)
  in
  (* cut strictly inside the 6th record *)
  let cut = prefix + 1 in
  let got, damage = J.decode_string (String.sub blob 0 cut) in
  Alcotest.(check bool) "all complete records recovered" true (got = keep);
  match damage with
  | None -> Alcotest.fail "truncation not reported"
  | Some d ->
      Alcotest.(check int) "damage at the truncated record's start" prefix
        d.J.offset

let test_checksum_catches_flip () =
  let items = gen_items 7 4 in
  let encs = List.map J.encode items in
  let blob = Bytes.of_string (String.concat "" encs) in
  let off2 =
    String.length (List.nth encs 0) + String.length (List.nth encs 1)
  in
  (* flip a byte inside the 3rd record *)
  let pos = off2 + String.length (List.nth encs 2) / 2 in
  Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor 0x40));
  let got, damage = J.decode_string (Bytes.to_string blob) in
  (match damage with
  | None -> Alcotest.fail "flip not detected"
  | Some d ->
      Alcotest.(check bool) "reported at or before the flipped record" true
        (d.J.offset <= off2 + String.length (List.nth encs 2)));
  Alcotest.(check bool) "recovered records are a clean prefix" true
    (List.for_all2 ( = ) got
       (List.filteri (fun i _ -> i < List.length got) items))

(* ---- flight retention ---- *)

let test_flight_retention_accounting () =
  let fl = Fl.create ~segment_bytes:128 ~max_segments:3 () in
  let items = gen_items 11 500 in
  List.iter (fun it -> Fl.push fl (J.encode it)) items;
  Alcotest.(check int) "every push counted" 500 (Fl.total_records fl);
  Alcotest.(check int) "total = retained + dropped" 500
    (Fl.retained_records fl + Fl.dropped_records fl);
  Alcotest.(check bool) "segment bound respected" true (Fl.segment_count fl <= 3);
  Alcotest.(check bool) "something was dropped" true (Fl.dropped_records fl > 0);
  (* the retained tail is exactly the last k items, decodable *)
  let blob =
    String.concat ""
      (List.map (fun (s : Fl.segment) -> s.Fl.bytes) (Fl.segments fl))
  in
  let tail, damage = J.decode_string blob in
  Alcotest.(check bool) "tail decodes clean" true (damage = None);
  let k = Fl.retained_records fl in
  let expect = List.filteri (fun i _ -> i >= 500 - k) items in
  Alcotest.(check bool) "tail is the stream's suffix" true (tail = expect);
  Fl.clear fl;
  Alcotest.(check int) "clear resets counters" 0 (Fl.total_records fl)

(* ---- dump / load_dump ---- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let test_dump_roundtrip () =
  let fl = Fl.create ~segment_bytes:256 ~max_segments:4 () in
  let items = gen_items 23 80 in
  List.iter (fun it -> Fl.push fl (J.encode it)) items;
  let dir = Filename.concat (temp_dir "amo_flight") "dump" in
  let manifest =
    J.dump ~trigger:"violation" ~extra:[ ("seed", Jn.Int 23) ] ~dir fl
  in
  Alcotest.(check string) "manifest path" (Filename.concat dir "manifest.json")
    manifest;
  (match J.load_dump dir with
  | Error e -> Alcotest.failf "load_dump dir: %s" e
  | Ok (got, damages) ->
      Alcotest.(check bool) "no damage" true (damages = []);
      Alcotest.(check int) "all retained records loaded"
        (Fl.retained_records fl) (List.length got);
      let k = List.length got in
      let expect = List.filteri (fun i _ -> i >= 80 - k) items in
      Alcotest.(check bool) "dump holds the retained tail" true (got = expect));
  (* the manifest records the trigger and counters *)
  (match Jn.parse (read_file manifest) with
  | Ok m ->
      Alcotest.(check bool) "manifest trigger" true
        (Jn.member "trigger" m = Some (Jn.String "violation"))
  | Error e -> Alcotest.failf "manifest does not parse: %s" e);
  (* a single segment file loads on its own too *)
  match J.load_dump (Filename.concat dir "segment-000.amoj") with
  | Error e -> Alcotest.failf "load_dump file: %s" e
  | Ok (got, damages) ->
      Alcotest.(check bool) "single segment clean" true
        (damages = [] && got <> [])

(* ---- Sink.journal and the bridge inverse ---- *)

let test_sink_journal () =
  let fl = Fl.create () in
  let sink = J.sink fl in
  Alcotest.(check bool) "journal sink is live" false (Obs.Sink.is_null sink);
  let r1 = Obs.Sink.record ~ts:1 ~kind:Obs.Sink.Instant "one" in
  let r2 =
    Obs.Sink.record ~ts:2 ~pid:3 ~kind:Obs.Sink.Span
      ~args:[ ("x", Jn.Int 9) ]
      "two"
  in
  Obs.Sink.emit sink r1;
  Obs.Sink.emit sink r2;
  Alcotest.(check int) "total_emitted via flight" 2
    (Obs.Sink.total_emitted sink);
  let blob =
    String.concat ""
      (List.map (fun (s : Fl.segment) -> s.Fl.bytes) (Fl.segments fl))
  in
  let got, damage = J.decode_string blob in
  Alcotest.(check bool) "decodes to the emitted records" true
    (damage = None && got = [ J.Record r1; J.Record r2 ])

let test_bridge_inverse () =
  let rng = Util.Prng.of_int 99 in
  for i = 1 to 200 do
    let ev = gen_event rng in
    let r = Obs.Bridge.record_of_event ~step:i ev in
    match J.event_of_record r with
    | Some (step, ev') ->
        Alcotest.(check int) "step preserved" i step;
        if ev' <> ev then
          Alcotest.failf "event not preserved: %s vs %s"
            (Format.asprintf "%a" Shm.Event.pp ev)
            (Format.asprintf "%a" Shm.Event.pp ev')
    | None ->
        Alcotest.failf "executor event not recognized: %s"
          (Format.asprintf "%a" Shm.Event.pp ev)
  done;
  (* non-executor records map to None, not garbage *)
  Alcotest.(check bool) "net record is not an executor event" true
    (J.event_of_record (Obs.Sink.record ~ts:1 ~kind:Obs.Sink.Instant "net.send")
    = None)

(* ---- to_trace: probe-captured journal rebuilds the run ---- *)

let test_to_trace_matches_run () =
  let fl = Fl.create ~segment_bytes:(1 lsl 20) ~max_segments:64 () in
  let s =
    Core.Harness.kk ~trace_level:`Outcomes ~probe:(J.probe fl) ~n:40 ~m:3
      ~beta:3 ()
  in
  let blob =
    String.concat ""
      (List.map (fun (seg : Fl.segment) -> seg.Fl.bytes) (Fl.segments fl))
  in
  let items, damage = J.decode_string blob in
  Alcotest.(check bool) "journal decodes clean" true (damage = None);
  let trace = J.to_trace items in
  Alcotest.(check (list (pair int int)))
    "journal trace has the run's exact Do sequence"
    (Shm.Trace.do_events s.Core.Harness.trace)
    (Shm.Trace.do_events trace)

(* ---- merge ---- *)

let vc_rec ~ts ~pid ~name vc =
  J.Record
    (Obs.Sink.record ~ts ~pid ~kind:Obs.Sink.Instant
       ~args:
         [
           ("id", Jn.Int 1);
           ("vc", Jn.List (List.map (fun x -> Jn.Int x) vc));
         ]
       name)

let test_merge_respects_happens_before () =
  (* the send has the *larger* ts, so a plain (ts, pid) tie-break
     would order it after the recv; the vector clocks must win *)
  let send = vc_rec ~ts:5 ~pid:1 ~name:"net.send" [ 5; 0 ] in
  let recv = vc_rec ~ts:1 ~pid:2 ~name:"net.recv" [ 5; 1 ] in
  let merged = J.merge [| [ send ]; [ recv ] |] in
  Alcotest.(check bool) "send ordered before its recv" true
    (merged = [ (0, send); (1, recv) ])

let test_merge_deterministic_and_lossless () =
  let streams =
    Array.init 3 (fun i -> gen_items (100 + i) (20 + (7 * i)))
  in
  let m1 = J.merge streams in
  let m2 = J.merge streams in
  Alcotest.(check bool) "repeat merge identical" true (m1 = m2);
  Alcotest.(check int) "lossless"
    (Array.fold_left (fun a l -> a + List.length l) 0 streams)
    (List.length m1);
  (* each source's items appear in their original relative order *)
  Array.iteri
    (fun src stream ->
      let got = List.filter_map
          (fun (s, it) -> if s = src then Some it else None)
          m1
      in
      Alcotest.(check bool)
        (Printf.sprintf "source %d order preserved" src)
        true (got = stream))
    streams

let test_net_journals_merge () =
  let fls = Array.init 2 (fun _ -> Fl.create ()) in
  let net = Msg.Net.create ~vclocks:true ~nodes:2 () in
  Msg.Net.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Msg.Net.set_handler net ~node:2 (fun ~src:_ _ -> ());
  Msg.Net.set_journals net (Array.map J.sink fls);
  Msg.Net.send net ~src:1 ~dst:2 "a";
  Msg.Net.send net ~src:2 ~dst:1 "b";
  ignore (Msg.Net.deliver_oldest net);
  ignore (Msg.Net.deliver_oldest net);
  let streams =
    Array.map
      (fun fl ->
        let blob =
          String.concat ""
            (List.map (fun (s : Fl.segment) -> s.Fl.bytes) (Fl.segments fl))
        in
        let its, damage = J.decode_string blob in
        Alcotest.(check bool) "node journal clean" true (damage = None);
        its)
      fls
  in
  let merged = J.merge streams in
  Alcotest.(check int) "4 channel actions" 4 (List.length merged);
  (* every recv comes after the send with the same id *)
  let seen_send = Hashtbl.create 4 in
  List.iter
    (fun (_src, it) ->
      let r = J.record_of_item it in
      let id =
        match List.assoc_opt "id" r.Obs.Sink.args with
        | Some (Jn.Int i) -> i
        | _ -> Alcotest.fail "missing id arg"
      in
      if r.Obs.Sink.name = "net.send" then Hashtbl.replace seen_send id ()
      else
        Alcotest.(check bool)
          (Printf.sprintf "recv %d after its send" id)
          true
          (Hashtbl.mem seen_send id))
    merged;
  Alcotest.(check bool) "merge deterministic" true
    (J.merge streams = merged)

(* ---- amo_run trace CLI: help golden and exit codes ---- *)

let amo_exe = Helpers.amo_exe
let run_capture = Helpers.run_capture
let exit_code = Helpers.exit_code

let test_trace_help_golden () =
  let out, status =
    run_capture (Filename.quote (amo_exe ()) ^ " trace --help")
  in
  Alcotest.(check string) "help text" (read_file (golden "trace_help.txt")) out;
  Alcotest.(check int) "--help exits 0" 0 (exit_code status)

let test_trace_exit_codes () =
  let exe = Filename.quote (amo_exe ()) in
  let dir = temp_dir "amo_trace" in
  let fdir = Filename.concat dir "flight" in
  (* produce a journal via kk --flight-out *)
  let _, status =
    run_capture
      (Printf.sprintf
         "%s kk --jobs 20 --procs 3 --beta 3 --seed 7 --flight-out %s \
          >/dev/null 2>&1"
         exe (Filename.quote fdir))
  in
  Alcotest.(check int) "kk --flight-out exits 0" 0 (exit_code status);
  Alcotest.(check bool) "manifest written" true
    (Sys.file_exists (Filename.concat fdir "manifest.json"));
  (* 0: clean decode, JSONL on stdout *)
  let out, status =
    run_capture
      (Printf.sprintf "%s trace decode --in %s 2>/dev/null" exe
         (Filename.quote fdir))
  in
  Alcotest.(check int) "clean decode exits 0" 0 (exit_code status);
  Alcotest.(check bool) "decode emits JSONL" true
    (String.length out > 0 && out.[0] = '{');
  (* query finds the run's Do records *)
  let out_q, status =
    run_capture
      (Printf.sprintf
         "%s trace query --in %s --name 'do(' --fail-empty 2>/dev/null" exe
         (Filename.quote fdir))
  in
  Alcotest.(check int) "matching query exits 0" 0 (exit_code status);
  Alcotest.(check bool) "query output is a filtered subset" true
    (String.length out_q > 0 && String.length out_q < String.length out);
  (* 1: --fail-empty with no match *)
  let _, status =
    run_capture
      (Printf.sprintf
         "%s trace query --in %s --name zzz --fail-empty >/dev/null 2>&1" exe
         (Filename.quote fdir))
  in
  Alcotest.(check int) "no match + --fail-empty exits 1" 1 (exit_code status);
  (* 2: truncated segment *)
  let seg = Filename.concat fdir "segment-000.amoj" in
  let whole = read_file seg in
  let trunc = Filename.concat dir "trunc.amoj" in
  let oc = open_out_bin trunc in
  output_string oc (String.sub whole 0 (String.length whole - 2));
  close_out oc;
  let out_t, status =
    run_capture
      (Printf.sprintf "%s trace decode --in %s 2>/dev/null" exe
         (Filename.quote trunc))
  in
  Alcotest.(check int) "damaged journal exits 2" 2 (exit_code status);
  Alcotest.(check bool) "prior records still printed" true
    (String.length out_t > 0);
  (* merge is deterministic across repeated CLI runs *)
  let merge_cmd =
    Printf.sprintf "%s trace merge --in %s --in %s 2>/dev/null" exe
      (Filename.quote fdir) (Filename.quote fdir)
  in
  let m1, s1 = run_capture merge_cmd in
  let m2, s2 = run_capture merge_cmd in
  Alcotest.(check int) "merge exits 0" 0 (exit_code s1);
  Alcotest.(check int) "merge exits 0 again" 0 (exit_code s2);
  Alcotest.(check string) "repeated merges byte-identical" m1 m2

let suite =
  [
    qtest prop_stream_roundtrip;
    Alcotest.test_case "codec: special floats bit-exact" `Quick
      test_special_floats;
    Alcotest.test_case "codec: extreme ints" `Quick test_extreme_ints;
    Alcotest.test_case "corrupt: truncation recovers prefix + offset" `Quick
      test_truncation_recovers_prefix;
    Alcotest.test_case "corrupt: checksum catches a flipped byte" `Quick
      test_checksum_catches_flip;
    Alcotest.test_case "flight: drop-oldest retention accounting" `Quick
      test_flight_retention_accounting;
    Alcotest.test_case "dump: segments + manifest round-trip" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "sink: Sink.journal writes through the codec" `Quick
      test_sink_journal;
    Alcotest.test_case "bridge: event_of_record inverts record_of_event" `Quick
      test_bridge_inverse;
    Alcotest.test_case "to_trace: probe journal rebuilds the Do sequence"
      `Quick test_to_trace_matches_run;
    Alcotest.test_case "merge: happens-before beats the ts tie-break" `Quick
      test_merge_respects_happens_before;
    Alcotest.test_case "merge: deterministic, lossless, order-preserving"
      `Quick test_merge_deterministic_and_lossless;
    Alcotest.test_case "merge: two-node Msg.Net journals" `Quick
      test_net_journals_merge;
    Alcotest.test_case "trace --help golden" `Quick test_trace_help_golden;
    Alcotest.test_case "trace exit codes (0/1/2) + merge determinism" `Quick
      test_trace_exit_codes;
  ]
