(* Tests for the binary flight recorder + journal codec + offline
   engine:

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
   - hostile input: [decode_string] never raises, on crafted frames
     with negative element counts or on random and mutated bytes, and
     returns a prefix of the valid decode;
   - [to_trace]: a journal captured by the lean probe rebuilds a
     trace with the run's exact Do sequence;
   - [merge]: deterministic, lossless and order-preserving, and it
     rebuilds a multicore run's performs from its per-domain journals;
   - `amo_run trace` CLI: --help golden and the documented exit codes
     (0 clean decode, 1 --fail-empty with no match, 2 damaged). *)

module J = Obs.Journal
module Fl = Obs.Flight
module Jn = Obs.Json

let qtest = Helpers.qtest

let read_file = Helpers.read_file

let golden = Helpers.golden

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

(* ---- hostile input: decode_string never raises ---- *)

(* One frame around a raw payload: length varint (payloads here stay
   under 128 bytes), payload, xor checksum — so only the payload
   itself is malformed. *)
let frame payload =
  assert (String.length payload < 128);
  let sum = ref 0xA5 in
  String.iter (fun c -> sum := !sum lxor Char.code c) payload;
  String.make 1 (Char.chr (String.length payload))
  ^ payload
  ^ String.make 1 (Char.chr !sum)

(* A 9-byte varint whose last byte sets bit 62: the sign bit of an
   OCaml int, so it decodes to [min_int]. *)
let negative_varint = String.make 8 '\x80' ^ "\x40"

let test_negative_counts () =
  let good = J.Event { step = 1; event = Shm.Event.Do { p = 1; job = 2 } } in
  let good_enc = J.encode good in
  (* a Record: tag 0, ts/dur/pid 0, kind instant, empty name, then the
     argument count *)
  let record_head = "\x00\x00\x00\x00\x01\x00" in
  (* one argument named "k" whose value starts with a json tag *)
  let one_arg json_tag = record_head ^ "\x01\x01k" ^ json_tag in
  List.iter
    (fun (what, payload) ->
      let bad = frame payload in
      let got, damage = J.decode_string (good_enc ^ bad) in
      Alcotest.(check bool) (what ^ ": good prefix kept") true (got = [ good ]);
      match damage with
      | None -> Alcotest.failf "%s: not reported as damage" what
      | Some d ->
          Alcotest.(check int)
            (what ^ ": damage at the bad frame")
            (String.length good_enc) d.J.offset)
    [
      ("record arg count", record_head ^ negative_varint);
      ("json list length", one_arg "\x06" ^ negative_varint);
      ("json object length", one_arg "\x07" ^ negative_varint);
    ]

(* Whatever the bytes, decoding returns (never raises), and the items
   it returns are exactly what the undamaged prefix decodes to. *)
let prop_random_bytes_never_raise =
  QCheck.Test.make ~name:"decode_string total on random bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let got, damage = J.decode_string s in
      let good =
        match damage with None -> String.length s | Some d -> d.J.offset
      in
      good <= String.length s
      && J.decode_string (String.sub s 0 good) = (got, None))

(* Flip one byte of a valid stream: the frames before the flipped one
   always come back unchanged.  A flip outside a length prefix breaks
   that frame's checksum, so decoding returns exactly those frames and
   reports damage where the flipped frame starts. *)
let prop_mutation_keeps_prefix =
  QCheck.Test.make ~name:"decode_string keeps the prefix of a mutated stream"
    ~count:500
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 20) (pair small_nat (int_range 1 255)))
    (fun (seed, count, (at, flip)) ->
      let items = gen_items seed count in
      let encs = List.map J.encode items in
      let blob = Bytes.of_string (String.concat "" encs) in
      let pos = at mod Bytes.length blob in
      Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor flip));
      (* the flipped frame's index and start, and whether [pos] lies in
         its length varint *)
      let rec locate k start = function
        | e :: rest ->
            if pos < start + String.length e then
              let rec varint_len i =
                if Char.code e.[i] land 0x80 = 0 then i + 1
                else varint_len (i + 1)
              in
              (k, start, pos - start < varint_len 0)
            else locate (k + 1) (start + String.length e) rest
        | [] -> assert false
      in
      let k, start, in_length = locate 0 0 encs in
      let before = List.filteri (fun i _ -> i < k) items in
      let got, damage = J.decode_string (Bytes.to_string blob) in
      List.length got >= k
      && List.filteri (fun i _ -> i < k) got = before
      && (in_length
         || got = before
            && match damage with Some d -> d.J.offset = start | None -> false))

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

let temp_dir = Helpers.temp_dir

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

(* Every domain journals one mc.do instant per perform into its own
   flight: nothing may be lost or torn, and the fetch-and-add stamps
   merge the per-domain journals into the global emission order. *)
let test_runner_journals () =
  let m = 3 and n = 40 in
  let fls = Array.init m (fun _ -> Fl.create ()) in
  let outcome = Multicore.Runner.run_kk ~n ~m ~beta:m ~journals:fls () in
  let streams =
    Array.map
      (fun fl ->
        let blob =
          String.concat ""
            (List.map (fun (s : Fl.segment) -> s.Fl.bytes) (Fl.segments fl))
        in
        let its, damage = J.decode_string blob in
        Alcotest.(check bool) "domain journal clean" true (damage = None);
        its)
      fls
  in
  Array.iteri
    (fun i its ->
      List.iter
        (fun it ->
          let r = J.record_of_item it in
          Alcotest.(check string) "name intact" "mc.do" r.Obs.Sink.name;
          Alcotest.(check bool) "kind instant" true
            (r.Obs.Sink.kind = Obs.Sink.Instant);
          Alcotest.(check int) "pid is the journal's domain" (i + 1)
            r.Obs.Sink.pid)
        its)
    streams;
  let merged = List.map (fun (_, it) -> J.record_of_item it) (J.merge streams) in
  Alcotest.(check int) "one record per perform"
    (List.length outcome.Multicore.Runner.dos)
    (List.length merged);
  (* fetch-and-add timestamps: the merge reads exactly 0..k-1 *)
  Alcotest.(check (list int)) "dense unique timestamps, merged in order"
    (List.init (List.length merged) Fun.id)
    (List.map (fun r -> r.Obs.Sink.ts) merged);
  let job r =
    match List.assoc_opt "job" r.Obs.Sink.args with
    | Some (Jn.Int j) -> j
    | _ -> Alcotest.fail "record missing job arg"
  in
  Alcotest.(check (list (pair int int))) "recorded performs = performed"
    (List.sort compare outcome.Multicore.Runner.dos)
    (List.sort compare (List.map (fun r -> (r.Obs.Sink.pid, job r)) merged))

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
    Alcotest.test_case "corrupt: negative counts are damage, not a crash"
      `Quick test_negative_counts;
    qtest prop_random_bytes_never_raise;
    qtest prop_mutation_keeps_prefix;
    Alcotest.test_case "flight: drop-oldest retention accounting" `Quick
      test_flight_retention_accounting;
    Alcotest.test_case "dump: segments + manifest round-trip" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "to_trace: probe journal rebuilds the Do sequence"
      `Quick test_to_trace_matches_run;
    Alcotest.test_case "merge: deterministic, lossless, order-preserving"
      `Quick test_merge_deterministic_and_lossless;
    Alcotest.test_case "merge: multicore runner journals, one per domain"
      `Quick test_runner_journals;
    Alcotest.test_case "trace --help golden" `Quick test_trace_help_golden;
    Alcotest.test_case "trace exit codes (0/1/2) + merge determinism" `Quick
      test_trace_exit_codes;
  ]
