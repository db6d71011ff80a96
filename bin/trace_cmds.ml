open Cmdliner
module J = Obs.Json
open Cli

(* ------------------------------------------------------------------ *)
(* trace: the offline flight-journal engine (decode / query / merge).
   Exit contract: 0 clean, 1 only when --fail-empty matched nothing,
   2 on unreadable/corrupt input (recovered records are still
   printed — a truncated journal yields everything before the
   damage, plus the byte offset where decoding stopped). *)

let trace_cmd =
  (* a dump directory, its manifest.json, or a single segment file *)
  let load path =
    match Obs.Journal.load_dump path with
    | Error e ->
        Fmt.epr "amo_run: %s: %s@." path e;
        exit 2
    | Ok (items, damages) ->
        List.iter
          (fun (file, (d : Obs.Journal.damage)) ->
            Fmt.epr
              "amo_run: %s: damaged at byte %d: %s (recovered all prior \
               records)@."
              file d.Obs.Journal.offset d.Obs.Journal.reason)
          damages;
        (items, damages <> [])
  in
  let infer_m items =
    List.fold_left
      (fun acc it -> max acc (Obs.Journal.record_of_item it).Obs.Sink.pid)
      1 items
  in
  let jsonl_of_record r =
    J.to_string ~minify:true (Obs.Sink.record_to_json r)
  in
  let in_arg =
    let doc =
      "Journal to read: a flight-dump directory (or its manifest.json), or a \
       single segment-*.amoj file."
    in
    Arg.(required & opt (some string) None & info [ "in" ] ~docv:"PATH" ~doc)
  in
  let decode_cmd =
    let run in_path jsonl_out chrome_out =
      let items, damaged = load in_path in
      let jsonl () =
        String.concat ""
          (List.map
             (fun it -> jsonl_of_record (Obs.Journal.record_of_item it) ^ "\n")
             items)
      in
      (match jsonl_out with
      | Some path -> write_file path (jsonl ())
      | None -> if chrome_out = None then print_string (jsonl ()));
      (match chrome_out with
      | None -> ()
      | Some path ->
          let trace = Obs.Journal.to_trace items in
          let m = infer_m items in
          (* generic records (e.g. multicore mc.do instants) are not
             executor events: they follow the trace's events *)
          let records =
            List.filter_map
              (function
                | Obs.Journal.Record r -> Some (Obs.Chrome_trace.of_record r)
                | Obs.Journal.Event _ -> None)
              items
          in
          write_file path
            (Obs.Chrome_trace.to_string
               (Obs.Chrome_trace.events ~run_name:(Filename.basename in_path) ~m trace
               @ records)));
      if damaged then exit 2
    in
    let jsonl_out =
      let doc = "Write the JSONL decode to $(docv) instead of stdout." in
      Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
    in
    let chrome_out =
      let doc =
        "Also render the journal as a Chrome trace_event document at $(docv) \
         (executor events become spans/marks; other records ride along as \
         extra events).  Suppresses the stdout JSONL unless --jsonl is also \
         given."
      in
      Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "Decode a binary journal to JSONL (one record per line) or a Chrome \
       trace; recovers every record before any damage and exits 2 if damage \
       was found."
    in
    cmd "decode" ~doc Term.(const run $ in_arg $ jsonl_out $ chrome_out)
  in
  let query_cmd =
    let run in_path pid_f kind_f name_f from_f to_f why procs fail_empty =
      let items, damaged = load in_path in
      if damaged then exit 2;
      match why with
      | Some job ->
          let trace = Obs.Journal.to_trace items in
          let m = Option.value procs ~default:(infer_m items) in
          let chain = Obs.Span.causal_chain ~m trace ~job in
          List.iter (fun s -> print_endline (Obs.Span.render s)) chain;
          if chain = [] && fail_empty then exit 1
      | None ->
          (* an absent filter keeps every record *)
          let holds filter p = Option.fold ~none:true ~some:p filter in
          let contains name sub =
            let nl = String.length name and sl = String.length sub in
            let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
            at 0
          in
          let keep (r : Obs.Sink.record) =
            holds pid_f (( = ) r.pid)
            && holds kind_f (( = ) r.kind)
            && holds name_f (contains r.name)
            && holds from_f (fun t -> r.ts >= t)
            && holds to_f (fun t -> r.ts <= t)
          in
          let matched =
            List.filter keep (List.map Obs.Journal.record_of_item items)
          in
          List.iter (fun r -> print_endline (jsonl_of_record r)) matched;
          if matched = [] && fail_empty then exit 1
    in
    let pid_f =
      let doc = "Keep only records of process $(docv)." in
      Arg.(value & opt (some int) None & info [ "pid" ] ~docv:"PID" ~doc)
    in
    let kind_f =
      let doc = "Keep only $(docv) records (span, instant, counter, log)." in
      Arg.(
        value
        & opt
            (some
               (enum
                  [
                    ("span", Obs.Sink.Span);
                    ("instant", Obs.Sink.Instant);
                    ("counter", Obs.Sink.Counter);
                    ("log", Obs.Sink.Log);
                  ]))
            None
        & info [ "kind" ] ~docv:"KIND" ~doc)
    in
    let name_f =
      let doc = "Keep only records whose name contains $(docv)." in
      Arg.(value & opt (some string) None & info [ "name" ] ~docv:"SUBSTR" ~doc)
    in
    let from_f =
      let doc = "Keep only records with ts >= $(docv)." in
      Arg.(value & opt (some int) None & info [ "from" ] ~docv:"TS" ~doc)
    in
    let to_f =
      let doc = "Keep only records with ts <= $(docv)." in
      Arg.(value & opt (some int) None & info [ "to" ] ~docv:"TS" ~doc)
    in
    let why =
      let doc =
        "Instead of filtering, print the minimal causal chain explaining job \
         $(docv)'s fate (Obs.Span.causal_chain over the journal's executor \
         events) — the offline twin of [amo_run report --why]."
      in
      Arg.(value & opt (some int) None & info [ "why" ] ~docv:"JOB" ~doc)
    in
    let procs_opt =
      let doc =
        "Process count for --why's causal reconstruction (default: the \
         largest pid seen in the journal)."
      in
      Arg.(value & opt (some int) None & info [ "procs" ] ~docv:"M" ~doc)
    in
    let fail_empty =
      let doc = "Exit 1 when nothing matches (for CI gating)." in
      Arg.(value & flag & info [ "fail-empty" ] ~doc)
    in
    let doc =
      "Filter a journal by pid/kind/name/time-window (JSONL output), or \
       explain one job's fate with --why; exits 1 with --fail-empty on no \
       match, 2 on a damaged journal."
    in
    cmd "query" ~doc
      Term.(
        const run $ in_arg $ pid_f $ kind_f $ name_f $ from_f $ to_f $ why
        $ procs_opt $ fail_empty)
  in
  let merge_cmd =
    let run in_paths out =
      let loaded = List.map load in_paths in
      if List.exists snd loaded then exit 2;
      let merged = Obs.Journal.merge (Array.of_list (List.map fst loaded)) in
      match out with
      | Some path ->
          (* a merged stream is itself a valid journal segment *)
          write_file path
            (String.concat ""
               (Obs.Journal.header
               :: List.map (fun (_src, it) -> Obs.Journal.encode it) merged));
          Fmt.pr "merged          : %d records from %d journals -> %s@."
            (List.length merged) (List.length in_paths) path
      | None ->
          List.iter
            (fun (src, it) ->
              let r = Obs.Journal.record_of_item it in
              let j =
                match Obs.Sink.record_to_json r with
                | J.Obj fields -> J.Obj (("src", J.Int src) :: fields)
                | j -> j
              in
              print_endline (J.to_string ~minify:true j))
            merged
    in
    let in_args =
      let doc = "A journal to merge (repeatable: one per multicore domain)." in
      Arg.(non_empty & opt_all string [] & info [ "in" ] ~docv:"PATH" ~doc)
    in
    let out =
      let doc =
        "Write the merged stream as a binary journal to $(docv) (atomic \
         tmp+rename) instead of JSONL on stdout."
      in
      Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "Merge k per-domain journals into one stream ordered by (ts, pid, \
       source) — repeated merges of the same journals are byte-identical."
    in
    cmd "merge" ~doc Term.(const run $ in_args $ out)
  in
  let doc =
    "Offline engine over binary flight journals: decode to JSONL/Chrome, \
     query by pid/kind/name/time or causal --why, merge per-domain journals \
     deterministically."
  in
  Cmd.group (Cmd.info "trace" ~doc) [ decode_cmd; query_cmd; merge_cmd ]
