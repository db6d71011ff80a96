type t = { tbl : ((int * string), Histogram.t) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let hist t ~pid ~series =
  match Hashtbl.find_opt t.tbl (pid, series) with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.tbl (pid, series) h;
      h

let add t ~pid ~series v = Histogram.add (hist t ~pid ~series) v

let get t ~pid ~series = Hashtbl.find_opt t.tbl (pid, series)

let uniq_sorted compare l = List.sort_uniq compare l

let series t =
  uniq_sorted compare (Hashtbl.fold (fun (_, s) _ acc -> s :: acc) t.tbl [])

let pids t =
  uniq_sorted compare (Hashtbl.fold (fun (p, _) _ acc -> p :: acc) t.tbl [])

let merged t ~series =
  Hashtbl.fold
    (fun (_, s) h acc -> if s = series then Histogram.merge acc h else acc)
    t.tbl (Histogram.create ())

let of_metrics m =
  let t = create () in
  for p = 1 to Shm.Metrics.m m do
    add t ~pid:p ~series:"work" (Shm.Metrics.work m ~p);
    add t ~pid:p ~series:"reads" (Shm.Metrics.reads m ~p);
    add t ~pid:p ~series:"writes" (Shm.Metrics.writes m ~p);
    add t ~pid:p ~series:"internals" (Shm.Metrics.internals m ~p)
  done;
  t

let to_json t =
  let per_series s =
    let per_pid =
      List.filter_map
        (fun p ->
          Option.map
            (fun h -> (string_of_int p, Histogram.to_json h))
            (get t ~pid:p ~series:s))
        (pids t)
    in
    ( s,
      Json.Obj
        [
          ("merged", Histogram.to_json (merged t ~series:s));
          ("per_pid", Json.Obj per_pid);
        ] )
  in
  Json.Obj (List.map per_series (series t))

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

let summarize h =
  {
    count = Histogram.count h;
    mean = Histogram.mean h;
    p50 = Histogram.percentile h 50.;
    p90 = Histogram.percentile h 90.;
    p99 = Histogram.percentile h 99.;
    max = Histogram.max_value h;
  }

let summary t ~series:s = summarize (merged t ~series:s)
