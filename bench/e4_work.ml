(* E4 — work complexity of KKβ for β = 3m² (Theorem 5.6).

   Claim: W = O(n · m · log n · log m).  We measure the weighted work
   (the paper's basic-operation ledger, see Shm.Metrics) over a grid:
   scaling in n at fixed m, and scaling in m at fixed n, and report
   measured_work / (n·m·log n·log m).  Reproduction succeeds if that
   ratio stays bounded (spread across the grid below a small
   constant) — the shape, not the absolute value, is the claim.

   Beyond the totals, each row also shows the per-process work
   distribution (p50/p99/max of a k = 1 Obs.Sketch, one sample per
   process): the bound is on total work, but the tail columns expose
   whether an adversarial schedule starves or thrashes individual
   processes. *)

open Exp_common

let predicted ~n ~m =
  float_of_int
    (n * m * Core.Params.log2_ceil n * Core.Params.log2_ceil m)

let measure ~n ~m =
  let beta = 3 * m * m in
  (* a bursty schedule provokes collisions; work must stay bounded *)
  let s =
    Core.Harness.kk
      ~scheduler:(Shm.Schedule.bursty (Util.Prng.of_int (n + m)) ~max_burst:256)
      ~n ~m ~beta ()
  in
  let work = Obs.Sketch.create ~sub_buckets:1 () in
  for p = 1 to m do
    Obs.Sketch.add work (Shm.Metrics.work s.Core.Harness.metrics ~p)
  done;
  (float_of_int (Shm.Metrics.total_work s.Core.Harness.metrics), work)

let run () =
  section ~id:"E4" ~title:"work complexity of KK(3m^2)"
    ~claim:"W = O(n m log n log m) for beta >= 3m^2 (Theorem 5.6)";
  let n_grid = if_smoke [ 256; 512; 1024 ] [ 1024; 2048; 4096; 8192; 16384 ] in
  let m_fixed = 4 in
  let n_fixed = if_smoke 512 8192 in
  let m_scan = if_smoke [ 2; 4; 8 ] [ 2; 4; 8; 16; 32 ] in
  param_int "m_fixed" m_fixed;
  param_int "n_fixed" n_fixed;
  param_str "n_grid" (String.concat "," (List.map string_of_int n_grid));
  param_str "m_grid" (String.concat "," (List.map string_of_int m_scan));
  let points = ref [] in
  let rows_n =
    List.map
      (fun n ->
        let m = m_fixed in
        let w, dist = measure ~n ~m in
        let p = predicted ~n ~m in
        points := (p, w) :: !points;
        [ I n; I m; F w; F p; F (w /. p) ] @ summary_cells dist)
      n_grid
  in
  let rows_m =
    List.filter_map
      (fun m ->
        let n = n_fixed in
        if 3 * m * m >= n then None
        else begin
          let w, dist = measure ~n ~m in
          let p = predicted ~n ~m in
          points := (p, w) :: !points;
          Some ([ I n; I m; F w; F p; F (w /. p) ] @ summary_cells dist)
        end)
      m_scan
  in
  table
    ~header:
      [
        "n"; "m"; "work(measured)"; "n*m*logn*logm"; "ratio"; "p50/proc";
        "p99/proc"; "max/proc";
      ]
    (rows_n @ rows_m);
  (* the claim is an upper bound: measured / predicted must be bounded
     above (slack below, e.g. at large m, is fine) *)
  let max_ratio =
    List.fold_left (fun acc (p, w) -> Float.max acc (w /. p)) 0. !points
  in
  (* also check the asymptotic degree in n is ~1 (log factors allowed) *)
  let n_pts =
    List.map2
      (fun n row ->
        match row with
        | _ :: _ :: F w :: _ -> (float_of_int n, w)
        | _ -> assert false)
      n_grid rows_n
  in
  let slope = Util.Stats.loglog_slope (Array.of_list n_pts) in
  Printf.printf "\n  work-vs-n log-log slope: %.2f (1.0 = linear)\n" slope;
  Printf.printf "  max measured/predicted ratio: %.2f\n" max_ratio;
  (* snapshot: the largest n-scan point carries the Theorem 5.6 bound
     as its prediction, so the recorded ratio is measured/bound *)
  let n_last = List.nth n_grid (List.length n_grid - 1) in
  let w_last, p_last =
    match List.rev rows_n with
    | (_ :: _ :: F w :: F p :: _) :: _ -> (w, p)
    | _ -> assert false
  in
  param_int "n_last" n_last;
  record_metric ~predicted:p_last "work" w_last;
  record_metric "max_ratio" max_ratio;
  record_metric "loglog_slope" slope;
  verdict
    (max_ratio < 8. && slope < 1.35)
    "work scales ~linearly in n (slope %.2f) and stays below a constant \
     multiple (%.1fx) of n*m*logn*logm"
    slope max_ratio
