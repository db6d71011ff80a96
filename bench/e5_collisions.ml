(* E5 — pairwise collision bound (Lemma 5.5).

   Claim: for β >= 3m², process p collides with process q at most
   2·⌈n/(m·|q−p|)⌉ times in any execution.  We hunt for collisions
   with contention-heavy schedules and report the worst observed
   count/bound ratio over all ordered pairs and seeds — the lemma
   predicts it never reaches 1.

   Each row also reports the distribution of per-pair collision
   counts (p50/p99/max over all ordered pairs and seeds, via a k = 1
   Obs.Sketch): the lemma is per-pair, so the tail —
   not the total — is where a violation would first show. *)

open Exp_common

let run () =
  section ~id:"E5" ~title:"pairwise collision bound"
    ~claim:"collisions(p,q) <= 2*ceil(n/(m|q-p|)) when beta >= 3m^2 (Lemma 5.5)";
  let all_ok = ref true in
  let configs = if_smoke [ (128, 3); (256, 4) ] [ (512, 3); (1024, 4); (2048, 6) ] in
  let n_seeds = if_smoke 3 8 in
  param_str "configs"
    (String.concat ","
       (List.map (fun (n, m) -> Printf.sprintf "%dx%d" n m) configs));
  param_int "seeds" n_seeds;
  let worst_overall = ref 0. in
  let total_overall = ref 0 in
  let rows =
    List.concat_map
      (fun (n, m) ->
        let beta = 3 * m * m in
        List.filter_map
          (fun (sched_name, make_sched) ->
            let worst = ref 0. and worst_pair = ref (0, 0) in
            let total = ref 0 in
            (* per-pair counts pooled across seeds: one sample per
               ordered pair per run *)
            let pairs = Obs.Sketch.create ~sub_buckets:1 () in
            List.iter
              (fun seed ->
                let s =
                  Core.Harness.kk
                    ~scheduler:(make_sched (Util.Prng.of_int seed))
                    ~n ~m ~beta ()
                in
                total := !total + Core.Collision.total s.Core.Harness.collision;
                for p = 1 to m do
                  for q = 1 to m do
                    if p <> q then
                      Obs.Sketch.add pairs
                        (Core.Collision.count s.Core.Harness.collision ~p ~q)
                  done
                done;
                match
                  Core.Collision.worst_pair_ratio s.Core.Harness.collision ~n
                with
                | None -> ()
                | Some (p, q, r) ->
                    if r > !worst then begin
                      worst := r;
                      worst_pair := (p, q)
                    end)
              (seeds n_seeds);
            if !worst >= 1. then all_ok := false;
            worst_overall := Float.max !worst_overall !worst;
            total_overall := !total_overall + !total;
            let p, q = !worst_pair in
            Some
              ([
                 I n;
                 I m;
                 S sched_name;
                 I !total;
                 S (Printf.sprintf "(%d,%d)" p q);
                 F !worst;
               ]
              @ summary_cells pairs))
          [
            ("random", fun rng -> Shm.Schedule.random rng);
            ("bursty", fun rng -> Shm.Schedule.bursty rng ~max_burst:512);
          ])
      configs
  in
  table
    ~header:
      [
        "n"; "m"; "sched"; "collisions(total)"; "worst pair"; "worst ratio";
        "p50/pair"; "p99/pair"; "max/pair";
      ]
    rows;
  (* worst ratio is measured against Lemma 5.5's budget of 1.0 *)
  record_metric ~predicted:1.0 "worst_pair_ratio" !worst_overall;
  record_metric "total_collisions" (float_of_int !total_overall);
  verdict !all_ok
    "no ordered pair ever exceeded (or reached) its Lemma 5.5 budget"
