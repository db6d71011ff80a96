(* E12 — KKβ over message passing (the paper's closing open question,
   §8: "systems with different means of communication, such as
   message-passing systems").

   Composition answer: KKβ only needs single-writer atomic registers,
   so running it unchanged over ABD-emulated registers (Msg.Abd)
   transfers Lemma 4.1 and Theorem 4.4 to the asynchronous
   message-passing model with up to m−1 client crashes and any
   minority of server crashes.  The experiment checks the transfer
   empirically under adversarial (uniformly random) message delivery,
   and reports message complexity: deliveries per register operation
   are Θ(s) (one broadcast + quorum per phase), so deliveries/job is
   Θ(m·s) — the measured column, recorded in the snapshot for the
   failure-free rows so a regression of the message cost is flagged. *)

open Exp_common

let run () =
  section ~id:"E12" ~title:"KK over message passing (ABD emulation)"
    ~claim:
      "safety and the n-(beta+m-2) bound transfer to message passing with \
       f_clients < m and f_servers < s/2 (paper Section 8 open question, \
       via ABD)";
  let all_ok = ref true in
  let row ?(duplicate_prob = 0.) ?metric ~label ~n ~m ~servers ~crash_plan
      ~seeds:k () =
    let worst = ref max_int and safe = ref true and deliveries = ref 0 in
    let stuck = ref 0 in
    List.iter
      (fun seed ->
        let o =
          let bodies =
            Array.init m (fun i -> Msg.Kk_mp.kk_body ~n ~m ~beta:m ~pid:(i + 1))
          in
          Msg.Abd.run ~crash_plan ~duplicate_prob ~servers
            ~registers:(Msg.Kk_mp.register_count ~n ~m)
            ~rng:(Util.Prng.of_int seed) ~client_bodies:bodies ()
        in
        if not (amo_ok o.Msg.Kk_mp.dos) then safe := false;
        if o.Msg.Kk_mp.stuck <> [] then incr stuck;
        worst := min !worst (Core.Spec.do_count o.Msg.Kk_mp.dos);
        deliveries := !deliveries + o.Msg.Kk_mp.deliveries)
      (seeds k);
    let bound = n - (m + m - 2) in
    if (not !safe) || !worst < bound || !stuck > 0 then all_ok := false;
    let per_job = float_of_int !deliveries /. float_of_int (k * n) in
    Option.iter
      (fun name ->
        record_metric ~direction:Obs.Snapshot.Lower_is_better name per_job)
      metric;
    [
      S label;
      I n;
      I m;
      I servers;
      S (if !safe then "ok" else "VIOLATED");
      I !worst;
      I bound;
      I !stuck;
      F per_job;
    ]
  in
  (* the full iterated algorithm needs a genuinely multi-writer flag
     register per level — exercised via the two-phase MW-ABD writes *)
  let iterative_row ~n ~m ~servers ~seeds:k =
    let worst = ref max_int and safe = ref true and deliveries = ref 0 in
    List.iter
      (fun seed ->
        let o =
          Msg.Kk_mp.run_iterative ~servers ~n ~m ~epsilon_inv:1
            ~rng:(Util.Prng.of_int seed) ()
        in
        if not (amo_ok o.Msg.Kk_mp.dos) then safe := false;
        worst := min !worst (Core.Spec.do_count o.Msg.Kk_mp.dos);
        deliveries := !deliveries + o.Msg.Kk_mp.deliveries)
      (seeds k);
    let bound = n - Core.Iterative.predicted_loss_bound ~n ~m ~epsilon_inv:1 in
    if (not !safe) || !worst < bound then all_ok := false;
    [
      S "iterativeKK (MW flag)";
      I n;
      I m;
      I servers;
      S (if !safe then "ok" else "VIOLATED");
      I !worst;
      I (max 0 bound);
      I 0;
      F (float_of_int !deliveries /. float_of_int (k * n));
    ]
  in
  let k = if_smoke 2 6 in
  param_int "seeds" k;
  let rows =
    [
      row ~metric:"deliveries_per_job_m3_s3" ~label:"failure-free" ~n:60 ~m:3
        ~servers:3 ~crash_plan:[] ~seeds:k ();
      row ~metric:"deliveries_per_job_m4_s5" ~label:"failure-free" ~n:60 ~m:4
        ~servers:5 ~crash_plan:[] ~seeds:k ();
      row ~label:"m-1 client crashes" ~n:60 ~m:3 ~servers:3
        ~crash_plan:[ (150, `Client 1); (400, `Client 2) ]
        ~seeds:k ();
      row ~label:"minority server crashes" ~n:60 ~m:3 ~servers:5
        ~crash_plan:[ (100, `Server 1); (300, `Server 4) ]
        ~seeds:k ();
      row ~label:"clients + servers" ~n:60 ~m:4 ~servers:5
        ~crash_plan:[ (120, `Client 2); (250, `Server 5) ]
        ~seeds:k ();
      row ~duplicate_prob:0.25 ~label:"25% message duplication" ~n:60 ~m:3
        ~servers:3 ~crash_plan:[ (200, `Client 1) ] ~seeds:k ();
      iterative_row ~n:128 ~m:2 ~servers:3 ~seeds:(if_smoke 1 3);
    ]
  in
  table
    ~header:
      [
        "scenario"; "n"; "m"; "servers"; "amo"; "worst done"; "bound";
        "stuck runs"; "deliveries/job";
      ]
    rows;
  let count_bad col =
    List.fold_left
      (fun acc row ->
        match List.nth row col with S "VIOLATED" -> acc + 1 | _ -> acc)
      0 rows
  in
  record_metric "violations" (float_of_int (count_bad 4));
  verdict !all_ok
    "at-most-once and the effectiveness bound transfer to message passing; \
     no client ever blocks while a server majority survives"
