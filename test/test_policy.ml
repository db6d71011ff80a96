(* Tests for the candidate-selection policies. *)

(* FREE = [free], TRY = [tried], as one process keeps them *)
let sets ?(tried = []) free =
  List.iter (fun x -> Core.Freeset.try_add x free) tried;
  free

let universe n = Core.Freeset.interval 1 n
let of_list l = Core.Freeset.of_set (module Ostree) (Ostree.of_list l)

let test_rank_split_formula () =
  (* n=100 free jobs, m=4, TRY empty: TMP = (100-3)/4 = 24.25 >= 1,
     so p picks rank floor((p-1)*24.25)+1 of FREE\TRY. *)
  let free = universe 100 in
  let pick p = Core.Policy.choose Core.Policy.Rank_split ~p ~m:4 free in
  Alcotest.(check int) "p1" 1 (pick 1);
  Alcotest.(check int) "p2" 25 (pick 2);
  Alcotest.(check int) "p3" 49 (pick 3);
  Alcotest.(check int) "p4" 73 (pick 4)

let test_rank_split_small_pool () =
  (* |FREE| = 5, m = 4: TMP = (5-3)/4 < 1, so p picks rank p. *)
  let free = universe 5 in
  for p = 1 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "p%d picks rank p" p)
      p
      (Core.Policy.choose Core.Policy.Rank_split ~p ~m:4 free)
  done

let test_rank_split_initial_picks_distinct () =
  (* First-round candidates are pairwise distinct when n >= 2m-1 —
     the property the worst-case adversary relies on. *)
  List.iter
    (fun (n, m) ->
      let free = universe n in
      let picks =
        List.init m (fun i ->
            Core.Policy.choose Core.Policy.Rank_split ~p:(i + 1) ~m free)
      in
      let distinct = List.sort_uniq compare picks in
      Alcotest.(check int)
        (Printf.sprintf "distinct picks n=%d m=%d" n m)
        m (List.length distinct))
    [ (7, 4); (100, 4); (63, 32); (5, 3); (1000, 16) ]

let test_rank_split_skips_try () =
  (* TRY excludes candidates: with 1..10 free and {1,2,3} tried,
     p=1 of m=10 picks the first of FREE \ TRY = 4. *)
  let free = sets ~tried:[ 1; 2; 3 ] (universe 10) in
  Alcotest.(check int) "skips tried" 4
    (Core.Policy.choose Core.Policy.Rank_split ~p:1 ~m:10 free)

let test_rank_split_ignores_try_strangers () =
  (* TRY entries not in FREE must not shift the rank *)
  let free = sets ~tried:[ 5; 15 ] (of_list [ 10; 20; 30 ]) in
  Alcotest.(check int) "stranger-proof" 10
    (Core.Policy.choose Core.Policy.Rank_split ~p:1 ~m:3 free)

let test_lowest_free () =
  let free = of_list [ 7; 3; 9 ] in
  Alcotest.(check int) "lowest" 3
    (Core.Policy.choose Core.Policy.Lowest_free ~p:2 ~m:4 free);
  Alcotest.(check int) "lowest not tried" 7
    (Core.Policy.choose Core.Policy.Lowest_free ~p:2 ~m:4
       (sets ~tried:[ 3 ] free))

let test_random_in_pool () =
  let rng = Util.Prng.of_int 9 in
  let free = sets ~tried:[ 5; 6; 7 ] (universe 20) in
  for _ = 1 to 200 do
    let j = Core.Policy.choose (Core.Policy.Random rng) ~p:1 ~m:4 free in
    if not (Core.Freeset.mem j free) then Alcotest.failf "%d not free" j;
    if Core.Freeset.try_mem j free then Alcotest.failf "%d is tried" j
  done

let test_empty_pool_rejected () =
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Policy.choose: FREE \\ TRY is empty") (fun () ->
      ignore
        (Core.Policy.choose Core.Policy.Rank_split ~p:1 ~m:2
           (sets ~tried:[ 1 ] (of_list [ 1 ]))))

let test_clamp_under_small_beta () =
  (* β < m regime: |FREE \ TRY| can drop below p; the pick must still
     be a valid element (correctness preserved, §3). *)
  let free = of_list [ 1; 2 ] in
  let j = Core.Policy.choose Core.Policy.Rank_split ~p:4 ~m:4 free in
  Alcotest.(check bool) "valid element" true (Core.Freeset.mem j free)

let test_work_cost () =
  Alcotest.(check int) "cost" 40
    (Core.Policy.work_cost ~try_cardinal:3 ~log_n:10);
  Alcotest.(check int) "empty try still costs" 10
    (Core.Policy.work_cost ~try_cardinal:0 ~log_n:10)

let test_names () =
  Alcotest.(check string) "rank" "rank-split" (Core.Policy.name Core.Policy.Rank_split);
  Alcotest.(check string) "low" "lowest-free" (Core.Policy.name Core.Policy.Lowest_free)

let suite =
  [
    Alcotest.test_case "rank-split formula" `Quick test_rank_split_formula;
    Alcotest.test_case "rank-split small pool" `Quick test_rank_split_small_pool;
    Alcotest.test_case "rank-split distinct initial picks" `Quick
      test_rank_split_initial_picks_distinct;
    Alcotest.test_case "rank-split skips TRY" `Quick test_rank_split_skips_try;
    Alcotest.test_case "rank-split ignores TRY strangers" `Quick
      test_rank_split_ignores_try_strangers;
    Alcotest.test_case "lowest-free" `Quick test_lowest_free;
    Alcotest.test_case "random stays in pool" `Quick test_random_in_pool;
    Alcotest.test_case "empty pool rejected" `Quick test_empty_pool_rejected;
    Alcotest.test_case "clamp under small beta" `Quick
      test_clamp_under_small_beta;
    Alcotest.test_case "work cost" `Quick test_work_cost;
    Alcotest.test_case "names" `Quick test_names;
  ]
