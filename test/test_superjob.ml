(* Tests for the nested super-job partitions (§6). *)

module S = Core.Superjob

let test_build_validation () =
  Alcotest.check_raises "must end in 1"
    (Invalid_argument "Superjob.build: sizes must end in 1") (fun () ->
      ignore (S.build ~n:10 ~sizes:[ 4; 2 ]));
  Alcotest.check_raises "monotone"
    (Invalid_argument "Superjob.build: sizes must be non-increasing") (fun () ->
      ignore (S.build ~n:10 ~sizes:[ 2; 4; 1 ]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Superjob.build: empty sizes") (fun () ->
      ignore (S.build ~n:10 ~sizes:[]))

let covered_jobs h level =
  let acc = Array.make (S.n h + 1) 0 in
  Ostree.iter
    (fun id ->
      let lo, hi = S.interval h ~level ~id in
      for j = lo to hi do
        acc.(j) <- acc.(j) + 1
      done)
    (S.ids_at h level);
  acc

let test_levels_partition () =
  let h = S.build ~n:100 ~sizes:[ 12; 5; 1 ] in
  for level = 0 to S.num_levels h - 1 do
    let cover = covered_jobs h level in
    for j = 1 to 100 do
      if cover.(j) <> 1 then
        Alcotest.failf "level %d: job %d covered %d times" level j cover.(j)
    done
  done

let test_block_sizes_bounded () =
  let h = S.build ~n:100 ~sizes:[ 12; 5; 1 ] in
  for level = 0 to S.num_levels h - 1 do
    let size = S.level_size h level in
    Ostree.iter
      (fun id ->
        let lo, hi = S.interval h ~level ~id in
        if hi - lo + 1 > size then
          Alcotest.failf "level %d block (%d,%d) exceeds size %d" level lo hi
            size)
      (S.ids_at h level)
  done

let test_children_partition_parent () =
  let h = S.build ~n:97 ~sizes:[ 10; 3; 1 ] in
  for level = 0 to S.num_levels h - 2 do
    Ostree.iter
      (fun id ->
        let lo, hi = S.interval h ~level ~id in
        let child_jobs =
          List.concat_map
            (fun cid ->
              let clo, chi = S.interval h ~level:(level + 1) ~id:cid in
              List.init (chi - clo + 1) (fun i -> clo + i))
            (S.children h ~level ~id)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "children of L%d block %d" level id)
          (List.init (hi - lo + 1) (fun i -> lo + i))
          (List.sort compare child_jobs))
      (S.ids_at h level)
  done

let test_children_last_level_rejected () =
  let h = S.build ~n:10 ~sizes:[ 4; 1 ] in
  Alcotest.check_raises "no children at last level"
    (Invalid_argument "Superjob.children: last level has no children")
    (fun () -> ignore (S.children h ~level:1 ~id:1))

let test_map_down_exact () =
  (* mapping preserves the covered job set exactly (no boundary loss) *)
  let h = S.build ~n:83 ~sizes:[ 11; 4; 1 ] in
  let rng = Util.Prng.of_int 3 in
  for level = 0 to S.num_levels h - 2 do
    let all_ids = Ostree.elements (S.ids_at h level) in
    (* random subset *)
    let subset =
      List.filter (fun _ -> Util.Prng.bool rng) all_ids |> Ostree.of_list
    in
    let mapped = S.map_down h ~from_level:level subset in
    let jobs_before = S.jobs_of_ids h ~level subset in
    let jobs_after = S.jobs_of_ids h ~level:(level + 1) mapped in
    Alcotest.(check bool)
      (Printf.sprintf "level %d map is exact" level)
      true
      (Ostree.equal jobs_before jobs_after)
  done

(* Ranks are the ascending block ids, and a block's child ranks name
   exactly its children. *)
let test_ranks_match_ids () =
  let h = S.build ~n:83 ~sizes:[ 11; 4; 1 ] in
  for level = 0 to S.num_levels h - 1 do
    let ids = Ostree.elements (S.ids_at h level) in
    Alcotest.(check (list int))
      (Printf.sprintf "level %d ranks" level)
      ids
      (List.init (S.block_count h level) (fun i -> S.id_of_rank h ~level (i + 1)));
    if level + 1 < S.num_levels h then
      List.iteri
        (fun i id ->
          let lo, hi = S.child_ranks h ~level (i + 1) in
          Alcotest.(check (list int))
            (Printf.sprintf "level %d block %d children" level id)
            (S.children h ~level ~id)
            (List.init (hi - lo + 1) (fun k -> S.id_of_rank h ~level:(level + 1) (lo + k))))
        ids
  done

let test_last_level_is_singletons () =
  let h = S.build ~n:20 ~sizes:[ 7; 1 ] in
  let last = S.num_levels h - 1 in
  Alcotest.(check int) "block count = n" 20 (S.block_count h last);
  Ostree.iter
    (fun id ->
      let lo, hi = S.interval h ~level:last ~id in
      Alcotest.(check (pair int int)) "singleton" (id, id) (lo, hi))
    (S.ids_at h last)

let test_equal_sizes_identity_level () =
  let h = S.build ~n:30 ~sizes:[ 5; 5; 1 ] in
  Alcotest.(check int) "same blocks" (S.block_count h 0) (S.block_count h 1);
  Alcotest.(check bool) "same ids" true
    (Ostree.equal (S.ids_at h 0) (S.ids_at h 1))

let test_oversized_first_level () =
  (* size larger than n: a single block *)
  let h = S.build ~n:10 ~sizes:[ 100; 1 ] in
  Alcotest.(check int) "one block" 1 (S.block_count h 0);
  Alcotest.(check (pair int int)) "whole range" (1, 10)
    (S.interval h ~level:0 ~id:1)

let test_interval_not_found () =
  let h = S.build ~n:10 ~sizes:[ 4; 1 ] in
  Alcotest.check_raises "bad id" Not_found (fun () ->
      ignore (S.interval h ~level:0 ~id:2))

let test_boundary_loss_if_unnested () =
  (* dividing sizes: canonical and nested coincide, loss 0 *)
  let h = S.build ~n:96 ~sizes:[ 12; 6; 1 ] in
  let some = Ostree.of_list [ 13; 37 ] in
  Alcotest.(check int) "dividing sizes lose nothing" 0
    (S.boundary_loss_if_unnested h ~from_level:0 some);
  (* non-dividing sizes: a straddling canonical block forfeits its
     covered jobs *)
  let h = S.build ~n:100 ~sizes:[ 10; 7; 1 ] in
  (* survivor parent (11,20); canonical 7-blocks: (8,14) and (15,21)
     straddle it; only their covered jobs 11..14 and 15..20 are lost *)
  let lone = Ostree.of_list [ 11 ] in
  Alcotest.(check int) "straddling blocks forfeited" 10
    (S.boundary_loss_if_unnested h ~from_level:0 lone);
  (* full coverage: nothing can straddle an edge *)
  Alcotest.(check int) "full input loses nothing" 0
    (S.boundary_loss_if_unnested h ~from_level:0 (S.ids_at h 0));
  Alcotest.check_raises "last level rejected"
    (Invalid_argument "Superjob.boundary_loss_if_unnested: last level")
    (fun () -> ignore (S.boundary_loss_if_unnested h ~from_level:2 lone))

let prop_partitions =
  QCheck.Test.make ~name:"every level partitions 1..n" ~count:100
    QCheck.(
      pair (int_range 1 300)
        (list_of_size Gen.(1 -- 4) (int_range 1 40)))
    (fun (n, raw_sizes) ->
      let sizes = List.sort (fun a b -> compare b a) raw_sizes @ [ 1 ] in
      let h = S.build ~n ~sizes in
      let ok = ref true in
      for level = 0 to S.num_levels h - 1 do
        let cover = covered_jobs h level in
        for j = 1 to n do
          if cover.(j) <> 1 then ok := false
        done
      done;
      !ok)

let prop_map_roundtrip =
  QCheck.Test.make ~name:"map_down of all ids covers 1..n" ~count:100
    QCheck.(pair (int_range 2 200) (int_range 2 30))
    (fun (n, s0) ->
      let h = S.build ~n ~sizes:[ s0; max 1 (s0 / 2); 1 ] in
      let rec descend level ids =
        if level = S.num_levels h - 1 then ids
        else descend (level + 1) (S.map_down h ~from_level:level ids)
      in
      let final = descend 0 (S.ids_at h 0) in
      Ostree.cardinal final = n)

let suite =
  [
    Alcotest.test_case "build validation" `Quick test_build_validation;
    Alcotest.test_case "levels partition 1..n" `Quick test_levels_partition;
    Alcotest.test_case "block sizes bounded" `Quick test_block_sizes_bounded;
    Alcotest.test_case "children partition parent" `Quick
      test_children_partition_parent;
    Alcotest.test_case "children at last level rejected" `Quick
      test_children_last_level_rejected;
    Alcotest.test_case "map_down is exact" `Quick test_map_down_exact;
    Alcotest.test_case "ranks match ids and children" `Quick
      test_ranks_match_ids;
    Alcotest.test_case "last level is singletons" `Quick
      test_last_level_is_singletons;
    Alcotest.test_case "equal sizes give identity level" `Quick
      test_equal_sizes_identity_level;
    Alcotest.test_case "oversized first level" `Quick test_oversized_first_level;
    Alcotest.test_case "interval not found" `Quick test_interval_not_found;
    Alcotest.test_case "boundary loss if unnested" `Quick
      test_boundary_loss_if_unnested;
    Helpers.qtest prop_partitions;
    Helpers.qtest prop_map_roundtrip;
  ]
