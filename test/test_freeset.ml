(* Core.Freeset against Ostree: the same FREE, TRY and removals must
   give the same answers to every query the algorithm asks. *)

module F = Core.Freeset

(* The model: persistent FREE, TRY and initial FREE. *)
type model = { free : Ostree.t; tries : Ostree.t; init : Ostree.t }

let apply (model, fs) = function
  | `Remove x ->
      F.remove x fs;
      ({ model with free = Ostree.remove x model.free }, fs)
  | `Try xs ->
      F.try_clear fs;
      List.iter (fun x -> F.try_add x fs) xs;
      ({ model with tries = Ostree.of_list xs }, fs)

let diff m = Ostree.fold Ostree.remove m.tries m.free

let agree m fs =
  let lo = try Ostree.min_elt m.init - 2 with Not_found -> -2 in
  let hi = try Ostree.max_elt m.init + 2 with Not_found -> 2 in
  let probes = List.init (hi - lo + 1) (fun i -> lo + i) in
  let d = diff m in
  let card = Ostree.cardinal m.free in
  let hash = Ostree.fold (fun x h -> h lxor Util.Mix.int x) m.free 0 in
  F.cardinal fs = card
  && F.try_cardinal fs = Ostree.cardinal m.tries
  && List.for_all
       (fun x ->
         F.mem x fs = Ostree.mem x m.free
         && F.try_mem x fs = Ostree.mem x m.tries
         && F.count_le x fs = Ostree.count_le x m.free)
       probes
  && List.for_all
       (fun i -> F.select fs i = Ostree.select m.free i)
       (List.init card (fun i -> i + 1))
  && F.diff_cardinal fs = Ostree.diff_cardinal m.free m.tries
  && List.for_all
       (fun i -> F.rank_diff fs i = Ostree.rank_diff m.free m.tries i)
       (List.init (Ostree.cardinal d) (fun i -> i + 1))
  && F.hash fs = hash
  && F.elements fs = Ostree.elements m.free
  && F.diff_elements fs = Ostree.elements d
  && F.try_elements fs = Ostree.elements m.tries
  && F.done_elements fs
     = Ostree.elements (Ostree.fold Ostree.remove m.free m.init)

(* Initial FREE: an interval, a random subset of one, or one level's
   super-job ids. *)
let gen_init =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun lo len -> Ostree.of_range lo (lo + len - 1))
          (int_range (-5) 50) (int_range 0 120);
        map Ostree.of_list (list_size (int_range 0 80) (int_range 1 150));
        map2
          (fun n level ->
            let h = Core.Superjob.build ~n ~sizes:[ 16; 4; 1 ] in
            Core.Superjob.ids_at h (level mod Core.Superjob.num_levels h))
          (int_range 16 200) (int_range 0 2);
      ])

(* Removals and TRY refills (0..m-1 entries, m <= 8) over values in and
   around the universe. *)
let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [
           (4, map (fun x -> `Remove x) (int_range (-8) 210));
           ( 1,
             map
               (fun l -> `Try l)
               (list_size (int_range 0 7) (int_range (-8) 210)) );
         ]))

let print (init, ops) =
  Printf.sprintf "init=%s ops=[%s]"
    (Format.asprintf "%a" Ostree.pp init)
    (String.concat "; "
       (List.map
          (function
            | `Remove x -> Printf.sprintf "rm %d" x
            | `Try l ->
                Printf.sprintf "try {%s}"
                  (String.concat "," (List.map string_of_int l)))
          ops))

let arb = QCheck.make ~print QCheck.Gen.(pair gen_init gen_ops)

let prop_differential =
  QCheck.Test.make ~name:"agrees with Ostree under removals and TRY"
    ~count:400 arb
    (fun (init, ops) ->
      let m0 = { free = init; tries = Ostree.empty; init } in
      let fs = F.of_set (module Ostree) init in
      agree m0 fs
      &&
      let m, fs =
        List.fold_left
          (fun acc op ->
            let ((m, fs) as acc) = apply acc op in
            if not (agree m fs) then QCheck.Test.fail_reportf "diverged";
            acc)
          (m0, fs) ops
      in
      agree m fs
      &&
      (* FREE := FREE \ TRY, then the restart snapshot *)
      (F.remove_try fs;
       agree { m with free = diff m } fs)
      &&
      (F.reset fs;
       agree m0 fs))

let test_interval_closed_form () =
  let fs = F.interval 3 10 in
  Alcotest.(check (list int))
    "elements" [ 3; 4; 5; 6; 7; 8; 9; 10 ] (F.elements fs);
  Alcotest.(check int) "select 8" 10 (F.select fs 8);
  Alcotest.(check int) "count_le 6" 4 (F.count_le 6 fs);
  let empty = F.interval 1 0 in
  Alcotest.(check int) "empty" 0 (F.cardinal empty);
  Alcotest.(check int) "empty count_le" 0 (F.count_le 5 empty)

let test_rank_errors () =
  let fs = F.of_set (module Ostree) (Ostree.of_list [ 2; 4 ]) in
  F.try_add 4 fs;
  Alcotest.check_raises "select 3"
    (Invalid_argument "Freeset.select: rank out of range") (fun () ->
      ignore (F.select fs 3));
  Alcotest.check_raises "rank_diff 2"
    (Invalid_argument "Freeset.rank_diff: rank out of range") (fun () ->
      ignore (F.rank_diff fs 2))

let suite =
  [
    Helpers.qtest prop_differential;
    Alcotest.test_case "interval closed form" `Quick test_interval_closed_form;
    Alcotest.test_case "rank errors" `Quick test_rank_errors;
  ]
