(* Tests for Util.Prng (SplitMix64). *)

let test_determinism () =
  let g1 = Util.Prng.create 12345L and g2 = Util.Prng.create 12345L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Util.Prng.next_int64 g1)
      (Util.Prng.next_int64 g2)
  done

let test_seed_sensitivity () =
  let g1 = Util.Prng.create 1L and g2 = Util.Prng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Prng.next_int64 g1 = Util.Prng.next_int64 g2 then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy_replays () =
  let g = Util.Prng.create 7L in
  ignore (Util.Prng.next_int64 g);
  let c = Util.Prng.copy g in
  let a = Array.init 10 (fun _ -> Util.Prng.next_int64 g) in
  let b = Array.init 10 (fun _ -> Util.Prng.next_int64 c) in
  Alcotest.(check (array int64)) "copy replays" a b

(* The first values of [Prng.of_int 42], pinned: the state layout may
   change, the streams may not. *)
let golden_next_int64 =
  [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
    6349198060258255764L; 701532786141963250L; -2430762948046562554L;
    4028864712777624925L; -3677692746721775708L ]

let test_golden_values () =
  let draw k f = List.init k (fun _ -> f ()) in
  let g = Util.Prng.of_int 42 in
  Alcotest.(check (list int64)) "next_int64" golden_next_int64
    (draw 8 (fun () -> Util.Prng.next_int64 g));
  let g = Util.Prng.of_int 42 in
  Alcotest.(check (list int)) "int g 1000"
    [ 853; 72; 964; 941; 812; 265; 231; 977 ]
    (draw 8 (fun () -> Util.Prng.int g 1000));
  let s = Util.Prng.split (Util.Prng.of_int 42) in
  Alcotest.(check (list int64)) "split stream"
    [ -4204815582636234286L; 7040222520599051659L; -5426180739752472406L;
      -7348579604204979571L; 328699146309096365L; -1747375034417295713L;
      -8831238543770038794L; 3236340736668904654L ]
    (draw 8 (fun () -> Util.Prng.next_int64 s));
  (* a copy taken mid-stream replays the rest, and drawing from one
     leaves the other's state alone *)
  let g = Util.Prng.of_int 42 in
  ignore (draw 3 (fun () -> Util.Prng.next_int64 g));
  let c = Util.Prng.copy g in
  let rest = List.filteri (fun i _ -> i >= 3) golden_next_int64 in
  Alcotest.(check (list int64)) "original after copy" rest
    (draw 5 (fun () -> Util.Prng.next_int64 g));
  Alcotest.(check (list int64)) "copy replays" rest
    (draw 5 (fun () -> Util.Prng.next_int64 c))

let test_split_independent () =
  let g = Util.Prng.create 99L in
  let h = Util.Prng.split g in
  let a = Array.init 32 (fun _ -> Util.Prng.next_int64 g) in
  let b = Array.init 32 (fun _ -> Util.Prng.next_int64 h) in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let test_int_bounds () =
  let g = Util.Prng.create 5L in
  for _ = 1 to 1000 do
    let v = Util.Prng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done

let test_int_invalid () =
  let g = Util.Prng.create 5L in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Util.Prng.int g 0))

let test_int_in_bounds () =
  let g = Util.Prng.create 6L in
  for _ = 1 to 1000 do
    let v = Util.Prng.int_in g (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of bounds: %d" v
  done;
  Alcotest.(check int) "degenerate range" 3 (Util.Prng.int_in g 3 3)

let test_int_covers_range () =
  let g = Util.Prng.create 8L in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Util.Prng.int g 8) <- true
  done;
  Alcotest.(check bool) "all 8 values reached" true (Array.for_all Fun.id seen)

let test_uniformity_rough () =
  let g = Util.Prng.create 11L in
  let buckets = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let b = Util.Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d badly skewed: %d vs %d" i c expected)
    buckets

let test_float_range () =
  let g = Util.Prng.create 13L in
  for _ = 1 to 1000 do
    let v = Util.Prng.float g 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_bernoulli_extremes () =
  let g = Util.Prng.create 14L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Util.Prng.bernoulli g 1.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Util.Prng.bernoulli g 0.0)
  done

let test_permutation_valid () =
  let g = Util.Prng.create 15L in
  for _ = 1 to 50 do
    let p = Util.Prng.permutation g 20 in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "is a permutation"
      (Array.init 20 Fun.id) sorted
  done

let test_shuffle_preserves_elements () =
  let g = Util.Prng.create 16L in
  let a = Array.init 30 (fun i -> i * i) in
  let b = Array.copy a in
  Util.Prng.shuffle_in_place g b;
  Array.sort compare b;
  Alcotest.(check (array int)) "multiset preserved" a b

let test_sample_without_replacement () =
  let g = Util.Prng.create 17L in
  for _ = 1 to 50 do
    let s = Util.Prng.sample_without_replacement g 10 25 in
    Alcotest.(check int) "length" 10 (Array.length s);
    let set = List.sort_uniq compare (Array.to_list s) in
    Alcotest.(check int) "distinct" 10 (List.length set);
    Array.iter
      (fun v -> if v < 0 || v >= 25 then Alcotest.failf "out of range: %d" v)
      s
  done;
  (* full sample is a permutation *)
  let s = Util.Prng.sample_without_replacement g 25 25 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = bound" (Array.init 25 Fun.id) sorted

let test_sample_invalid () =
  let g = Util.Prng.create 18L in
  Alcotest.check_raises "k > bound rejected"
    (Invalid_argument "Prng.sample_without_replacement: need 0 <= k <= bound")
    (fun () -> ignore (Util.Prng.sample_without_replacement g 5 3))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays stream" `Quick test_copy_replays;
    Alcotest.test_case "golden values" `Quick test_golden_values;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "permutation validity" `Quick test_permutation_valid;
    Alcotest.test_case "shuffle preserves elements" `Quick
      test_shuffle_preserves_elements;
    Alcotest.test_case "sample without replacement" `Quick
      test_sample_without_replacement;
    Alcotest.test_case "sample invalid args" `Quick test_sample_invalid;
  ]
