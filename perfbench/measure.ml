(* The benchmark's arithmetic: order statistics, the reporting rule for
   tail percentiles, and the ratios the end-to-end metrics are made of.
   Kept free of any timing or library code so it can be tested on fixed
   inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p]% of the samples at or below it. *)
let nearest_rank_index ~count p =
  (* the epsilon keeps e.g. 99.9% of 10000 at rank 9990, not 9991 *)
  let k = int_of_float (Float.ceil ((p *. float_of_int count /. 100.) -. 1e-9)) in
  max 1 (min count k)

let percentile_sorted a p =
  if Array.length a = 0 then invalid_arg "Measure.percentile: no samples";
  a.(nearest_rank_index ~count:(Array.length a) p - 1)

(* The percentiles a timing may be reported at, lowest first. *)
let ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

(* Samples strictly beyond the nearest-rank [p]th percentile's position. *)
let beyond ~count p = count - nearest_rank_index ~count p

(* The highest percentile of [ladder] that leaves at least ten samples
   beyond it, or [None] when even the median does not. *)
let tail_percentile ~count =
  List.fold_left
    (fun best p -> if beyond ~count p >= 10 then Some p else best)
    None ladder

type summary = {
  count : int;
  p50 : float;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let a = sorted xs in
  let count = Array.length a in
  {
    count;
    p50 = Util.Stats.median a;
    tail =
      Option.map (fun p -> (p, percentile_sorted a p)) (tail_percentile ~count);
  }

(* Median of a histogram whose bucket [i] counts samples equal to [i]
   (lower median); 0 for an empty histogram. *)
let histogram_median h =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then 0.
  else begin
    let half = (total + 1) / 2 in
    let rec go i acc =
      let acc = acc + h.(i) in
      if acc >= half then float_of_int i else go (i + 1) acc
    in
    go 0 0
  end

(* Theorem 4.4 allows an execution with r restarts to leave
   β + m − 2 + r jobs undone.  [instances] holds (Do(α), r) per
   instance; the result is the share of the summed allowance spent,
   with the jobs lost and the allowance it is the ratio of. *)
let budget_used ~n ~m ~beta instances =
  let lost, allowed =
    List.fold_left
      (fun (lost, allowed) (done_jobs, restarts) ->
        (lost + (n - done_jobs), allowed + beta + m - 2 + restarts))
      (0, 0) instances
  in
  if allowed <= 0 then invalid_arg "Measure.budget_used: empty budget";
  (float_of_int lost /. float_of_int allowed, lost, allowed)

(* Failed instances over attempted instances, where an instance that
   raised counts as both attempted and failed. *)
let failed_frac ~failed ~attempted =
  if attempted < 1 then invalid_arg "Measure.failed_frac: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Measure.failed_frac: failed outside 0..attempted";
  float_of_int failed /. float_of_int attempted

(* Host-speed units.  [reference] holds the times of a fixed reference
   loop sampled through a run; one "ref" is their median, and a time
   divided by it is in refs, which a host that slows the loop and the
   program alike leaves unchanged. *)
let ref_unit reference =
  if reference = [] then invalid_arg "Measure.ref_unit: no reference samples";
  Util.Stats.median (Array.of_list reference)

let in_refs ~reference seconds = seconds /. ref_unit reference

let jobs_per_ref ~reference ~jobs ~seconds =
  float_of_int jobs /. in_refs ~reference seconds

(* Throughput lost to tracing: the absolute difference and its share of
   the untraced figure. *)
let overhead ~untraced ~traced =
  if untraced <= 0. then invalid_arg "Measure.overhead: untraced rate <= 0";
  let diff = untraced -. traced in
  (diff, diff /. untraced)

let ratio num den = if den = 0. then 0. else num /. den
