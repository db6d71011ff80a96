type t = Rank_split | Random of Util.Prng.t | Lowest_free

let name = function
  | Rank_split -> "rank-split"
  | Random _ -> "random"
  | Lowest_free -> "lowest-free"

let choose pol ~p ~m sets =
  let avail = Freeset.diff_cardinal sets in
  if avail < 1 then invalid_arg "Policy.choose: FREE \\ TRY is empty";
  let idx =
    match pol with
    | Rank_split ->
        let nf = Freeset.cardinal sets in
        (* TMP = (|FREE| − (m−1)) / m as a rational; the TMP >= 1
           test is nf − m + 1 >= m. *)
        if nf - m + 1 >= m then ((p - 1) * (nf - m + 1) / m) + 1 else p
    | Random rng -> 1 + Util.Prng.int rng avail
    | Lowest_free -> 1
  in
  (* In the paper's regime (β >= m) idx <= avail always holds; the
     clamp only matters for experimental β < m runs. *)
  Freeset.rank_diff sets (min idx avail)

let work_cost ~try_cardinal ~log_n = (try_cardinal + 1) * log_n
