type level = {
  size : int;
  blocks : (int * int) array; (* (lo, hi), sorted by lo *)
  by_id : (int, int * int) Hashtbl.t; (* lo -> (lo, hi) *)
}

type t = { n : int; levels : level array }

(* Subdivide [lo, hi] into chunks of [size], anchored at [lo]. *)
let subdivide size (lo, hi) =
  let rec go l acc =
    if l > hi then List.rev acc else go (l + size) ((l, min (l + size - 1) hi) :: acc)
  in
  go lo []

let make_level size block_list =
  let blocks = Array.of_list block_list in
  let by_id = Hashtbl.create (Array.length blocks * 2) in
  Array.iter (fun (lo, hi) -> Hashtbl.replace by_id lo (lo, hi)) blocks;
  { size; blocks; by_id }

let build ~n ~sizes =
  if n < 1 then invalid_arg "Superjob.build: n must be >= 1";
  if sizes = [] then invalid_arg "Superjob.build: empty sizes";
  (match List.rev sizes with
  | 1 :: _ -> ()
  | _ -> invalid_arg "Superjob.build: sizes must end in 1");
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
        if a < b then invalid_arg "Superjob.build: sizes must be non-increasing";
        if b < 1 then invalid_arg "Superjob.build: sizes must be positive";
        check_monotone rest
    | [ a ] -> if a < 1 then invalid_arg "Superjob.build: sizes must be positive"
    | [] -> invalid_arg "Superjob.build: empty sizes"
  in
  check_monotone sizes;
  let levels =
    List.fold_left
      (fun acc size ->
        match acc with
        | [] -> [ make_level size (subdivide size (1, n)) ]
        | prev :: _ ->
            let blocks =
              Array.to_list prev.blocks
              |> List.concat_map (subdivide size)
            in
            make_level size blocks :: acc)
      [] sizes
  in
  { n; levels = Array.of_list (List.rev levels) }

let n t = t.n

let num_levels t = Array.length t.levels

let get_level t k =
  if k < 0 || k >= num_levels t then invalid_arg "Superjob: level out of range";
  t.levels.(k)

let level_size t k = (get_level t k).size

let block_count t k = Array.length (get_level t k).blocks

let interval t ~level ~id =
  match Hashtbl.find_opt (get_level t level).by_id id with
  | Some iv -> iv
  | None -> raise Not_found

let ids_at t k =
  Array.fold_left (fun acc (lo, _) -> Ostree.add lo acc) Ostree.empty
    (get_level t k).blocks

let id_of_rank t ~level r =
  let blocks = (get_level t level).blocks in
  if r < 1 || r > Array.length blocks then
    invalid_arg "Superjob.id_of_rank: rank out of range";
  fst blocks.(r - 1)

(* The 1-based rank of block [id] at [level], by binary search on the
   blocks' sorted ids. *)
let rank_of_id t ~level id =
  let blocks = (get_level t level).blocks in
  let rec search lo hi =
    if lo > hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let b = fst blocks.(mid) in
      if b = id then mid + 1
      else if b < id then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length blocks - 1)

let child_ranks t ~level r =
  if level + 1 >= num_levels t then
    invalid_arg "Superjob.child_ranks: last level has no children";
  let lo = id_of_rank t ~level r in
  let hi = snd (get_level t level).blocks.(r - 1) in
  let d = level_size t (level + 1) in
  let first = rank_of_id t ~level:(level + 1) lo in
  (first, first + ((hi - lo) / d))

let children t ~level ~id =
  if level + 1 >= num_levels t then
    invalid_arg "Superjob.children: last level has no children";
  let iv = interval t ~level ~id in
  List.map fst (subdivide (level_size t (level + 1)) iv)

let map_down t ~from_level ids =
  Ostree.fold
    (fun id acc ->
      List.fold_left
        (fun acc child -> Ostree.add child acc)
        acc
        (children t ~level:from_level ~id))
    ids Ostree.empty

let boundary_loss_if_unnested t ~from_level ids =
  if from_level + 1 >= num_levels t then
    invalid_arg "Superjob.boundary_loss_if_unnested: last level";
  let d = level_size t (from_level + 1) in
  (* jobs covered by the surviving parents *)
  let member =
    let covered = Hashtbl.create 1024 in
    Ostree.iter
      (fun id ->
        let lo, hi = interval t ~level:from_level ~id in
        for j = lo to hi do
          Hashtbl.replace covered j ()
        done)
      ids;
    fun j -> Hashtbl.mem covered j
  in
  (* canonical next-level blocks, anchored at job 1; a block is kept
     only if all its jobs are covered *)
  let lost = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let all_covered = ref true in
      let some_covered = ref 0 in
      for j = lo to hi do
        if member j then incr some_covered else all_covered := false
      done;
      if not !all_covered then lost := !lost + !some_covered)
    (subdivide d (1, t.n));
  !lost

let jobs_of_ids t ~level ids =
  Ostree.fold
    (fun id acc ->
      let lo, hi = interval t ~level ~id in
      let rec add j acc = if j > hi then acc else add (j + 1) (Ostree.add j acc) in
      add lo acc)
    ids Ostree.empty
