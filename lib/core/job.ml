type t = int

let none = 0

let is_valid ~n j = j >= 1 && j <= n

(* The last universe built, with its [n].  [Ostree.t] is immutable, so
   every caller can share it; the pair is swapped whole, so a domain
   that loses a race rebuilds a tree but never sees a mismatched one. *)
let last_universe = Atomic.make (0, Ostree.empty)

let universe ~n =
  let n', set = Atomic.get last_universe in
  if n' = n then set
  else begin
    let set = Ostree.of_range 1 n in
    Atomic.set last_universe (n, set);
    set
  end

let range_set ~lo ~hi = Ostree.of_range lo hi

let pp fmt j = Format.fprintf fmt "job#%d" j
