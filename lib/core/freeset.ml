(* Element [x] of the universe [lo, lo + size - 1] sits at 1-based index
   [x - lo + 1]: bit [x - lo] of [bits], Fenwick node [x - lo + 1].
   Fenwick node [i] counts the members among indices
   (i - lowbit i, i], lowbit i = i land (-i). *)
type t = {
  lo : int;
  size : int;
  top : int; (* the largest power of two <= size (0 when empty) *)
  bits : Bytes.t;
  fen : int array; (* 1-based; fen.(0) unused *)
  mutable card : int;
  init : Bytes.t option; (* initial membership; None = the whole universe *)
  mutable init_hash : int; (* hash of initial FREE, computed on demand *)
  mutable init_hashed : bool;
  mutable removed_hash : int; (* xor of Mix.int over initial FREE \ FREE *)
  mutable tries : int array; (* TRY ascending in tries.(0 .. ntries-1) *)
  mutable ntries : int;
}

let[@inline] bit_get bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bits i =
  let b = i lsr 3 in
  Bytes.unsafe_set bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits b) lor (1 lsl (i land 7))))

let[@inline] bit_clear bits i =
  let b = i lsr 3 in
  Bytes.unsafe_set bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits b) land lnot (1 lsl (i land 7))))

let highest_pow2 n =
  let p = ref 1 in
  while !p * 2 <= n do
    p := !p * 2
  done;
  if n < 1 then 0 else !p

(* Every index present: node i counts exactly lowbit i members. *)
let fill_full t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\255';
  for i = 1 to t.size do
    t.fen.(i) <- i land -i
  done;
  t.card <- t.size

(* Linear-time Fenwick build from a membership map. *)
let fill_from t src =
  Bytes.blit src 0 t.bits 0 (Bytes.length src);
  let card = ref 0 in
  for i = 1 to t.size do
    let b = if bit_get src (i - 1) then 1 else 0 in
    card := !card + b;
    t.fen.(i) <- b
  done;
  for i = 1 to t.size do
    let j = i + (i land -i) in
    if j <= t.size then t.fen.(j) <- t.fen.(j) + t.fen.(i)
  done;
  t.card <- !card

let make ~lo ~size ~init =
  let size = max 0 size in
  let t =
    {
      lo;
      size;
      top = highest_pow2 size;
      bits = Bytes.make ((size + 7) / 8) '\000';
      fen = Array.make (size + 1) 0;
      card = 0;
      init;
      init_hash = 0;
      init_hashed = false;
      removed_hash = 0;
      tries = Array.make 8 0;
      ntries = 0;
    }
  in
  (match init with None -> fill_full t | Some src -> fill_from t src);
  t

let interval lo hi = make ~lo ~size:(hi - lo + 1) ~init:None

(* An interval is recognised by its cardinality and built in closed
   form; anything else through a membership map of its span. *)
let of_set (type s) (module S : Set_intf.S with type t = s) (s : s) =
  if S.is_empty s then interval 1 0
  else begin
    let lo = S.min_elt s and hi = S.max_elt s in
    if S.cardinal s = hi - lo + 1 then interval lo hi
    else begin
      let src = Bytes.make ((hi - lo + 8) / 8) '\000' in
      S.iter (fun x -> bit_set src (x - lo)) s;
      make ~lo ~size:(hi - lo + 1) ~init:(Some src)
    end
  end

let reset t =
  (match t.init with None -> fill_full t | Some src -> fill_from t src);
  t.removed_hash <- 0;
  t.ntries <- 0

(* ---- FREE ---- *)

let cardinal t = t.card

let[@inline] mem x t =
  let i = x - t.lo in
  i >= 0 && i < t.size && bit_get t.bits i

let remove x t =
  if mem x t then begin
    bit_clear t.bits (x - t.lo);
    t.card <- t.card - 1;
    t.removed_hash <- t.removed_hash lxor Util.Mix.int x;
    let i = ref (x - t.lo + 1) in
    while !i <= t.size do
      Array.unsafe_set t.fen !i (Array.unsafe_get t.fen !i - 1);
      i := !i + (!i land - !i)
    done
  end

let count_le x t =
  if x < t.lo then 0
  else if x - t.lo + 1 >= t.size then t.card
  else begin
    let i = ref (x - t.lo + 1) and s = ref 0 in
    while !i > 0 do
      s := !s + Array.unsafe_get t.fen !i;
      i := !i land (!i - 1)
    done;
    !s
  end

(* Binary lifting: the deepest prefix whose count is still below [k]
   ends just before the element of rank [k]. *)
let select t k =
  if k < 1 || k > t.card then invalid_arg "Freeset.select: rank out of range";
  let pos = ref 0 and rem = ref k and step = ref t.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.size && Array.unsafe_get t.fen next < !rem then begin
      pos := next;
      rem := !rem - Array.unsafe_get t.fen next
    end;
    step := !step lsr 1
  done;
  t.lo + !pos

let hash t =
  if not t.init_hashed then begin
    let h = ref 0 in
    for i = 0 to t.size - 1 do
      let initially =
        match t.init with None -> true | Some src -> bit_get src i
      in
      if initially then h := !h lxor Util.Mix.int (t.lo + i)
    done;
    t.init_hash <- !h;
    t.init_hashed <- true
  end;
  t.init_hash lxor t.removed_hash

(* ---- TRY ---- *)

let try_clear t = t.ntries <- 0
let try_cardinal t = t.ntries

let try_mem x t =
  let k = ref 0 in
  while !k < t.ntries && t.tries.(!k) <> x do
    incr k
  done;
  !k < t.ntries

let try_add x t =
  if not (try_mem x t) then begin
    if t.ntries = Array.length t.tries then begin
      let a = Array.make (2 * t.ntries) 0 in
      Array.blit t.tries 0 a 0 t.ntries;
      t.tries <- a
    end;
    let k = ref t.ntries in
    while !k > 0 && t.tries.(!k - 1) > x do
      t.tries.(!k) <- t.tries.(!k - 1);
      decr k
    done;
    t.tries.(!k) <- x;
    t.ntries <- t.ntries + 1
  end

let try_hash t =
  let h = ref t.ntries in
  for k = 0 to t.ntries - 1 do
    h := Util.Mix.combine !h t.tries.(k)
  done;
  !h

(* ---- FREE \ TRY ---- *)

let diff_cardinal t =
  let d = ref t.card in
  for k = 0 to t.ntries - 1 do
    if mem t.tries.(k) t then decr d
  done;
  !d

(* The element of rank [i] in FREE \ TRY has rank [i + c] in FREE,
   where [c] counts the members of TRY ∩ FREE below it.  Walking
   TRY ∩ FREE ascending, each member whose FREE-rank is at most the
   running target pushes the target up by one; once one lies above it,
   every later one does too. *)
let rank_diff t i =
  if i < 1 || i > diff_cardinal t then
    invalid_arg "Freeset.rank_diff: rank out of range";
  let j = ref i in
  for k = 0 to t.ntries - 1 do
    let x = t.tries.(k) in
    if mem x t && count_le x t <= !j then incr j
  done;
  select t !j

let remove_try t =
  for k = 0 to t.ntries - 1 do
    remove t.tries.(k) t
  done

(* ---- snapshots ---- *)

let fold_universe t keep =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    if keep i then acc := (t.lo + i) :: !acc
  done;
  !acc

let elements t = fold_universe t (fun i -> bit_get t.bits i)

let diff_elements t =
  fold_universe t (fun i -> bit_get t.bits i && not (try_mem (t.lo + i) t))

let try_elements t = Array.to_list (Array.sub t.tries 0 t.ntries)

let done_elements t =
  fold_universe t (fun i ->
      (match t.init with None -> true | Some src -> bit_get src i)
      && not (bit_get t.bits i))
