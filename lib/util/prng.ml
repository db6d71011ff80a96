(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators", OOPSLA 2014.  The golden-gamma increment and the
   two finalizer rounds below are the reference constants. *)

(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh int64 on every advance.  Drawing an [int] thus
   allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 seed;
  g

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let split g = create (mix (next_int64 g))

(* Rejection sampling on the high bits keeps the distribution exactly
   uniform even when [bound] does not divide 2^62. *)
let rec draw g bound =
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
  let v = bits mod bound in
  if bits - v + (bound - 1) < 0 then draw g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw g bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (next_int64 g) 1L = 1L

let float g bound =
  let bits = Int64.to_float (Int64.shift_right_logical (next_int64 g) 11) in
  bound *. (bits /. 9007199254740992.0 (* 2^53 *))

let bernoulli g p = float g 1.0 < p

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g k =
  let a = Array.init k (fun i -> i) in
  shuffle_in_place g a;
  a

let sample_without_replacement g k bound =
  if k < 0 || k > bound then
    invalid_arg "Prng.sample_without_replacement: need 0 <= k <= bound";
  (* Partial Fisher–Yates over a sparse map: O(k) time and space even
     for large [bound]. *)
  let swapped = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt swapped i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in g i (bound - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace swapped j vi;
      Hashtbl.replace swapped i vj;
      vj)
