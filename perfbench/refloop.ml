(* The benchmark's host reference: a fixed, stdlib-only, allocation-heavy
   loop, building a 65536-element [Set] once in a fresh process, so that
   every run of it does the same work: page faults for a new heap
   included.  Prints its seconds.  bench.exe runs it as a child process,
   so the loop's heap and garbage never touch the workload's. *)

module S = Set.Make (Int)

let keys = Array.init 65536 (fun i -> (i * 7919) land 65535)

let () =
  let t0 = Monotonic_clock.now () in
  let s = Array.fold_left (fun s k -> S.add k s) S.empty keys in
  ignore (Sys.opaque_identity (S.cardinal s));
  let t1 = Monotonic_clock.now () in
  Printf.printf "%.9f\n" (Int64.to_float (Int64.sub t1 t0) /. 1e9)
