type outcome = Abd.outcome = {
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  crashed_clients : int list;
  deliveries : int;
}

(* A bank of registers: next[q] at base + q, done[q][c] at
   base + m + (q-1)*cols + c, for q in 1..m and c in 1..cols.  KKβ
   uses one bank at base 0; IterativeKK one per level, each followed
   by its termination flag. *)
type bank = { base : int; cols : int }

let done_reg ~m bank q c =
  assert (c >= 1 && c <= bank.cols);
  bank.base + m + ((q - 1) * bank.cols) + c

let flag_reg ~m bank = bank.base + m + (m * bank.cols) + 1

(* Process [pid]'s view of [bank] through ABD operations. *)
let bank_regs ~m bank ~pid ~read ~write =
  {
    Core.Kk_direct.read_next = (fun q -> read (bank.base + q));
    write_next = (fun v -> write (bank.base + pid) v);
    read_done = (fun q c -> read (done_reg ~m bank q c));
    write_done = (fun c v -> write (done_reg ~m bank pid c) v);
  }

let register_count ~n ~m = m + (m * n)

(* Each client charges a private ledger: ABD work is not reported. *)
let kk_body ~n ~m ~beta ~pid ~read ~write ~do_job =
  ignore
    (Core.Kk_direct.run
       (bank_regs ~m { base = 0; cols = n } ~pid ~read ~write)
       ~policy:Core.Policy.Rank_split ~budget:max_int
       ~ledger:(Shm.Metrics.create ~m) ~pid ~m ~beta ~cols:n
       ~free:(Core.Freeset.interval 1 n) ~perform:do_job)

let run_kk ?crash_plan ?max_deliveries ~servers ~n ~m ~beta ~rng () =
  if m < 1 || n < m then invalid_arg "Kk_mp.run_kk: need 1 <= m <= n";
  if beta < 1 then invalid_arg "Kk_mp.run_kk: beta must be >= 1";
  Abd.run ?crash_plan ?max_deliveries ~servers
    ~registers:(register_count ~n ~m)
    ~rng
    ~client_bodies:(Array.init m (fun i -> kk_body ~n ~m ~beta ~pid:(i + 1)))
    ()

(* ---- IterativeKK(eps) over message passing ---- *)

let run_iterative ?crash_plan ?max_deliveries ~servers ~n ~m ~epsilon_inv ~rng
    () =
  if m < 1 || n < m then invalid_arg "Kk_mp.run_iterative: need 1 <= m <= n";
  let beta = 3 * m * m in
  let sizes = Core.Iterative.sizes ~n ~m ~epsilon_inv in
  let hierarchy = Core.Superjob.build ~n ~sizes in
  let levels = Core.Superjob.num_levels hierarchy in
  let banks = Array.make levels { base = 0; cols = 0 } in
  let registers = ref 0 in
  for l = 0 to levels - 1 do
    let cols = Core.Superjob.block_count hierarchy l in
    banks.(l) <- { base = !registers; cols };
    registers := !registers + m + (m * cols) + 1
  done;
  let flags = Array.to_list (Array.map (flag_reg ~m) banks) in
  let body pid ~read ~write ~do_job =
    Core.Kk_direct.iterative ~hierarchy ~ledger:(Shm.Metrics.create ~m) ~pid
      ~m ~beta
      ~regs:(fun l -> bank_regs ~m banks.(l) ~pid ~read ~write)
      ~flag:(fun l ->
        let r = flag_reg ~m banks.(l) in
        { Core.Kk_direct.is_set = (fun () -> read r = 1);
          set = (fun () -> write r 1) })
      ~perform:(fun level id ->
        let lo, hi = Core.Superjob.interval hierarchy ~level ~id in
        for j = lo to hi do
          do_job j
        done)
  in
  Abd.run ?crash_plan ?max_deliveries
    ~multi_writer:(fun reg -> List.mem reg flags)
    ~servers ~registers:!registers ~rng
    ~client_bodies:(Array.init m (fun i -> body (i + 1)))
    ()
