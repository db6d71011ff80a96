(* The repository's wall-clock benchmark: KKβ on the simulator, under
   chaos plans, over ABD message passing and on OCaml domains.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One process runs one workload.  It derives every input from the seed,
   times instances until [--seconds] have passed, checks each instance's
   output, prints every metric with its unit and base, and ends with one
   JSON line: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  Its end-to-end time metrics are in refs,
   multiples of a host-reference loop's time in the same run (see "host
   reference" below); set-up is in refs converted to seconds at a fixed
   rate.  The traced run spends half its time untraced and half with
   spans recorded around the calls into each layer, and reports the
   difference in jobs/ref as the tracing overhead.  Exit code 1 means an
   instance failed a check, 2 a usage error. *)

module Prng = Util.Prng

(* ---- clocks and counters ---- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
let median l = Util.Stats.median (Array.of_list l)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "peak_rss_mb: no VmHWM line"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- host reference ---- *)

(* On a shared host the workloads run up to half again slower in spells
   of seconds to minutes, while other tenants load the memory system; an
   ALU loop hardly moves then, but an allocation-heavy loop slows down
   with the workloads.  So a run samples refloop.exe, a stdlib-only loop
   building a 65536-element [Set], before its first instance and after
   every [ref_every_s] seconds of timed work, and reports its time metrics
   in refs: multiples of the loop's median time in the same run.  That
   cancels most of the host's drift and none of a change to the program.
   The loop runs in a child process, which inherits this process's CPU,
   so that its heap adds nothing to this one's size or GC work.  Under
   load its times within a run vary by a quarter from one second to the
   next, so it is sampled often, to pin the median down.  A workload on
   [k] domains is compared with [k] copies of the loop run at once, which
   meet the same contention between the CPUs; a sample is their mean. *)
let ref_every_s = 0.4

(* Set-up time has to be reported in seconds, and it drifts with the
   host as the rest does; so it is measured in refs and converted at a
   fixed rate, about one ref's time on an idle 2-vCPU Xeon VM. *)
let nominal_ref_s = 0.045

let refloop =
  Filename.concat (Filename.dirname Sys.executable_name) "refloop.exe"

let reference_s ~copies =
  let children =
    List.init copies (fun _ -> Unix.open_process_args_in refloop [| refloop |])
  in
  let results =
    List.map
      (fun ic ->
        let line = In_channel.input_line ic in
        (Unix.close_process_in ic, Option.bind line float_of_string_opt))
      children
  in
  let add acc = function
    | Unix.WEXITED 0, Some s -> acc +. s
    | _ -> failwith (refloop ^ " failed")
  in
  List.fold_left add 0. results /. float_of_int copies

(* ---- span layers of the traced run ---- *)

let layer_names =
  [|
    "instance"; "executor.run"; "schedule.choose"; "kk.step"; "ostree";
    "journal.probe"; "plan.gen"; "chaos.run_plan"; "oracle.check";
    "monitor.observe"; "net.deliver"; "abd.run"; "mc.run_kk";
  |]

let l_instance = 0
and l_exec = 1
and l_choose = 2
and l_step = 3
and l_ostree = 4
and l_journal = 5
and l_plan = 6
and l_run_plan = 7
and l_oracle = 8
and l_monitor = 9
and l_deliver = 10
and l_abd = 11
and l_mc = 12

let sink = Obs.Sink.memory ~capacity:100_000 ()
let tr = Tracer.create ~sink layer_names

(* Counts the traced run takes at the layer boundaries, summed over the
   traced phase. *)
type counts = {
  mutable steps : int;
  mutable checks : int;  (** candidates checked: jobs performed + collisions *)
  mutable reads : int;
  mutable writes : int;
  mutable events : int;
  mutable journal_records : int;
  mutable journal_bytes : int;
  mutable deliveries : int;
  pending : int array;  (** deliveries seen at each queue depth *)
  mutable abd_reads : int;
  mutable abd_writes : int;
  mutable read_lat : int;
  mutable write_lat : int;
  mutable spawn_join_s : float list;
  mutable imbalance : float list;
  mutable wall1 : float list;
  mutable wall2 : float list;
}

let counts =
  {
    steps = 0; checks = 0; reads = 0; writes = 0; events = 0;
    journal_records = 0; journal_bytes = 0; deliveries = 0; pending = Array.make 4096 0;
    abd_reads = 0; abd_writes = 0; read_lat = 0; write_lat = 0;
    spawn_join_s = []; imbalance = []; wall1 = []; wall2 = [];
  }

let reset_counts () =
  let c = counts in
  c.steps <- 0; c.checks <- 0; c.reads <- 0; c.writes <- 0; c.events <- 0;
  c.journal_records <- 0; c.journal_bytes <- 0; c.deliveries <- 0;
  Array.fill c.pending 0 (Array.length c.pending) 0;
  c.abd_reads <- 0; c.abd_writes <- 0; c.read_lat <- 0;
  c.write_lat <- 0; c.spawn_join_s <- []; c.imbalance <- []; c.wall1 <- [];
  c.wall2 <- []

(* ---- one instance ---- *)

type sample = {
  setup_s : float;
  run_s : float;
  words : float;  (** words allocated by the timed call *)
  minor_gcs : int;
  major_gcs : int;
  jobs : int;  (** Do(α) *)
  ops : int;  (** the paper's work measure for this backend *)
  restarts : int;
  failure : string option;
}

(* Time [f] and the allocation it makes; [setup_ns] is the set-up the
   caller already timed. *)
let timed ~setup_ns f =
  let g0 = Gc.quick_stat () in
  let w0 = allocated_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = allocated_words () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      setup_s = secs setup_ns;
      run_s = secs (t1 - t0);
      words = w1 -. w0;
      minor_gcs = g1.minor_collections - g0.minor_collections;
      major_gcs = g1.major_collections - g0.major_collections;
      jobs = 0;
      ops = 0;
      restarts = 0;
      failure = None;
    } )

(* The checks every instance's do-log must pass: at-most-once (C1) and,
   when [floor] is given, the effectiveness floor n − (β + m − 2). *)
let check_dos ?floor dos =
  match Core.Spec.check_at_most_once dos with
  | Error v -> Some (Format.asprintf "at-most-once: %a" Core.Spec.pp_violation v)
  | Ok () -> (
      let d = Core.Spec.do_count dos in
      match floor with
      | Some f when d < f -> Some (Printf.sprintf "effectiveness %d < floor %d" d f)
      | _ -> None)

let first_failure checks = List.find_map Fun.id checks

(* A growable do-log filled by KKβ's [perform] callback, so a [`Silent]
   run still yields every (pid, job) for the checker. *)
module Dolog = struct
  type t = { mutable pids : int array; mutable jobs : int array; mutable len : int }

  let create cap = { pids = Array.make cap 0; jobs = Array.make cap 0; len = 0 }

  let perform t ~p job =
    if t.len = Array.length t.pids then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.pids <- grow t.pids;
      t.jobs <- grow t.jobs
    end;
    t.pids.(t.len) <- p;
    t.jobs.(t.len) <- job;
    t.len <- t.len + 1;
    [ Shm.Event.Do { p; job } ]

  let to_list t = List.init t.len (fun i -> (t.pids.(i), t.jobs.(i)))
end

module Traced_kk = Core.Kk.Make (Timed_set.Make (struct
  let tracer = tr
  let layer = l_ostree
end))

let kk_module ~traced : (module Core.Kk.S with type set = Ostree.t) =
  if traced then (module Traced_kk) else (module Core.Kk)

let traced_step (h : Shm.Automaton.handle) =
  {
    h with
    step =
      (fun () ->
        Tracer.enter tr l_step;
        match h.step () with
        | r ->
            Tracer.exit tr;
            r
        | exception e ->
            Tracer.exit tr;
            raise e);
  }

let traced_scheduler s =
  Shm.Schedule.custom ~name:(Shm.Schedule.name s) (fun ~alive ->
      Tracer.enter tr l_choose;
      let p = Shm.Schedule.choose s ~alive in
      Tracer.exit tr;
      p)

(* ---- workloads ---- *)

type workload = {
  name : string;
  n : int;
  m : int;
  beta : int;
  domains : int;  (** OCaml domains an instance runs on at once *)
  shape : string;
  instance : traced:bool -> index:int -> Prng.t -> sample;
}

(* sim-kk: Core.Kk under Shm.Executor, seeded random schedule, no
   faults, `Silent trace, null probe. *)
let sim_kk ~n ~m ~beta ~traced ~index:_ rng =
  let (module K) = kk_module ~traced in
  let t0 = now_ns () in
  let dolog = Dolog.create n in
  let metrics = Shm.Metrics.create ~m in
  let shared = K.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let kks =
    Array.init m (fun i ->
        K.create ~shared ~pid:(i + 1) ~beta ~policy:Core.Policy.Rank_split
          ~free:(Core.Job.universe ~n) ~perform:(Dolog.perform dolog)
          ~mode:Core.Kk.Standalone ())
  in
  let handles = Array.map K.handle kks in
  let scheduler = Shm.Schedule.random (Prng.split rng) in
  let handles, scheduler =
    if traced then (Array.map traced_step handles, traced_scheduler scheduler)
    else (handles, scheduler)
  in
  let setup_ns = now_ns () - t0 in
  let run () =
    Shm.Executor.run ~trace_level:`Silent ~scheduler
      ~adversary:Shm.Adversary.none handles
  in
  let outcome, s =
    timed ~setup_ns (fun () -> if traced then Tracer.span tr l_exec run else run ())
  in
  let dos = Dolog.to_list dolog in
  if traced then begin
    counts.steps <- counts.steps + outcome.steps;
    Array.iter
      (fun k ->
        counts.checks <- counts.checks + K.do_count k + K.collisions_detected k)
      kks;
    counts.reads <- counts.reads + Shm.Metrics.total_reads metrics;
    counts.writes <- counts.writes + Shm.Metrics.total_writes metrics
  end;
  {
    s with
    jobs = Core.Spec.do_count dos;
    ops = outcome.steps;
    failure =
      first_failure
        [
          (if outcome.reason = Shm.Executor.Quiescent then None
           else Some "executor hit its step budget");
          check_dos ~floor:(n - (beta + m - 2)) dos;
        ];
  }

(* The flight recorder every chaos run journals into, as an always-on
   recorder would: one per process. *)
let flight = Obs.Flight.create ()
let journal_probe = Obs.Journal.probe flight

let traced_journal_probe =
  Shm.Probe.make ~needs_phase:false (fun ~step ~phase ev ->
      Tracer.enter tr l_journal;
      Shm.Probe.on_event journal_probe ~step ~phase ev;
      Tracer.exit tr)

(* The executor part of [Fault.Chaos.run_plan] rebuilt from the same
   public pieces over the timed set, with the same probes.  The library
   function has no seam for wrapping KK's steps, its Ostree calls or the
   scheduler, so only the executor, kk.step, ostree and schedule spans and
   the step, check and memory counts come from this copy; every traced
   instance checks that it performs the same steps and jobs as the
   library's run of the plan. *)
let mirror_run_plan (plan : Fault.Plan.t) =
  let n = plan.n and m = plan.m and beta = plan.beta in
  let rng = Prng.of_int plan.seed in
  let sched_rng = Prng.split rng in
  let metrics = Shm.Metrics.create ~m in
  let collision = Core.Collision.create ~m in
  let shared = Traced_kk.make_shared ~metrics ~m ~capacity:n ~name:"kk" () in
  let kks =
    Array.init m (fun i ->
        Traced_kk.create ~shared ~pid:(i + 1) ~beta
          ~policy:Core.Policy.Rank_split ~free:(Core.Job.universe ~n)
          ~collision ~provenance:true ~mode:Core.Kk.Standalone ())
  in
  let handles = Array.map (fun k -> traced_step (Traced_kk.handle k)) kks in
  let probe =
    Shm.Probe.compose journal_probe
      (Obs.Bridge.monitor_probe ~fail_fast:true
         (Obs.Monitor.create ~n ~m ~beta ()))
  in
  let scheduler, _picks =
    Shm.Schedule.recording (Fault.Inject.scheduler ~plan ~rng:sched_rng)
  in
  let adversary = Fault.Inject.adversary ~plan ~metrics in
  let restarter =
    Fault.Inject.restarter ~plan ~restart:(fun pid ->
        Traced_kk.restart kks.(pid - 1))
  in
  let outcome =
    Tracer.span tr l_exec (fun () ->
        Shm.Executor.run
          ~max_steps:(200_000 + (1_000 * n * m))
          ~probe ?restarter ~scheduler:(traced_scheduler scheduler) ~adversary
          handles)
  in
  counts.steps <- counts.steps + outcome.steps;
  Array.iter
    (fun k ->
      counts.checks <-
        counts.checks + Traced_kk.do_count k + Traced_kk.collisions_detected k)
    kks;
  counts.reads <- counts.reads + Shm.Metrics.total_reads metrics;
  counts.writes <- counts.writes + Shm.Metrics.total_writes metrics;
  outcome

let oracle_failure = function
  | [] -> None
  | v :: _ -> Some (Format.asprintf "oracle %a" Analysis.Oracle.pp_violation v)

(* chaos-kk: one seeded plan per instance, run as [Fault.Chaos.soak
   ~fail_fast:true ~probe] runs each of its plans; generating the plan is
   the instance's set-up.  The traced run times the same library call
   with spans around the journal probe, then times the oracle and the
   monitor on the trace it returns, and runs the plan once more through
   [mirror_run_plan], outside the timed call, for the spans inside the
   executor. *)
let chaos_kk ~n ~m ~beta ~traced ~index rng =
  let t0 = now_ns () in
  let gen () =
    Fault.Plan.gen ~recovery:(index mod 4 = 0) ~stalls:true
      ~name:(Printf.sprintf "chaos-%03d" index)
      ~n ~m ~beta rng
  in
  let plan = if traced then Tracer.span tr l_plan gen else gen () in
  let monitor = Obs.Monitor.create ~n ~m ~beta () in
  let setup_ns = now_ns () - t0 in
  let run_plan probe () =
    Fault.Chaos.run_plan ~probe ~monitor ~fail_fast:true plan
  in
  let records0 = Obs.Flight.total_records flight
  and bytes0 = Obs.Flight.total_bytes flight in
  let r, s =
    if traced then
      timed ~setup_ns (fun () ->
          Tracer.span tr l_run_plan (run_plan traced_journal_probe))
    else timed ~setup_ns (run_plan journal_probe)
  in
  let traced_checks =
    if not traced then []
    else begin
      counts.journal_records <-
        counts.journal_records + Obs.Flight.total_records flight - records0;
      counts.journal_bytes <-
        counts.journal_bytes + Obs.Flight.total_bytes flight - bytes0;
      counts.events <- counts.events + Shm.Trace.length r.trace;
      let violations =
        Tracer.span tr l_oracle (fun () ->
            Analysis.Oracle.check_all (Fault.Chaos.oracles_for plan) r.trace)
      in
      Tracer.span tr l_monitor (fun () ->
          Obs.Monitor.observe_trace (Obs.Monitor.create ~n ~m ~beta ()) r.trace);
      let mirror = mirror_run_plan plan in
      [
        oracle_failure violations;
        (if mirror.steps = r.steps && Shm.Trace.do_events mirror.trace = r.dos
         then None
         else Some "mirror_run_plan diverged from Fault.Chaos.run_plan");
      ]
    end
  in
  {
    s with
    jobs = r.do_count;
    ops = r.steps;
    restarts = List.length r.restarts;
    failure =
      first_failure
        ([
           oracle_failure r.violations;
           (if r.wait_free then None else Some "not wait-free");
           check_dos r.dos;
         ]
        @ traced_checks);
  }

let servers = 3

(* abd-kk: Msg.Kk_mp.run_kk, seeded random delivery, no crashes.  Set-up
   is timed as a run stopped before its first delivery: servers, clients
   and their initial FREE trees. *)
let abd_kk ~n ~m ~beta ~traced ~index:_ rng =
  let t0 = now_ns () in
  ignore
    (Msg.Kk_mp.run_kk ~max_deliveries:0 ~servers ~n ~m ~beta
       ~rng:(Prng.copy rng) ());
  let setup_ns = now_ns () - t0 in
  let floor = n - (beta + m - 2) in
  let verdict ~dos ~stuck ~deliveries s =
    {
      s with
      jobs = Core.Spec.do_count dos;
      ops = deliveries;
      failure =
        first_failure
          [
            (if stuck = [] then None
             else Some (Printf.sprintf "%d clients stuck" (List.length stuck)));
            check_dos ~floor dos;
          ];
    }
  in
  if not traced then begin
    let o, s =
      timed ~setup_ns (fun () -> Msg.Kk_mp.run_kk ~servers ~n ~m ~beta ~rng ())
    in
    verdict ~dos:o.dos ~stuck:o.stuck ~deliveries:o.deliveries s
  end
  else begin
    let delivered = ref 0 in
    let deliver net rng =
      let depth = min (Msg.Net.pending net) (Array.length counts.pending - 1) in
      counts.pending.(depth) <- counts.pending.(depth) + 1;
      incr delivered;
      Tracer.enter tr l_deliver;
      let r = Msg.Net.deliver_random net rng in
      Tracer.exit tr;
      r
    in
    let body pid ~read ~write ~do_job =
      let read r =
        let d0 = !delivered in
        let v = read r in
        counts.abd_reads <- counts.abd_reads + 1;
        counts.read_lat <- counts.read_lat + (!delivered - d0);
        v
      in
      let write r v =
        let d0 = !delivered in
        write r v;
        counts.abd_writes <- counts.abd_writes + 1;
        counts.write_lat <- counts.write_lat + (!delivered - d0)
      in
      Msg.Kk_mp.kk_body ~n ~m ~beta ~pid ~read ~write ~do_job
    in
    let o, s =
      timed ~setup_ns (fun () ->
          Tracer.span tr l_abd (fun () ->
              Msg.Abd.run ~deliver ~servers
                ~registers:(Msg.Kk_mp.register_count ~n ~m)
                ~rng
                ~client_bodies:(Array.init m (fun i -> body (i + 1)))
                ()))
    in
    counts.deliveries <- counts.deliveries + o.deliveries;
    verdict ~dos:o.dos ~stuck:o.stuck ~deliveries:o.deliveries s
  end

(* mc-kk: Multicore.Runner.run_kk on [m] domains.  Set-up is timed as a
   run whose processes stop before their first job: atomic memory,
   ledgers, the domains and their initial FREE trees.  That run's own
   [wall_seconds] covers only spawning the domains, building each one's
   FREE tree and joining them, and is what mc.spawn_join_ms reports. *)
let mc_kk ~n ~m ~beta ~traced ~index _rng =
  let t0 = now_ns () in
  let empty = Multicore.Runner.run_kk ~n ~m ~beta ~job_budget:(fun ~pid:_ -> 0) () in
  let setup_ns = now_ns () - t0 in
  let call () = Multicore.Runner.run_kk ~n ~m ~beta () in
  let o, s =
    timed ~setup_ns (fun () -> if traced then Tracer.span tr l_mc call else call ())
  in
  if traced then begin
    counts.spawn_join_s <- empty.wall_seconds :: counts.spawn_join_s;
    let per = Array.sub o.per_process 1 m in
    let mean = float_of_int (Array.fold_left ( + ) 0 per) /. float_of_int m in
    counts.imbalance <-
      (float_of_int (Array.fold_left max 0 per) /. mean) :: counts.imbalance;
    counts.wall2 <- o.wall_seconds :: counts.wall2;
    (* the 1-domain baseline of mc.speedup_vs_1, every other instance *)
    if index mod 2 = 0 then begin
      let o1 = Multicore.Runner.run_kk ~n ~m:1 ~beta:1 () in
      counts.wall1 <- o1.wall_seconds :: counts.wall1
    end
  end;
  {
    s with
    jobs = Core.Spec.do_count o.dos;
    ops = Shm.Metrics.total_actions o.metrics;
    failure = check_dos ~floor:(n - (beta + m - 2)) o.dos;
  }

let domains = min 2 (Domain.recommended_domain_count ())

let workload ?(domains = 1) name ~n ~m ~beta shape instance =
  { name; n; m; beta; domains; shape; instance = instance ~n ~m ~beta }

let workloads =
  [
    workload "sim-kk" ~n:16384 ~m:8 ~beta:8
      "Core.Kk on Shm.Executor, random schedule, no faults, Silent trace, null probe"
      sim_kk;
    workload "chaos-kk" ~n:256 ~m:4 ~beta:4
      "Fault.Plan plans (crashes, stalls, restarts every 4th) under fail-fast monitor and journal probe"
      chaos_kk;
    workload "abd-kk" ~n:4096 ~m:4 ~beta:4
      "Msg.Kk_mp.run_kk, 3 ABD servers, random delivery, no crashes" abd_kk;
    workload "mc-kk" ~domains ~n:65536 ~m:domains ~beta:domains
      "Multicore.Runner.run_kk, one domain per process" mc_kk;
  ]

(* ---- phases ---- *)

type phase = {
  samples : sample list;  (** completed instances, oldest first *)
  reference : float list;  (** reference-loop seconds, sampled through the phase *)
  attempted : int;
  failed : int;
  failures : string list;
}

(* Run instances until [seconds] have passed, after one warm-up instance
   whose timings are not kept, sampling the reference loop before the
   first instance and after every [ref_every_s] of timed work.  Every
   instance, the warm-up too, is checked and counts as attempted. *)
let run_phase w ~traced ~seconds rng =
  let index = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let failures = ref [] and samples = ref [] in
  let reference = ref [] and since_ref = ref infinity in
  let one ~count =
    if !since_ref >= ref_every_s then begin
      reference := reference_s ~copies:w.domains :: !reference;
      since_ref := 0.
    end;
    let rng_i = Prng.split rng in
    if traced then (Tracer.begin_instance tr; Tracer.enter tr l_instance);
    let result =
      try w.instance ~traced ~index:!index rng_i
      with e ->
        if traced then Tracer.unwind tr ~depth:1;
        {
          setup_s = 0.; run_s = 0.; words = 0.; minor_gcs = 0; major_gcs = 0;
          jobs = 0; ops = 0; restarts = 0;
          failure = Some ("raised " ^ Printexc.to_string e);
        }
    in
    if traced then (Tracer.exit tr; Tracer.end_instance tr);
    since_ref := !since_ref +. result.setup_s +. result.run_s;
    incr index;
    incr attempted;
    match result.failure with
    | Some f ->
        incr failed;
        failures := f :: !failures
    | None -> if count then samples := result :: !samples
  in
  one ~count:false;
  reference := [];
  since_ref := infinity;
  if traced then begin
    Tracer.reset tr;
    reset_counts ()
  end;
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline do
    one ~count:true
  done;
  {
    samples = List.rev !samples;
    reference = List.rev !reference;
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
  }

(* ---- reporting ---- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
(* Σ Do(α) over Σ timed seconds, in refs: a time-weighted mean. *)
let jobs_per_ref p =
  Measure.jobs_per_ref ~reference:p.reference
    ~jobs:(isum (fun s -> s.jobs) p.samples)
    ~seconds:(sum (fun s -> s.run_s) p.samples)

let pp_summary ~name ~unit ~scale xs =
  let s = Measure.summarize (List.map (fun x -> x *. scale) xs) in
  let tail =
    match s.tail with
    | Some (p, v) when p > 50. -> Printf.sprintf "  p%g=%.6g" p v
    | Some _ -> "  (only the median has 10 samples beyond it)"
    | None -> "  (not even the median has 10 samples beyond it)"
  in
  let lo = List.fold_left min infinity xs *. scale
  and hi = List.fold_left max neg_infinity xs *. scale in
  Printf.printf "  %-20s p50=%.6g%s %s  [%d samples, min %.6g, max %.6g]\n" name
    s.p50 tail unit s.count lo hi

(* Host noise: a fixed ALU loop timed several times (ms). *)
let alu_loop_ms () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := (!acc * 31) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  secs (now_ns () - t0) *. 1e3

let metric value unit =
  Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ]

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (List.map (fun (k, v, u) -> (k, metric v u)) metrics));
          ]))

let report_failures p =
  List.iteri
    (fun i f -> if i < 5 then Printf.printf "  FAILED: %s\n" f)
    p.failures

let end_to_end w ~seconds rng =
  let alu = List.init 5 (fun _ -> alu_loop_ms ()) in
  let p = run_phase w ~traced:false ~seconds rng in
  report_failures p;
  let ss = p.samples in
  if ss = [] then begin
    Printf.printf "no instance passed its checks\n";
    exit 1
  end;
  let jobs = isum (fun s -> s.jobs) ss and ops = isum (fun s -> s.ops) ss in
  let words = sum (fun s -> s.words) ss in
  let budget, lost, allowed =
    Measure.budget_used ~n:w.n ~m:w.m ~beta:w.beta
      (List.map (fun s -> (s.jobs, s.restarts)) ss)
  in
  let failed_frac = Measure.failed_frac ~failed:p.failed ~attempted:p.attempted in
  let setup_measured = median (List.map (fun s -> s.setup_s) ss) in
  let setup = Measure.in_refs ~reference:p.reference setup_measured *. nominal_ref_s in
  let run_p50_s = median (List.map (fun s -> s.run_s) ss) in
  let run_p50_ref = Measure.in_refs ~reference:p.reference run_p50_s in
  let timed_s = sum (fun s -> s.run_s) ss in
  let jpr = jobs_per_ref p in
  let ref_ms = Measure.ref_unit p.reference *. 1e3 in
  let rss = peak_rss_mb () in
  Printf.printf "timings\n";
  pp_summary ~name:"setup" ~unit:"s" ~scale:1. (List.map (fun s -> s.setup_s) ss);
  pp_summary ~name:"run" ~unit:"ms" ~scale:1e3 (List.map (fun s -> s.run_s) ss);
  pp_summary ~name:"jobs_per_s" ~unit:"jobs/s" ~scale:1.
    (List.map (fun s -> float_of_int s.jobs /. s.run_s) ss);
  pp_summary ~name:"reference" ~unit:"ms" ~scale:1e3 p.reference;
  Printf.printf "end-to-end metrics (1 ref = %.6g ms, the reference loop's median)\n" ref_ms;
  Printf.printf "  setup_s             %.6g s  (%.6g ref at 1 ref = %g s; median of %d set-ups, %.6g s)\n"
    setup (Measure.in_refs ~reference:p.reference setup_measured) nominal_ref_s
    (List.length ss) setup_measured;
  Printf.printf "  jobs_per_ref        %.6g jobs/ref  (%d jobs in %.6g ref = %.3f timed s; %.6g jobs/s)\n"
    jpr jobs (Measure.in_refs ~reference:p.reference timed_s) timed_s
    (float_of_int jobs /. timed_s);
  Printf.printf "  run_p50_ref         %.6g ref  (%.6g ms)\n" run_p50_ref (run_p50_s *. 1e3);
  Printf.printf "  alloc_words_per_job %.6g words/job  (%.0f words / %d jobs)\n"
    (words /. float_of_int jobs) words jobs;
  Printf.printf "  ops_per_job         %.6g ops/job  (%d ops / %d jobs)\n"
    (float_of_int ops /. float_of_int jobs) ops jobs;
  Printf.printf "  budget_used         %.6g  (%d lost / %d allowed, %d restarts)\n"
    budget lost allowed (isum (fun s -> s.restarts) ss);
  Printf.printf "  peak_rss_mb         %.6g MB\n" rss;
  Printf.printf "  failed_frac         %.6g  (%d failed / %d attempted)\n" failed_frac
    p.failed p.attempted;
  let alu_p50 = median alu in
  Printf.printf "host alu_loop_ms p50=%.6g (5 loops)\n" alu_p50;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("detail", Obs.Json.String w.name);
            ("alu_loop_ms", Obs.Json.Float alu_p50);
            ("reference_ms", Obs.Json.Float ref_ms);
            ("jobs_per_s", Obs.Json.Float (float_of_int jobs /. timed_s));
            ("run_p50_ms", Obs.Json.Float (run_p50_s *. 1e3));
            ("setup_measured_s", Obs.Json.Float setup_measured);
            ("failed_frac", Obs.Json.Float failed_frac);
          ]));
  print_result ~correct:(p.failed = 0) ~attempted:p.attempted ~failed:p.failed
    [
      ("setup_s", setup, "s");
      ("jobs_per_ref", jpr, "jobs/ref");
      ("run_p50_ref", run_p50_ref, "ref");
      ("alloc_words_per_job", words /. float_of_int jobs, "words/job");
      ("ops_per_job", float_of_int ops /. float_of_int jobs, "ops/job");
      ("budget_used", budget, "ratio");
      ("peak_rss_mb", rss, "MB");
    ];
  if p.failed > 0 then exit 1

let per_layer w ~seconds rng =
  let untraced = run_phase w ~traced:false ~seconds:(seconds /. 2.) rng in
  let gc_jobs = isum (fun s -> s.jobs) untraced.samples in
  let minor = isum (fun s -> s.minor_gcs) untraced.samples in
  let major = isum (fun s -> s.major_gcs) untraced.samples in
  let traced = run_phase w ~traced:true ~seconds:(seconds /. 2.) rng in
  report_failures untraced;
  report_failures traced;
  let attempted = untraced.attempted + traced.attempted in
  let failed = untraced.failed + traced.failed in
  if untraced.samples = [] || traced.samples = [] then begin
    Printf.printf "no instance passed its checks\n";
    exit 1
  end;
  let c = counts in
  let jobs = float_of_int (isum (fun s -> s.jobs) traced.samples) in
  let fi = float_of_int in
  let cnt l = fi (Tracer.count tr l) in
  let steps = fi c.steps in
  let untraced_jpr = jobs_per_ref untraced and traced_jpr = jobs_per_ref traced in
  let diff, frac = Measure.overhead ~untraced:untraced_jpr ~traced:traced_jpr in
  let median_or_zero = function [] -> 0. | l -> median l in
  (* (name, numerator, denominator, unit); a ratio with a zero base is
     reported as 0 — the layer did no work on this workload *)
  let ratios =
    [
      (* the executor's own time and allocation: everything inside
         [Executor.run] but outside the step closures, so the scheduler's
         choice and the probe count as executor work *)
      ("executor.self_ns_per_step", Tracer.total_ns tr l_exec -. Tracer.total_ns tr l_step, steps, "ns/step");
      ("executor.alloc_words_per_step", Tracer.words tr l_exec -. Tracer.words tr l_step, steps, "words/step");
      ("executor.steps_per_job", steps, jobs, "steps/job");
      ("schedule.choose_ns", Tracer.total_ns tr l_choose, cnt l_choose, "ns/call");
      ("kk.step_self_ns", Tracer.self_ns tr l_step, cnt l_step, "ns/step");
      ("kk.check_success_ratio", jobs, fi c.checks, "ratio");
      ("ostree.calls_per_job", cnt l_ostree, jobs, "calls/job");
      ("ostree.ns_per_call", Tracer.total_ns tr l_ostree, cnt l_ostree, "ns/call");
      ("ostree.share", Tracer.total_ns tr l_ostree, Tracer.total_ns tr l_exec, "ratio");
      ("memory.reads_per_job", fi c.reads, jobs, "reads/job");
      ("memory.writes_per_job", fi c.writes, jobs, "writes/job");
      ("net.deliver_ns", Tracer.total_ns tr l_deliver, cnt l_deliver, "ns/call");
      ("net.deliveries_per_job", fi c.deliveries, jobs, "deliveries/job");
      ("net.pending_p50", Measure.histogram_median c.pending, 1., "messages");
      ("abd.read_latency_deliveries", fi c.read_lat, fi c.abd_reads, "deliveries");
      ("abd.write_latency_deliveries", fi c.write_lat, fi c.abd_writes, "deliveries");
      ("abd.reads_per_job", fi c.abd_reads, jobs, "reads/job");
      ("abd.writes_per_job", fi c.abd_writes, jobs, "writes/job");
      ("mc.spawn_join_ms", median_or_zero c.spawn_join_s *. 1e3, 1., "ms");
      ("mc.domain_imbalance", median_or_zero c.imbalance, 1., "ratio");
      ("mc.speedup_vs_1", median_or_zero c.wall1, median_or_zero c.wall2, "ratio");
      ("plan.gen_us", Tracer.total_ns tr l_plan /. 1e3, cnt l_plan, "us");
      ("chaos.run_plan_ms", Tracer.total_ns tr l_run_plan /. 1e6, cnt l_run_plan, "ms");
      ("oracle.check_us_per_plan", Tracer.total_ns tr l_oracle /. 1e3, cnt l_oracle, "us");
      ("monitor.observe_ns_per_event", Tracer.total_ns tr l_monitor, fi c.events, "ns/event");
      ("journal.probe_ns_per_event", Tracer.total_ns tr l_journal, cnt l_journal, "ns/event");
      ("journal.bytes_per_event", fi c.journal_bytes, fi c.journal_records, "bytes/event");
      ("trace.events_per_step", fi c.events, steps, "events/step");
      ("gc.minor_per_kjob", fi minor, fi gc_jobs /. 1e3, "count/kjob");
      ("gc.major_per_kjob", fi major, fi gc_jobs /. 1e3, "count/kjob");
      ("trace.overhead_jobs_per_ref", diff, 1., "jobs/ref");
      ("trace.overhead_frac", frac, 1., "ratio");
    ]
  in
  let metrics = List.map (fun (k, num, den, u) -> (k, Measure.ratio num den, u)) ratios in
  Printf.printf "per-layer metrics (traced phase: %d instances, %.0f jobs, %d steps)\n"
    (List.length traced.samples) jobs c.steps;
  Array.iteri
    (fun l name ->
      if Tracer.count tr l > 0 then
        Printf.printf "  span %-16s calls=%d total=%.6gs self=%.6gs self_words=%.0f\n"
          name (Tracer.count tr l) (Tracer.total_ns tr l /. 1e9) (Tracer.self_ns tr l /. 1e9)
          (Tracer.self_words tr l))
    layer_names;
  List.iter
    (fun (k, num, den, u) ->
      if den = 1. then Printf.printf "  %-30s %.6g %s\n" k num u
      else Printf.printf "  %-30s %.6g %s  (%.6g / %.6g)\n" k (Measure.ratio num den) u num den)
    ratios;
  Printf.printf "tracing overhead: untraced %.6g jobs/ref, traced %.6g jobs/ref, difference %.6g (%.3g of untraced)\n"
    untraced_jpr traced_jpr diff frac;
  let dir = ".bench_build" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "perfbench-trace-%s.json" w.name) in
  Obs.Chrome_trace.write_file ~run_name:w.name ~extra:(Tracer.chrome_events tr) ~m:0 ~path
    (Shm.Trace.create `Silent);
  Printf.printf "spans of the first instances written to %s\n" path;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload (sim-kk|chaos-kk|abd-kk|mc-kk) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:0. (float_of_string_opt v); parse rest
    | "--trace" :: v :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  Printf.printf "workload %s  n=%d m=%d beta=%d  %s\nseed %d  seconds %g  trace %d  domains available %d\n%!"
    w.name w.n w.m w.beta w.shape seed !seconds !trace (Domain.recommended_domain_count ());
  let rng = Prng.of_int seed in
  if !trace = 0 then end_to_end w ~seconds:!seconds rng
  else per_layer w ~seconds:!seconds rng
