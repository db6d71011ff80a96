(* Coverage-guided fuzzing engine.

   Generic over the input type so the plan-specific half (mutation
   operators, chaos execution, JSON persistence) can live in
   Fault.Fuzz without creating a lib/fault <-> lib/analysis cycle.
   The loop is the classic AFL shape: pick a corpus parent, mutate,
   execute, keep iff the run touched a coverage fingerprint the
   bounded seen table had not recorded.  Keeping the pinned form
   (recorded schedule, concrete faults) makes every corpus entry
   byte-deterministically replayable.

   Determinism: one SplitMix64 stream drives parent selection and is
   split per mutation, so equal (seed, budget, seeds) means equal
   corpora.  Wall clock is consulted only to honour max_seconds. *)

type 'a exec = { states : int list; violating : bool; pinned : 'a }
type 'a harness = { mutate : Util.Prng.t -> 'a -> 'a; execute : 'a -> 'a exec }

type stats = {
  execs : int;
  kept : int;
  corpus : int;
  distinct_states : int;
  lookups : int;
  violations : int;
  first_violation_exec : int option;
  novelty : (int * int) list;
}

let hit_rate s =
  if s.lookups = 0 then 0.
  else float_of_int (s.lookups - s.distinct_states) /. float_of_int s.lookups

type 'a outcome = { stats : stats; final_corpus : 'a list; failures : 'a list }

(* Recent keepers get half the parent-selection mass: novelty clusters,
   so the frontier of the state space is usually reachable by small
   mutations of whatever was kept last. *)
let recent_window = 8

let run ?table_bits ?(stop_on_violation = false)
    ?max_seconds ?on_keep ?on_exec ~seed ~budget ~harness ~seeds () =
  if seeds = [] then invalid_arg "Fuzz.run: empty seed list";
  if budget < 0 then invalid_arg "Fuzz.run: negative budget";
  let table = Fingerprint.create ?bits:table_bits () in
  let rng = Util.Prng.of_int seed in
  let corpus = ref [] (* reversed: most recent first *)
  and corpus_n = ref 0
  and failures = ref [] (* reversed *)
  and execs = ref 0
  and kept = ref 0
  and distinct = ref 0
  and lookups = ref 0
  and violations = ref 0
  and first_violation = ref None
  and novelty = ref [] (* reversed *) in
  let sample_every = max 1 (budget / 256) in
  let deadline =
    match max_seconds with None -> None | Some s -> Some (Sys.time () +. s)
  in
  let snapshot () =
    {
      execs = !execs;
      kept = !kept;
      corpus = !corpus_n;
      distinct_states = !distinct;
      lookups = !lookups;
      violations = !violations;
      first_violation_exec = !first_violation;
      novelty = List.rev !novelty;
    }
  in
  let keep input =
    corpus := input :: !corpus;
    incr corpus_n;
    incr kept;
    match on_keep with None -> () | Some f -> f input
  in
  (* Feed one execution's observations into the table and counters.
     Returns whether any state was novel. *)
  let observe (ex : 'a exec) =
    incr execs;
    let novel = ref false in
    List.iter
      (fun fp ->
        incr lookups;
        if not (Fingerprint.seen table fp) then begin
          incr distinct;
          novel := true
        end)
      ex.states;
    if ex.violating then begin
      incr violations;
      if !first_violation = None then first_violation := Some !execs;
      failures := ex.pinned :: !failures
    end;
    if !execs mod sample_every = 0 then
      novelty := (!execs, !distinct) :: !novelty;
    (match on_exec with None -> () | Some f -> f (snapshot ()));
    !novel
  in
  let stop () =
    (stop_on_violation && !violations > 0)
    || match deadline with None -> false | Some d -> Sys.time () >= d
  in
  (* Seed phase: every seed is executed once (it counts against the
     budget — a fair comparison with blind sampling must charge for
     it) and enters the corpus unconditionally. *)
  List.iter
    (fun s ->
      if !execs < budget && not (stop ()) then begin
        let ex = harness.execute s in
        ignore (observe ex);
        keep ex.pinned
      end
      else keep s)
    seeds;
  (* Mutation loop. *)
  let corpus_arr () = Array.of_list !corpus in
  while !execs < budget && not (stop ()) do
    let arr = corpus_arr () in
    let parent =
      let n = Array.length arr in
      if n = 0 then assert false
      else if Util.Prng.bool rng then arr.(Util.Prng.int rng (min recent_window n))
      else arr.(Util.Prng.int rng n)
    in
    let child = harness.mutate (Util.Prng.split rng) parent in
    let ex = harness.execute child in
    if observe ex then keep ex.pinned
  done;
  {
    stats = snapshot ();
    final_corpus = List.rev !corpus;
    failures = List.rev !failures;
  }
