type outcome = {
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  crashed_clients : int list;
  deliveries : int;
}

type body =
  read:(int -> int) ->
  write:(int -> int -> unit) ->
  do_job:(int -> unit) ->
  unit

(* Tags are (ts, wid) pairs ordered lexicographically, so multi-writer
   registers are supported: an MW write first queries a majority for
   the highest timestamp, then writes with ts+1 and its own writer id
   as tie-break.  Single-writer registers skip the query phase (the
   writer's own counter is already the maximum).  A tag is packed in
   one int, [ts lsl wid_bits lor wid], so the lexicographic order is
   the integer order. *)
let wid_bits = 20

let make_tag ~ts ~wid = (ts lsl wid_bits) lor wid

let ts_of tag = tag asr wid_bits

type message =
  | Read_req of { op : int; reg : int }
  | Read_reply of { op : int; tag : int; v : int }
  | Write_req of { op : int; reg : int; tag : int; v : int }
  | Write_ack of { op : int }

type _ Effect.t +=
  | Read_reg : int -> int Effect.t
  | Write_reg : int * int -> unit Effect.t

exception Client_crashed

(* The phase of a client's in-flight operation.  [Query] is a read's
   first phase; [Write_back] its second (completing resumes the read
   continuation with the best value); [Write_query] an MW write's
   first (find the highest timestamp); [Write_wait] every write's
   last.  [Idle] only while the client runs or after it finished. *)
type phase = Idle | Query | Write_back | Write_query | Write_wait

(* One client and the state of its one in-flight operation, allocated
   once: a phase start resets the fields in place.  Quorums count
   DISTINCT responding servers ([seen], [count]), never raw messages —
   the channel may duplicate (Net.duplicate_random), and a duplicated
   reply must not fake a majority. *)
type client = {
  pid : int;
  node : int;
  mutable op_seq : int; (* id carried by the current phase's messages *)
  mutable phase : phase;
  mutable reg : int;
  mutable wv : int; (* an MW write's value, held across its query *)
  mutable best_tag : int;
  mutable best_v : int;
  mutable agree : bool; (* every reply so far carried the same tag *)
  seen : bool array; (* 1-based by server *)
  mutable count : int;
  mutable read_k : (int, unit) Effect.Deep.continuation option;
  mutable write_k : (unit, unit) Effect.Deep.continuation option;
  mutable finished : bool;
  mutable crashed : bool;
}

let run ?(crash_plan = []) ?max_deliveries ?(multi_writer = fun _ -> false)
    ?(duplicate_prob = 0.) ?(deliver = Net.deliver_random) ~servers ~registers
    ~rng ~client_bodies () =
  if servers < 1 then invalid_arg "Abd.run: servers must be >= 1";
  if registers < 1 then invalid_arg "Abd.run: registers must be >= 1";
  let m = Array.length client_bodies in
  if m < 1 then invalid_arg "Abd.run: no clients";
  if m >= 1 lsl wid_bits then invalid_arg "Abd.run: too many clients";
  let quorum = (servers / 2) + 1 in
  let net : message Net.t = Net.create ~nodes:(servers + m) () in
  (* ---- servers ---- *)
  for srv = 1 to servers do
    let tags = Array.make (registers + 1) 0 in
    let v = Array.make (registers + 1) 0 in
    Net.set_handler net ~node:srv (fun ~src msg ->
        match msg with
        | Read_req { op; reg } ->
            Net.send net ~src:srv ~dst:src
              (Read_reply { op; tag = tags.(reg); v = v.(reg) })
        | Write_req { op; reg; tag = wtag; v = wv } ->
            if wtag > tags.(reg) then begin
              tags.(reg) <- wtag;
              v.(reg) <- wv
            end;
            Net.send net ~src:srv ~dst:src (Write_ack { op })
        | Read_reply _ | Write_ack _ -> ())
  done;
  (* ---- clients ---- *)
  (* a single-writer register's writer and its last write timestamp *)
  let writer_of = Array.make (registers + 1) 0 in
  let wts = Array.make (registers + 1) 0 in
  let clients =
    Array.init m (fun i ->
        {
          pid = i + 1;
          node = servers + i + 1;
          op_seq = 0;
          phase = Idle;
          reg = 0;
          wv = 0;
          best_tag = 0;
          best_v = 0;
          agree = true;
          seen = Array.make (servers + 1) false;
          count = 0;
          read_k = None;
          write_k = None;
          finished = false;
          crashed = false;
        })
  in
  (* clients that finished or crashed; the run ends when all have *)
  let settled = ref 0 in
  let broadcast c msg =
    for srv = 1 to servers do
      Net.send net ~src:c.node ~dst:srv msg
    done
  in
  let start_phase c phase =
    c.op_seq <- c.op_seq + 1;
    c.phase <- phase;
    Array.fill c.seen 0 (servers + 1) false;
    c.count <- 0
  in
  (* A phase counts each server's first reply only: [false] for a
     repeat (a duplicated message, or a reply to a duplicated request,
     which may carry a newer tag than the first). *)
  let first_reply c srv =
    if c.seen.(srv) then false
    else begin
      c.seen.(srv) <- true;
      c.count <- c.count + 1;
      true
    end
  in
  let check_reg reg =
    if reg < 1 || reg > registers then invalid_arg "Abd: register out of range"
  in
  let begin_read c reg k =
    check_reg reg;
    start_phase c Query;
    c.reg <- reg;
    c.best_tag <- -1;
    c.best_v <- 0;
    c.agree <- true;
    c.read_k <- Some k;
    broadcast c (Read_req { op = c.op_seq; reg })
  in
  let begin_write c reg v k =
    check_reg reg;
    c.write_k <- Some k;
    if multi_writer reg then begin
      (* MW: query the current maximum timestamp first *)
      start_phase c Write_query;
      c.reg <- reg;
      c.wv <- v;
      c.best_tag <- 0;
      broadcast c (Read_req { op = c.op_seq; reg })
    end
    else begin
      if writer_of.(reg) <> 0 && writer_of.(reg) <> c.pid then
        invalid_arg "Abd: single-writer discipline violated";
      writer_of.(reg) <- c.pid;
      wts.(reg) <- wts.(reg) + 1;
      start_phase c Write_wait;
      broadcast c
        (Write_req
           { op = c.op_seq; reg; tag = make_tag ~ts:wts.(reg) ~wid:c.pid; v })
    end
  in
  (* resuming a continuation runs the client until its next effect (or
     completion), all within the current delivery *)
  let finish_read c =
    match c.read_k with
    | Some k ->
        c.phase <- Idle;
        c.read_k <- None;
        Effect.Deep.continue k c.best_v
    | None -> assert false
  in
  let finish_write c =
    match c.write_k with
    | Some k ->
        c.phase <- Idle;
        c.write_k <- None;
        Effect.Deep.continue k ()
    | None -> assert false
  in
  let on_client_message c ~src msg =
    match msg with
    | Read_reply { op; tag; v } when op = c.op_seq && first_reply c src -> (
        match c.phase with
        | Query ->
            if c.count > 1 && tag <> c.best_tag then c.agree <- false;
            if tag > c.best_tag then begin
              c.best_tag <- tag;
              c.best_v <- v
            end;
            if c.count = quorum then
              (* A quorum that agrees on the tag already stores the value
                 at a majority — what the write-back would establish — so
                 the read returns after one round trip.  Otherwise write
                 the freshest value back before returning. *)
              if c.agree then finish_read c
              else begin
                start_phase c Write_back;
                broadcast c
                  (Write_req
                     {
                       op = c.op_seq;
                       reg = c.reg;
                       tag = c.best_tag;
                       v = c.best_v;
                     })
              end
        | Write_query ->
            if tag > c.best_tag then c.best_tag <- tag;
            if c.count = quorum then begin
              (* phase 2: write with a strictly larger timestamp *)
              start_phase c Write_wait;
              broadcast c
                (Write_req
                   {
                     op = c.op_seq;
                     reg = c.reg;
                     tag = make_tag ~ts:(ts_of c.best_tag + 1) ~wid:c.pid;
                     v = c.wv;
                   })
            end
        | Idle | Write_back | Write_wait -> ())
    | Write_ack { op } when op = c.op_seq && first_reply c src -> (
        if c.count = quorum then
          match c.phase with
          | Write_back -> finish_read c
          | Write_wait -> finish_write c
          | Idle | Query | Write_query -> ())
    | _ -> () (* a repeat, or a stale reply from a superseded phase *)
  in
  let dos = ref [] in
  let start_client c body =
    Net.set_handler net ~node:c.node (fun ~src msg -> on_client_message c ~src msg);
    let read reg = Effect.perform (Read_reg reg) in
    let write reg v = Effect.perform (Write_reg (reg, v)) in
    let do_job j = dos := (c.pid, j) :: !dos in
    Effect.Deep.match_with
      (fun () -> body ~read ~write ~do_job)
      ()
      {
        retc =
          (fun () ->
            c.finished <- true;
            incr settled);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Read_reg reg ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    begin_read c reg k)
            | Write_reg (reg, v) ->
                Some (fun k -> begin_write c reg v k)
            | _ -> None);
      }
  in
  Array.iteri (fun i c -> start_client c client_bodies.(i)) clients;
  (* ---- the delivery loop: the adversary picks every delivery ---- *)
  let discontinue k =
    try Effect.Deep.discontinue k Client_crashed with Client_crashed -> ()
  in
  let crash_client c =
    if (not c.crashed) && not c.finished then begin
      c.crashed <- true;
      incr settled;
      Net.crash net c.node;
      c.phase <- Idle;
      Option.iter discontinue c.read_k;
      Option.iter discontinue c.write_k;
      c.read_k <- None;
      c.write_k <- None
    end
  in
  (* the crash plan, in order, consumed through a cursor *)
  let plan = Array.of_list (List.sort compare crash_plan) in
  let next_crash = ref 0 in
  let apply_due_crashes () =
    while
      !next_crash < Array.length plan
      && fst plan.(!next_crash) <= Net.delivered_count net
    do
      (match snd plan.(!next_crash) with
      | `Client pid -> if pid >= 1 && pid <= m then crash_client clients.(pid - 1)
      | `Server srv -> if srv >= 1 && srv <= servers then Net.crash net srv);
      incr next_crash
    done
  in
  let budget =
    match max_deliveries with Some b -> b | None -> 2_000_000
  in
  let running = ref true in
  while !running do
    apply_due_crashes ();
    if !settled = m then running := false
    else if Net.delivered_count net >= budget then running := false
    else begin
      (* channel misbehaviour: occasionally clone an in-flight message *)
      if duplicate_prob > 0. && Util.Prng.bernoulli rng duplicate_prob then
        ignore (Net.duplicate_random net rng);
      if not (deliver net rng) then running := false
    end
  done;
  let by pred = Array.to_list clients |> List.filter pred |> List.map (fun c -> c.pid) in
  {
    dos = List.rev !dos;
    completed = by (fun c -> c.finished);
    stuck = by (fun c -> (not c.finished) && not c.crashed);
    crashed_clients = by (fun c -> c.crashed);
    deliveries = Net.delivered_count net;
  }
