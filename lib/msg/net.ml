(* Observer notifications: the provenance layer (Obs.Ledger / Span)
   wants to see channel-level causality — which send each delivery
   realized — without the protocol modules threading anything through.
   [id] is the per-network send sequence number; a duplicate keeps the
   original's id, so a delivery is attributable to its send. *)
type obs =
  | Sent of { id : int; src : int; dst : int }
  | Delivered of { id : int; src : int; dst : int; to_dead : bool }
  | Dropped of { id : int; src : int; dst : int }
  | Duplicated of { id : int; src : int; dst : int }

type 'a t = {
  node_count : int;
  handlers : (src:int -> 'a -> unit) option array; (* 1-based *)
  live : bool array;
  (* pending messages: growable parallel arrays with swap-removal, so
     the adversary can pick any pending message in O(1) and a send
     allocates nothing here.  [bodies] is created from the first body
     enqueued (an ['a array] needs an element to start from). *)
  mutable ids : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable bodies : 'a array;
  mutable len : int;
  mutable delivered : int;
  mutable seq : int; (* send sequence — envelope ids *)
  vclocks : bool;
  clocks : Util.Vclock.t array; (* 1-based; slot 0 unused *)
  msg_clocks : (int, Util.Vclock.t) Hashtbl.t; (* envelope id -> sender clock *)
  mutable observer : (obs -> unit) option;
  (* per-node durable journals (flight-recorder sinks): node i's sends
     and receives go only to journals.(i-1), so each journal is a
     single-writer causal stream that [Obs.Journal.merge] can stitch
     back together by the "vc" stamps *)
  mutable journals : Obs.Sink.t array option;
  jseq : int array; (* per-node journal ts when vclocks are off *)
}

let create ?(vclocks = false) ~nodes () =
  if nodes < 1 then invalid_arg "Net.create: nodes must be >= 1";
  {
    node_count = nodes;
    handlers = Array.make (nodes + 1) None;
    live = Array.make (nodes + 1) true;
    ids = Array.make 64 0;
    srcs = Array.make 64 0;
    dsts = Array.make 64 0;
    bodies = [||];
    len = 0;
    delivered = 0;
    seq = 0;
    vclocks;
    clocks =
      (if vclocks then
         Array.init (nodes + 1) (fun _ -> Util.Vclock.create ~m:nodes)
       else [||]);
    msg_clocks = Hashtbl.create (if vclocks then 64 else 1);
    observer = None;
    journals = None;
    jseq = Array.make (nodes + 1) 0;
  }

let nodes t = t.node_count

let check t node =
  if node < 1 || node > t.node_count then invalid_arg "Net: node out of range"

let set_handler t ~node f =
  check t node;
  t.handlers.(node) <- Some f

let set_observer t f = t.observer <- Some f

(* Callers test [t.observer] before building the notification, so a
   network without an observer allocates none. *)
let notify t ev = match t.observer with None -> () | Some f -> f ev

let set_journals t sinks =
  if Array.length sinks <> t.node_count then
    invalid_arg "Net.set_journals: need one sink per node";
  t.journals <- Some sinks

(* One record per node-local channel action.  With vclocks on, [ts] is
   the node's own clock component and the full clock rides along as
   the "vc" arg — exactly what the offline causal merge orders by;
   without clocks, a per-node sequence number keeps each journal
   internally ordered. *)
let journal_emit t ~node ~name ~peer ~id =
  match t.journals with
  | None -> ()
  | Some js ->
      let sink = js.(node - 1) in
      if not (Obs.Sink.is_null sink) then begin
        let ts, vc_args =
          if t.vclocks then
            let l = Util.Vclock.to_list t.clocks.(node) in
            ( Util.Vclock.get t.clocks.(node) ~p:node,
              [ ("vc", Obs.Json.List (List.map (fun x -> Obs.Json.Int x) l)) ]
            )
          else begin
            t.jseq.(node) <- t.jseq.(node) + 1;
            (t.jseq.(node), [])
          end
        in
        Obs.Sink.emit sink
          (Obs.Sink.record ~ts ~pid:node ~kind:Obs.Sink.Instant
             ~args:
               (("id", Obs.Json.Int id) :: ("peer", Obs.Json.Int peer)
              :: vc_args)
             name)
      end

let clock t node =
  check t node;
  if not t.vclocks then invalid_arg "Net.clock: created without ~vclocks:true";
  Util.Vclock.copy t.clocks.(node)

let sent_count t = t.seq

let grow t =
  let cap = 2 * Array.length t.ids in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.ids <- widen t.ids 0;
  t.srcs <- widen t.srcs 0;
  t.dsts <- widen t.dsts 0;
  t.bodies <- widen t.bodies t.bodies.(0)

let enqueue t ~id ~src ~dst body =
  if Array.length t.bodies = 0 then
    t.bodies <- Array.make (Array.length t.ids) body
  else if t.len = Array.length t.ids then grow t;
  let i = t.len in
  t.ids.(i) <- id;
  t.srcs.(i) <- src;
  t.dsts.(i) <- dst;
  t.bodies.(i) <- body;
  t.len <- i + 1

let send t ~src ~dst body =
  check t src;
  check t dst;
  if t.live.(src) then begin
    t.seq <- t.seq + 1;
    let id = t.seq in
    if t.vclocks then begin
      (* a send is an action of [src]: tick, then stamp the message
         with a snapshot so the receiver can join it at delivery *)
      Util.Vclock.tick t.clocks.(src) ~p:src;
      Hashtbl.replace t.msg_clocks id (Util.Vclock.copy t.clocks.(src))
    end;
    enqueue t ~id ~src ~dst body;
    if Option.is_some t.observer then notify t (Sent { id; src; dst });
    journal_emit t ~node:src ~name:"net.send" ~peer:dst ~id
  end

let crash t node =
  check t node;
  t.live.(node) <- false

let alive t node =
  check t node;
  t.live.(node)

let pending t = t.len

let delivered_count t = t.delivered

(* Swap-remove slot [i]: the last pending message moves into it. *)
let remove t i =
  let last = t.len - 1 in
  t.ids.(i) <- t.ids.(last);
  t.srcs.(i) <- t.srcs.(last);
  t.dsts.(i) <- t.dsts.(last);
  t.bodies.(i) <- t.bodies.(last);
  t.len <- last

(* Deliver slot [i]: it is removed before the handler runs, so the
   handler may send freely. *)
let dispatch t i =
  let id = t.ids.(i) and src = t.srcs.(i) and dst = t.dsts.(i) in
  let body = t.bodies.(i) in
  remove t i;
  t.delivered <- t.delivered + 1;
  let to_dead = not t.live.(dst) in
  if Option.is_some t.observer then notify t (Delivered { id; src; dst; to_dead });
  if not to_dead then begin
    if t.vclocks then begin
      (* a delivery is an action of [dst] causally after the send:
         tick, then join the sender's stamped snapshot *)
      Util.Vclock.tick t.clocks.(dst) ~p:dst;
      (match Hashtbl.find_opt t.msg_clocks id with
      | Some c -> Util.Vclock.join t.clocks.(dst) c
      | None -> ())
    end;
    (* after the join, so the journaled "vc" already covers the send *)
    journal_emit t ~node:dst ~name:"net.recv" ~peer:src ~id;
    match t.handlers.(dst) with
    | Some f -> f ~src body
    | None -> invalid_arg "Net: delivery to node without handler"
  end

let deliver_random t rng =
  if t.len = 0 then false
  else begin
    dispatch t (Util.Prng.int rng t.len);
    true
  end

let duplicate_random t rng =
  if t.len = 0 then false
  else begin
    let i = Util.Prng.int rng t.len in
    let id = t.ids.(i) and src = t.srcs.(i) and dst = t.dsts.(i) in
    (* re-send bypassing the liveness check on [src]: the copy is
       already in the channel even if the sender died meanwhile *)
    enqueue t ~id ~src ~dst t.bodies.(i);
    notify t (Duplicated { id; src; dst });
    true
  end

let drop_random t rng =
  if t.len = 0 then false
  else begin
    let i = Util.Prng.int rng t.len in
    let id = t.ids.(i) and src = t.srcs.(i) and dst = t.dsts.(i) in
    remove t i;
    notify t (Dropped { id; src; dst });
    true
  end

let deliver_random_where t rng pred =
  if t.len = 0 then false
  else begin
    (* uniformly among the eligible pending messages *)
    let count = ref 0 in
    for i = 0 to t.len - 1 do
      if pred ~src:t.srcs.(i) ~dst:t.dsts.(i) then incr count
    done;
    if !count = 0 then false
    else begin
      let k = ref (Util.Prng.int rng !count) in
      let chosen = ref (-1) in
      (try
         for i = 0 to t.len - 1 do
           if pred ~src:t.srcs.(i) ~dst:t.dsts.(i) then begin
             if !k = 0 then begin
               chosen := i;
               raise Exit
             end;
             decr k
           end
         done
       with Exit -> ());
      dispatch t !chosen;
      true
    end
  end

let deliver_oldest t =
  if t.len = 0 then false
  else begin
    (* slot 0 is not strictly the oldest after swap-removals; any fixed
       rule yields a deterministic run, and "slot 0" is one *)
    dispatch t 0;
    true
  end
