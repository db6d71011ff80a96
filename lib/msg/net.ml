type 'a t = {
  node_count : int;
  handlers : (src:int -> 'a -> unit) option array; (* 1-based *)
  live : bool array;
  (* pending messages: growable parallel arrays with swap-removal, so
     the adversary can pick any pending message in O(1) and a send
     allocates nothing here.  [bodies] is created from the first body
     enqueued (an ['a array] needs an element to start from). *)
  mutable srcs : int array;
  mutable dsts : int array;
  mutable bodies : 'a array;
  mutable len : int;
  mutable delivered : int;
  mutable sent : int;
}

let create ~nodes () =
  if nodes < 1 then invalid_arg "Net.create: nodes must be >= 1";
  {
    node_count = nodes;
    handlers = Array.make (nodes + 1) None;
    live = Array.make (nodes + 1) true;
    srcs = Array.make 64 0;
    dsts = Array.make 64 0;
    bodies = [||];
    len = 0;
    delivered = 0;
    sent = 0;
  }

let nodes t = t.node_count

let check t node =
  if node < 1 || node > t.node_count then invalid_arg "Net: node out of range"

let set_handler t ~node f =
  check t node;
  t.handlers.(node) <- Some f

let sent_count t = t.sent

let grow t =
  let cap = 2 * Array.length t.srcs in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.srcs <- widen t.srcs 0;
  t.dsts <- widen t.dsts 0;
  t.bodies <- widen t.bodies t.bodies.(0)

let enqueue t ~src ~dst body =
  if Array.length t.bodies = 0 then
    t.bodies <- Array.make (Array.length t.srcs) body
  else if t.len = Array.length t.srcs then grow t;
  let i = t.len in
  t.srcs.(i) <- src;
  t.dsts.(i) <- dst;
  t.bodies.(i) <- body;
  t.len <- i + 1

let send t ~src ~dst body =
  check t src;
  check t dst;
  if t.live.(src) then begin
    t.sent <- t.sent + 1;
    enqueue t ~src ~dst body
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
  t.srcs.(i) <- t.srcs.(last);
  t.dsts.(i) <- t.dsts.(last);
  t.bodies.(i) <- t.bodies.(last);
  t.len <- last

(* Deliver slot [i]: it is removed before the handler runs, so the
   handler may send freely. *)
let dispatch t i =
  let src = t.srcs.(i) and dst = t.dsts.(i) in
  let body = t.bodies.(i) in
  remove t i;
  t.delivered <- t.delivered + 1;
  if t.live.(dst) then
    match t.handlers.(dst) with
    | Some f -> f ~src body
    | None -> invalid_arg "Net: delivery to node without handler"

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
    (* re-send bypassing the liveness check on [src]: the copy is
       already in the channel even if the sender died meanwhile *)
    enqueue t ~src:t.srcs.(i) ~dst:t.dsts.(i) t.bodies.(i);
    true
  end

let drop_random t rng =
  if t.len = 0 then false
  else begin
    remove t (Util.Prng.int rng t.len);
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
