(* Per-register access statistics.  One [stats] per named cell;
   time-bucketed counts use the sketch's power-of-two bands, keyed by
   each band's first step, so long runs stay constant-space per cell. *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable accessors : int list; (* distinct pids, unsorted, small *)
  mutable contention : int;
  mutable last_pid : int; (* 0 = never accessed *)
  buckets : (int, int ref * int ref) Hashtbl.t; (* first step -> (reads, writes) *)
}

type t = {
  cells : (string, stats) Hashtbl.t;
  mutable total : int;
}

type cell = {
  name : string;
  reads : int;
  writes : int;
  accessors : int;
  contention : int;
  buckets : (int * int * int) list;
}

let create () = { cells = Hashtbl.create 64; total = 0 }

let stats_for t name =
  match Hashtbl.find_opt t.cells name with
  | Some s -> s
  | None ->
      let s =
        {
          reads = 0;
          writes = 0;
          accessors = [];
          contention = 0;
          last_pid = 0;
          buckets = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.cells name s;
      s

let bucket_counts (s : stats) step =
  let first = Sketch.band_start step in
  match Hashtbl.find_opt s.buckets first with
  | Some rw -> rw
  | None ->
      let rw = (ref 0, ref 0) in
      Hashtbl.add s.buckets first rw;
      rw

let touch t (s : stats) ~step ~p ~is_write =
  t.total <- t.total + 1;
  if not (List.mem p s.accessors) then s.accessors <- p :: s.accessors;
  (* contention: this access hit a register last touched by someone
     else — counts ownership bounces, the cache-line-ping-pong analogue
     of the shared-memory model *)
  if s.last_pid <> 0 && s.last_pid <> p then s.contention <- s.contention + 1;
  s.last_pid <- p;
  let r, w = bucket_counts s step in
  if is_write then begin
    s.writes <- s.writes + 1;
    incr w
  end
  else begin
    s.reads <- s.reads + 1;
    incr r
  end

let observe t ~step (e : Shm.Event.t) =
  match e with
  | Shm.Event.Read { p; cell; _ } ->
      touch t (stats_for t cell) ~step ~p ~is_write:false
  | Shm.Event.Write { p; cell; _ } ->
      touch t (stats_for t cell) ~step ~p ~is_write:true
  | _ -> ()

let of_trace trace =
  let t = create () in
  List.iter
    (fun { Shm.Trace.step; event } -> observe t ~step event)
    (Shm.Trace.entries trace);
  t

let cells t =
  Hashtbl.fold
    (fun name (s : stats) acc ->
      let buckets =
        Hashtbl.fold (fun b (r, w) acc -> (b, !r, !w) :: acc) s.buckets []
        |> List.sort compare
      in
      {
        name;
        reads = s.reads;
        writes = s.writes;
        accessors = List.length s.accessors;
        contention = s.contention;
        buckets;
      }
      :: acc)
    t.cells []
  |> List.sort (fun a b -> compare a.name b.name)

let total_accesses t = t.total
