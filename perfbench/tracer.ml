(* Span recorder for the traced run.

   A span is opened before a call into a layer and closed after it
   returns; spans nest strictly because every layer under test runs on
   one domain.  Closing a span adds its duration to the parent's child
   time, so a layer's self time is its span minus the part its child
   spans cover — accumulated per layer while the run goes, so the hot
   path allocates nothing and per-layer totals need no span list.

   For the first [instances] instances, each instance's first [keep]
   spans (and every span opened at depth 0 or 1) are also kept, as name,
   start, end, span id and parent id, and flushed into an [Obs.Sink]
   when the instance ends; the benchmark writes them out with
   [Obs.Chrome_trace.write_file]. *)

type t = {
  now : unit -> int;  (** nanoseconds, monotonic *)
  names : string array;  (** layer id -> span name *)
  count : int array;
  total : int array;
  self : int array;
  words : float array;
  self_words : float array;
  mutable depth : int;
  st_layer : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  st_words : float array;
  st_child_words : float array;
  sink : Obs.Sink.t;
  mutable next_id : int;
  mutable instance : int;
  mutable first_id : int;
  mutable kept : int;
  k_layer : int array;
  k_id : int array;
  k_parent : int array;
  k_start : int array;
  k_stop : int array;
}

let max_depth = 64
let keep = 1000
let instances = 20

(* [Gc.minor_words] is called directly, not through a closure, so that
   its unboxed result is never boxed and the recorder itself allocates
   nothing inside the spans it measures. *)
let create ?(now = fun () -> Int64.to_int (Monotonic_clock.now ())) ~sink names =
  let layers = Array.length names in
  let keep_cap = keep + max_depth in
  {
    now;
    names;
    count = Array.make layers 0;
    total = Array.make layers 0;
    self = Array.make layers 0;
    words = Array.make layers 0.;
    self_words = Array.make layers 0.;
    depth = 0;
    st_layer = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_words = Array.make max_depth 0.;
    st_child_words = Array.make max_depth 0.;
    sink;
    next_id = 1;
    instance = 0;
    first_id = 1;
    kept = 0;
    k_layer = Array.make keep_cap 0;
    k_id = Array.make keep_cap 0;
    k_parent = Array.make keep_cap 0;
    k_start = Array.make keep_cap 0;
    k_stop = Array.make keep_cap 0;
  }

let enter t layer =
  let d = t.depth in
  if d >= max_depth then failwith "Tracer.enter: spans nested too deeply";
  t.depth <- d + 1;
  t.st_layer.(d) <- layer;
  t.st_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.st_child.(d) <- 0;
  t.st_child_words.(d) <- 0.;
  t.st_words.(d) <- Gc.minor_words ();
  t.st_start.(d) <- t.now ()

let exit t =
  let stop = t.now () in
  let w = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Tracer.exit: no open span";
  t.depth <- d;
  let layer = t.st_layer.(d) in
  let dur = stop - t.st_start.(d) in
  let dw = w -. t.st_words.(d) in
  t.count.(layer) <- t.count.(layer) + 1;
  t.total.(layer) <- t.total.(layer) + dur;
  t.self.(layer) <- t.self.(layer) + dur - t.st_child.(d);
  t.words.(layer) <- t.words.(layer) +. dw;
  t.self_words.(layer) <- t.self_words.(layer) +. dw -. t.st_child_words.(d);
  if d > 0 then begin
    t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. dw
  end;
  let id = t.st_id.(d) in
  if (d <= 1 || id - t.first_id < keep) && t.kept < Array.length t.k_id
  then begin
    let k = t.kept in
    t.k_layer.(k) <- layer;
    t.k_id.(k) <- id;
    t.k_parent.(k) <- (if d > 0 then t.st_id.(d - 1) else 0);
    t.k_start.(k) <- t.st_start.(d);
    t.k_stop.(k) <- stop;
    t.kept <- k + 1
  end

let span t layer f =
  enter t layer;
  match f () with
  | r ->
      exit t;
      r
  | exception e ->
      exit t;
      raise e

(* Close every span above [depth] without recording it, after an
   exception escaped the calls they wrapped. *)
let unwind t ~depth = t.depth <- min t.depth depth

let begin_instance t =
  t.instance <- t.instance + 1;
  t.first_id <- t.next_id;
  t.kept <- 0

(* Flush the instance's kept spans into the sink: ts and dur in ns, the
   instance as pid, span and parent ids as args. *)
let end_instance t =
  if t.depth <> 0 then failwith "Tracer.end_instance: spans still open";
  if t.instance <= instances then
    for k = 0 to t.kept - 1 do
      Obs.Sink.emit t.sink
        (Obs.Sink.record ~ts:t.k_start.(k)
           ~dur:(t.k_stop.(k) - t.k_start.(k))
           ~pid:t.instance ~kind:Obs.Sink.Span
           ~args:
             [ ("id", Obs.Json.Int t.k_id.(k)); ("parent", Obs.Json.Int t.k_parent.(k)) ]
           t.names.(t.k_layer.(k)))
    done;
  t.kept <- 0

let reset t =
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.total 0 (Array.length t.total) 0;
  Array.fill t.self 0 (Array.length t.self) 0;
  Array.fill t.words 0 (Array.length t.words) 0.;
  Array.fill t.self_words 0 (Array.length t.self_words) 0.

let count t layer = t.count.(layer)
let total_ns t layer = float_of_int t.total.(layer)
let self_ns t layer = float_of_int t.self.(layer)
let words t layer = t.words.(layer)
let self_words t layer = t.self_words.(layer)

(* The sink's spans as Chrome complete events (µs), ready for
   [Obs.Chrome_trace]'s [extra]. *)
let chrome_events t =
  let origin =
    List.fold_left (fun acc (r : Obs.Sink.record) -> min acc r.ts) max_int
      (Obs.Sink.records t.sink)
  in
  List.map
    (fun (r : Obs.Sink.record) ->
      Obs.Json.Obj
        [
          ("name", Obs.Json.String r.name);
          ("ph", Obs.Json.String "X");
          ("ts", Obs.Json.Float (float_of_int (r.ts - origin) /. 1e3));
          ("dur", Obs.Json.Float (float_of_int r.dur /. 1e3));
          ("pid", Obs.Json.Int r.pid);
          ("tid", Obs.Json.Int 1);
          ("args", Obs.Json.Obj r.args);
        ])
    (Obs.Sink.records t.sink)
