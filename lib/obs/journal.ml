let magic = "AMOJ"
let version = 1
let header = magic ^ String.make 1 (Char.chr version)

type item =
  | Record of Sink.record
  | Event of { step : int; event : Shm.Event.t }

type damage = { offset : int; reason : string }

(* ---------- primitive writers ---------- *)

let checksum_seed = 0xA5

(* One frame under construction, written straight into its buffer:
   a private one, or with a [target] flight the open segment itself, so
   the always-on probe copies no byte twice.  The frame starts at
   [start] with one byte kept for the length varint (enough for every
   payload under 128 bytes; {!finish} shifts a longer one right), and
   every payload byte is folded into the xor checksum as it is
   written. *)
type writer = {
  target : Flight.t option;
  mutable buf : Flight.buf;
  mutable start : int;
  mutable len : int; (* next write offset *)
  mutable sum : int;
}

let reset w =
  (match w.target with
  | Some fl ->
      w.buf <- Flight.open_buf fl;
      w.start <- Flight.open_len fl
  | None -> w.start <- 0);
  w.len <- w.start + 1;
  w.sum <- checksum_seed

let writer ?target () =
  let buf =
    match target with
    | Some fl -> Flight.open_buf fl
    | None -> Bigarray.Array1.create Bigarray.char Bigarray.c_layout 128
  in
  let w = { target; buf; start = 0; len = 1; sum = checksum_seed } in
  reset w;
  w

let grow w k =
  match w.target with
  | None ->
      let b =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout
          (max (2 * Bigarray.Array1.dim w.buf) (w.len + k))
      in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub w.buf 0 w.len)
        (Bigarray.Array1.sub b 0 w.len);
      w.buf <- b
  | Some fl ->
      let start =
        Flight.make_room fl ~start:w.start ~upto:w.len ~need:(w.len + k)
      in
      w.len <- w.len - w.start + start;
      w.start <- start;
      w.buf <- Flight.open_buf fl

let[@inline] reserve w k =
  if w.len + k > Bigarray.Array1.dim w.buf then grow w k

let[@inline] add_byte w c =
  reserve w 1;
  Bigarray.Array1.unsafe_set w.buf w.len (Char.unsafe_chr c);
  w.len <- w.len + 1;
  w.sum <- w.sum lxor c

(* Unsigned LEB128 over the int's bit pattern; [lsr] is logical so
   this terminates for negative inputs too (9 bytes max).  With room
   for the longest varint already in the buffer the bytes go in one
   loop; otherwise byte by byte, each reserving exactly what it needs. *)
let rec add_varint_slow w n =
  let rest = n lsr 7 in
  if rest = 0 then add_byte w n
  else begin
    add_byte w (n land 0x7f lor 0x80);
    add_varint_slow w rest
  end

let add_varint w n =
  if w.len + 9 <= Bigarray.Array1.dim w.buf then begin
    let b = w.buf and i = ref w.len and n = ref n and sum = ref w.sum in
    while !n lsr 7 <> 0 do
      let c = !n land 0x7f lor 0x80 in
      Bigarray.Array1.unsafe_set b !i (Char.unsafe_chr c);
      sum := !sum lxor c;
      incr i;
      n := !n lsr 7
    done;
    Bigarray.Array1.unsafe_set b !i (Char.unsafe_chr !n);
    w.sum <- !sum lxor !n;
    w.len <- !i + 1
  end
  else add_varint_slow w n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (- (z land 1))
let add_zint w n = add_varint w (zigzag n)

let add_str w s =
  let n = String.length s in
  add_varint w n;
  reserve w n;
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    Bigarray.Array1.unsafe_set w.buf (w.len + i) c;
    w.sum <- w.sum lxor Char.code c
  done;
  w.len <- w.len + n

let rec varint_width n = if n < 0x80 then 1 else 1 + varint_width (n lsr 7)

(* [add_varint] at offset [i], outside the checksum *)
let rec put_varint (b : Flight.buf) i n =
  let rest = n lsr 7 in
  if rest = 0 then Bigarray.Array1.unsafe_set b i (Char.unsafe_chr n)
  else begin
    Bigarray.Array1.unsafe_set b i (Char.unsafe_chr (n land 0x7f lor 0x80));
    put_varint b (i + 1) rest
  end

(* Close the frame: length varint in front, checksum byte behind.
   Returns the frame's length; its bytes are
   [w.buf.{w.start .. w.start + len - 1}]. *)
let finish w =
  let plen = w.len - w.start - 1 in
  let k = varint_width plen in
  if k > 1 then begin
    reserve w (k - 1);
    Bigarray.Array1.blit
      (Bigarray.Array1.sub w.buf (w.start + 1) plen)
      (Bigarray.Array1.sub w.buf (w.start + k) plen)
  end;
  put_varint w.buf w.start plen;
  w.len <- w.start + k + plen;
  reserve w 1;
  Bigarray.Array1.unsafe_set w.buf w.len (Char.unsafe_chr w.sum);
  w.len <- w.len + 1;
  w.len - w.start

let rec add_json w (j : Json.t) =
  match j with
  | Json.Null -> add_byte w 0
  | Json.Bool false -> add_byte w 1
  | Json.Bool true -> add_byte w 2
  | Json.Int n ->
      add_byte w 3;
      add_zint w n
  | Json.Float f ->
      (* exact IEEE bit pattern, so NaN and -0. round-trip *)
      add_byte w 4;
      let bits = Int64.bits_of_float f in
      for i = 0 to 7 do
        add_byte w
          (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
      done
  | Json.String s ->
      add_byte w 5;
      add_str w s
  | Json.List l ->
      add_byte w 6;
      add_varint w (List.length l);
      List.iter (add_json w) l
  | Json.Obj kvs ->
      add_byte w 7;
      add_varint w (List.length kvs);
      List.iter
        (fun (k, v) ->
          add_str w k;
          add_json w v)
        kvs

let kind_byte : Sink.kind -> int = function
  | Sink.Span -> 0
  | Sink.Instant -> 1
  | Sink.Counter -> 2
  | Sink.Log -> 3

let add_event w (e : Shm.Event.t) =
  match e with
  | Shm.Event.Do { p; job } ->
      add_byte w 0;
      add_zint w p;
      add_zint w job
  | Shm.Event.Crash { p } ->
      add_byte w 1;
      add_zint w p
  | Shm.Event.Restart { p } ->
      add_byte w 2;
      add_zint w p
  | Shm.Event.Terminate { p } ->
      add_byte w 3;
      add_zint w p
  | Shm.Event.Read { p; cell; value; wid } ->
      add_byte w 4;
      add_zint w p;
      add_str w cell;
      add_zint w value;
      add_zint w wid
  | Shm.Event.Write { p; cell; value; wid } ->
      add_byte w 5;
      add_zint w p;
      add_str w cell;
      add_zint w value;
      add_zint w wid
  | Shm.Event.Internal { p; action } ->
      add_byte w 6;
      add_zint w p;
      add_str w action
  | Shm.Event.Pick { p; job; free_card; try_card } ->
      add_byte w 7;
      add_zint w p;
      add_zint w job;
      add_zint w free_card;
      add_zint w try_card
  | Shm.Event.Announce { p; job } ->
      add_byte w 8;
      add_zint w p;
      add_zint w job
  | Shm.Event.Forfeit { p; job; hit; owner } ->
      add_byte w 9;
      add_zint w p;
      add_zint w job;
      add_str w hit;
      add_zint w owner
  | Shm.Event.Recover { p; job } ->
      add_byte w 10;
      add_zint w p;
      add_zint w job

(* The [Event] payload, taken apart so the probe need not allocate the
   item around each event. *)
let add_step_event w ~step event =
  add_byte w 1;
  add_zint w step;
  add_event w event

let encode_payload w = function
  | Record (r : Sink.record) ->
      add_byte w 0;
      add_zint w r.ts;
      add_zint w r.dur;
      add_zint w r.pid;
      add_byte w (kind_byte r.kind);
      add_str w r.name;
      add_varint w (List.length r.args);
      List.iter
        (fun (k, v) ->
          add_str w k;
          add_json w v)
        r.args
  | Event { step; event } -> add_step_event w ~step event

(* One private writer per domain, reused: a fresh off-heap buffer per
   record would cost more than the encoding. *)
let scratch = Domain.DLS.new_key (fun () -> writer ())

let encode item =
  let w = Domain.DLS.get scratch in
  reset w;
  encode_payload w item;
  let len = finish w in
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get w.buf i)
  done;
  Bytes.unsafe_to_string b

(* ---------- primitive readers ---------- *)

exception Bad of string

let read_varint s pos limit =
  let v = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !pos >= limit then raise (Bad "truncated varint");
    if !shift >= 63 then raise (Bad "varint overflow");
    let byte = Char.code (String.unsafe_get s !pos) in
    incr pos;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then fin := true
  done;
  !v

let read_zint s pos limit = unzigzag (read_varint s pos limit)

let read_byte s pos limit what =
  if !pos >= limit then raise (Bad ("truncated " ^ what));
  let c = Char.code s.[!pos] in
  incr pos;
  c

(* An element count: every element takes at least one byte, so a count
   beyond the bytes left (or a negative one, from a varint that sets
   the sign bit) is damage, not an allocation request. *)
let read_count s pos limit what =
  let n = read_varint s pos limit in
  if n < 0 || n > limit - !pos then raise (Bad ("bad " ^ what ^ " count"));
  n

let read_str s pos limit =
  let n = read_varint s pos limit in
  if n < 0 || n > limit - !pos then raise (Bad "truncated string");
  let r = String.sub s !pos n in
  pos := !pos + n;
  r

let rec read_json s pos limit =
  match read_byte s pos limit "json value" with
  | 0 -> Json.Null
  | 1 -> Json.Bool false
  | 2 -> Json.Bool true
  | 3 -> Json.Int (read_zint s pos limit)
  | 4 ->
      if limit - !pos < 8 then raise (Bad "truncated float");
      let bits = String.get_int64_le s !pos in
      pos := !pos + 8;
      Json.Float (Int64.float_of_bits bits)
  | 5 -> Json.String (read_str s pos limit)
  | 6 ->
      let n = read_count s pos limit "json list" in
      Json.List (List.init n (fun _ -> read_json s pos limit))
  | 7 ->
      let n = read_count s pos limit "json object" in
      Json.Obj
        (List.init n (fun _ ->
             let k = read_str s pos limit in
             (k, read_json s pos limit)))
  | t -> raise (Bad (Printf.sprintf "bad json tag %d" t))

let read_kind s pos limit =
  match read_byte s pos limit "kind" with
  | 0 -> Sink.Span
  | 1 -> Sink.Instant
  | 2 -> Sink.Counter
  | 3 -> Sink.Log
  | k -> raise (Bad (Printf.sprintf "bad kind %d" k))

let read_event s pos limit =
  let zint () = read_zint s pos limit in
  let str () = read_str s pos limit in
  match read_byte s pos limit "event" with
  | 0 ->
      let p = zint () in
      Shm.Event.Do { p; job = zint () }
  | 1 -> Shm.Event.Crash { p = zint () }
  | 2 -> Shm.Event.Restart { p = zint () }
  | 3 -> Shm.Event.Terminate { p = zint () }
  | 4 ->
      let p = zint () in
      let cell = str () in
      let value = zint () in
      Shm.Event.Read { p; cell; value; wid = zint () }
  | 5 ->
      let p = zint () in
      let cell = str () in
      let value = zint () in
      Shm.Event.Write { p; cell; value; wid = zint () }
  | 6 ->
      let p = zint () in
      Shm.Event.Internal { p; action = str () }
  | 7 ->
      let p = zint () in
      let job = zint () in
      let free_card = zint () in
      Shm.Event.Pick { p; job; free_card; try_card = zint () }
  | 8 ->
      let p = zint () in
      Shm.Event.Announce { p; job = zint () }
  | 9 ->
      let p = zint () in
      let job = zint () in
      let hit = str () in
      Shm.Event.Forfeit { p; job; hit; owner = zint () }
  | 10 ->
      let p = zint () in
      Shm.Event.Recover { p; job = zint () }
  | t -> raise (Bad (Printf.sprintf "bad event tag %d" t))

let decode_payload s pos limit =
  match read_byte s pos limit "item tag" with
  | 0 ->
      let ts = read_zint s pos limit in
      let dur = read_zint s pos limit in
      let pid = read_zint s pos limit in
      let kind = read_kind s pos limit in
      let name = read_str s pos limit in
      let nargs = read_count s pos limit "record arg" in
      let args =
        List.init nargs (fun _ ->
            let k = read_str s pos limit in
            (k, read_json s pos limit))
      in
      Record { Sink.ts; dur; pid; kind; name; args }
  | 1 ->
      let step = read_zint s pos limit in
      Event { step; event = read_event s pos limit }
  | t -> raise (Bad (Printf.sprintf "bad item tag %d" t))

let decode_one s pos limit =
  let len = read_varint s pos limit in
  if len < 0 || len > limit - !pos - 1 then
    raise
      (Bad
         (Printf.sprintf "truncated record (payload %d bytes, %d available)"
            len
            (max 0 (limit - !pos - 1))));
  let payload_end = !pos + len in
  let x = ref checksum_seed in
  for i = !pos to payload_end - 1 do
    x := !x lxor Char.code (String.unsafe_get s i)
  done;
  if !x <> Char.code s.[payload_end] then raise (Bad "checksum mismatch");
  let item = decode_payload s pos payload_end in
  if !pos <> payload_end then raise (Bad "payload length mismatch");
  incr pos;
  (* the checksum byte *)
  item

let decode_string ?(base = 0) s =
  let limit = String.length s in
  let pos = ref 0 in
  let items = ref [] in
  let damage = ref None in
  (try
     while !pos < limit do
       let start = !pos in
       match decode_one s pos limit with
       | item -> items := item :: !items
       | exception Bad reason ->
           damage := Some { offset = base + start; reason };
           raise Exit
     done
   with Exit -> ());
  (List.rev !items, !damage)

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let decode_file path =
  match read_file path with
  | Error e -> Error e
  | Ok s ->
      let hlen = String.length header in
      if String.length s < hlen || String.sub s 0 (String.length magic) <> magic
      then Error (Printf.sprintf "%s: not a journal (bad magic)" path)
      else if s.[String.length magic] <> header.[String.length magic] then
        Error
          (Printf.sprintf "%s: unsupported journal version %d (want %d)" path
             (Char.code s.[String.length magic])
             version)
      else
        Ok (decode_string ~base:hlen (String.sub s hlen (String.length s - hlen)))

(* ---------- write paths ---------- *)

let probe fl =
  let w = writer ~target:fl () in
  Shm.Probe.make ~needs_phase:false (fun ~step ~phase:_ ev ->
      reset w;
      add_step_event w ~step ev;
      let len = finish w in
      Flight.commit fl ~start:w.start ~len)

(* ---------- dumps ---------- *)

let manifest_schema = "amo-flight-manifest"

let dump ?(trigger = "on-demand") ?(extra = []) ~dir fl =
  let segs =
    List.filter (fun (s : Flight.segment) -> s.records > 0) (Flight.segments fl)
  in
  let seg_entries =
    List.mapi
      (fun i (s : Flight.segment) ->
        let file = Printf.sprintf "segment-%03d.amoj" i in
        Util.Files.write (Filename.concat dir file) (header ^ s.bytes);
        Json.Obj
          [
            ("file", Json.String file);
            ("bytes", Json.Int (String.length s.bytes));
            ("records", Json.Int s.records);
            ("first_seq", Json.Int s.first_seq);
          ])
      segs
  in
  let manifest =
    Json.Obj
      ([
         ("schema", Json.String manifest_schema);
         ("version", Json.Int version);
         ("trigger", Json.String trigger);
         ("total_records", Json.Int (Flight.total_records fl));
         ("retained_records", Json.Int (Flight.retained_records fl));
         ("dropped_segments", Json.Int (Flight.dropped_segments fl));
         ("dropped_records", Json.Int (Flight.dropped_records fl));
         ("segments", Json.List seg_entries);
       ]
      @ if extra = [] then [] else [ ("extra", Json.Obj extra) ])
  in
  let path = Filename.concat dir "manifest.json" in
  Util.Files.write path (Json.to_string ~minify:false manifest ^ "\n");
  path

let load_dump path =
  let decode_seg file (items, damages) =
    match decode_file file with
    | Error e -> Error e
    | Ok (its, dmg) ->
        Ok
          ( items @ its,
            match dmg with
            | None -> damages
            | Some d -> damages @ [ (file, d) ] )
  in
  if Sys.file_exists path && Sys.is_directory path then
    let mpath = Filename.concat path "manifest.json" in
    match read_file mpath with
    | Error e -> Error e
    | Ok s -> (
        match Json.parse s with
        | Error e -> Error (Printf.sprintf "%s: %s" mpath e)
        | Ok m -> (
            match Option.map Json.get_string (Json.member "schema" m) with
            | Some (Some sc) when sc = manifest_schema -> (
                let files =
                  match Json.member "segments" m with
                  | Some (Json.List segs) ->
                      List.filter_map
                        (fun seg ->
                          Option.bind (Json.member "file" seg) Json.get_string)
                        segs
                  | _ -> []
                in
                let rec go acc = function
                  | [] -> Ok acc
                  | f :: rest -> (
                      match decode_seg (Filename.concat path f) acc with
                      | Error e -> Error e
                      | Ok acc -> go acc rest)
                in
                match go ([], []) files with
                | Error e -> Error e
                | Ok (items, damages) -> Ok (items, damages))
            | _ -> Error (Printf.sprintf "%s: not a flight-dump manifest" mpath)))
  else
    match decode_file path with
    | Error e -> Error e
    | Ok (items, dmg) ->
        Ok
          ( items,
            match dmg with None -> [] | Some d -> [ (path, d) ] )

(* ---------- offline engine ---------- *)

let record_of_item = function
  | Record r -> r
  | Event { step; event } -> Bridge.record_of_event ~step event

let to_trace items =
  let tr = Shm.Trace.create `Full in
  List.iter
    (fun it ->
      match it with
      | Event { step; event } -> Shm.Trace.record tr ~step event
      | Record _ -> ())
    items;
  tr

(* ---------- merge ---------- *)

let ts_of_item = function
  | Record (r : Sink.record) -> r.ts
  | Event { step; _ } -> step

let pid_of_item = function
  | Record (r : Sink.record) -> r.pid
  | Event { event; _ } -> Shm.Event.pid event

let merge journals =
  let heads = Array.copy journals in
  let key i it = (ts_of_item it, pid_of_item it, i) in
  let out = ref [] in
  let running = ref true in
  while !running do
    (* the head with the least (ts, pid, source) key goes next *)
    let best = ref None in
    Array.iteri
      (fun i h ->
        match (h, !best) with
        | [], _ -> ()
        | it :: _, None -> best := Some (i, it)
        | it :: _, Some (j, bt) ->
            if compare (key i it) (key j bt) < 0 then best := Some (i, it))
      heads;
    match !best with
    | None -> running := false
    | Some (i, it) ->
        heads.(i) <- List.tl heads.(i);
        out := (i, it) :: !out
  done;
  List.rev !out
