(* Prometheus text exposition (version 0.0.4) snapshots.

   No client library and no HTTP endpoint on purpose: a run
   periodically renders its registry to <dir>/<job>.prom with an
   atomic tmp+rename, and standard tooling (node_exporter's textfile
   collector, or anything that can read the exposition format) scrapes
   the file.  Rendering is deterministic — metrics and labels are
   emitted in registration order — so snapshots are diffable and
   golden-testable. *)

type value =
  | Counter of float
  | Gauge of float
  | Histo of { buckets : (float * int) list; sum : float; count : int }
      (* buckets: (upper_edge, cumulative_count), ascending; +Inf
         implicit from [count] *)

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

type t = { mutable metrics : metric list (* reversed *) }

let create () = { metrics = [] }

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

(* NaN and infinities are syntactically expressible in the exposition
   format but poison every aggregation downstream (rate(), quantiles,
   alerts silently never firing) — a sample that is not a finite
   number is a bug at the instrumentation site, so reject it there. *)
let check_finite v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Prom.add: non-finite sample %h" v)

let add t ~name ~help ?(labels = []) value =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Prom.add: invalid metric name %S" name);
  (match value with
  | Counter v | Gauge v -> check_finite v
  | Histo { sum; _ } -> check_finite sum);
  t.metrics <- { name; help; labels; value } :: t.metrics

let counter t ~name ~help ?labels v = add t ~name ~help ?labels (Counter v)
let gauge t ~name ~help ?labels v = add t ~name ~help ?labels (Gauge v)

let of_sketch t ~name ~help ?labels sketch =
  let buckets =
    List.map
      (fun (edge, cum) -> (float_of_int edge, cum))
      (Sketch.cumulative sketch)
  in
  add t ~name ~help ?labels
    (Histo { buckets; sum = Sketch.total sketch; count = Sketch.count sketch })

(* Label values escape backslash, double-quote and newline per the
   exposition format. *)
let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      let parts =
        List.map
          (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
          labels
      in
      "{" ^ String.concat "," parts ^ "}"

let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let render_help b name help ty =
  (* HELP text escapes \ and newline *)
  let escaped = Buffer.create (String.length help) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string escaped "\\\\"
      | '\n' -> Buffer.add_string escaped "\\n"
      | c -> Buffer.add_char escaped c)
    help;
  Printf.bprintf b "# HELP %s %s\n" name (Buffer.contents escaped);
  Printf.bprintf b "# TYPE %s %s\n" name ty

let render t =
  let b = Buffer.create 1024 in
  (* one HELP/TYPE header per metric name, at its first occurrence;
     same-name series (differing labels) group under it *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let ty =
        match m.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histo _ -> "histogram"
      in
      if not (Hashtbl.mem seen m.name) then begin
        Hashtbl.add seen m.name ();
        render_help b m.name m.help ty
      end;
      match m.value with
      | Counter v | Gauge v ->
          Printf.bprintf b "%s%s %s\n" m.name (render_labels m.labels)
            (render_float v)
      | Histo { buckets; sum; count } ->
          List.iter
            (fun (edge, cum) ->
              Printf.bprintf b "%s_bucket%s %d\n" m.name
                (render_labels (m.labels @ [ ("le", render_float edge) ]))
                cum)
            buckets;
          Printf.bprintf b "%s_bucket%s %d\n" m.name
            (render_labels (m.labels @ [ ("le", "+Inf") ]))
            count;
          Printf.bprintf b "%s_sum%s %s\n" m.name (render_labels m.labels)
            (render_float sum);
          Printf.bprintf b "%s_count%s %d\n" m.name (render_labels m.labels)
            count)
    (List.rev t.metrics);
  Buffer.contents b
