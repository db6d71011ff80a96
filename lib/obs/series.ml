(* Cross-run performance history: the observatory's storage and
   analysis layer.

   [bench/compare.exe] answers "did THIS run regress against ONE
   committed baseline?".  The observatory answers the longitudinal
   question: every bench run appends its metrics to an append-only
   JSONL store keyed (exp, metric, git sha, timestamp), and analysis
   over the accumulated history separates drift from noise — a
   Mann–Whitney U test (no normality assumption; bench timings are
   long-tailed) between the recent window and the older baseline,
   cross-checked against a bootstrap confidence interval of the
   baseline median, both direction-aware.

   Everything here is a pure function of the entries (bootstrap seeds
   derive from the series key), so analysis and the HTML dashboard are
   byte-deterministic and golden-testable. *)

type entry = {
  exp : string;
  metric : string;
  value : float;
  direction : Snapshot.direction;
  git_sha : string;
  timestamp : int;
}

let direction_to_string = function
  | Snapshot.Lower_is_better -> "lower"
  | Snapshot.Higher_is_better -> "higher"

let entry_to_json e =
  Json.Obj
    [
      ("exp", Json.String e.exp);
      ("metric", Json.String e.metric);
      ("value", Json.Float e.value);
      ("direction", Json.String (direction_to_string e.direction));
      ("git_sha", Json.String e.git_sha);
      ("timestamp", Json.Int e.timestamp);
    ]

let entry_of_json j =
  match
    ( Option.bind (Json.member "exp" j) Json.get_string,
      Option.bind (Json.member "metric" j) Json.get_string,
      Option.bind (Json.member "value" j) Json.get_float )
  with
  | Some exp, Some metric, Some value ->
      let direction =
        match Option.bind (Json.member "direction" j) Json.get_string with
        | Some "higher" -> Snapshot.Higher_is_better
        | _ -> Snapshot.Lower_is_better
      in
      let git_sha =
        Option.value ~default:"unknown"
          (Option.bind (Json.member "git_sha" j) Json.get_string)
      in
      let timestamp =
        Option.value ~default:0
          (Option.bind (Json.member "timestamp" j) Json.get_int)
      in
      Ok { exp; metric; value; direction; git_sha; timestamp }
  | _ -> Error "series entry: missing exp/metric/value"

let append ~path entries =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Json.to_string (entry_to_json e));
          output_char oc '\n')
        entries)

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    let rec parse lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
          if String.trim line = "" then parse (lineno + 1) acc rest
          else begin
            match Result.bind (Json.parse line) entry_of_json with
            | Ok e -> parse (lineno + 1) (e :: acc) rest
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path lineno msg)
          end
    in
    parse 1 [] lines
  end

(* One entry per snapshot metric, carrying the same quantity
   compare.exe gates on (ratio-to-prediction when available), so the
   two regression tools never disagree about what they measured. *)
let of_snapshot ~git_sha ~timestamp (snap : Snapshot.t) =
  List.map
    (fun (m : Snapshot.metric) ->
      {
        exp = snap.Snapshot.experiment;
        metric = m.Snapshot.name;
        value = Snapshot.compared_value m;
        direction = m.Snapshot.direction;
        git_sha;
        timestamp;
      })
    snap.Snapshot.metrics

(* ---- trend analysis ---- *)

type verdict = Regression | Improvement | Stable | Insufficient

let verdict_to_string = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Stable -> "stable"
  | Insufficient -> "insufficient"

type point = { timestamp : int; git_sha : string; value : float }

type trend = {
  exp : string;
  metric : string;
  direction : Snapshot.direction;
  points : point list;  (* chronological *)
  baseline_median : float;
  recent_median : float;
  shift_pct : float;
  ci_lo : float;
  ci_hi : float;
  p_value : float;
  verdict : verdict;
}

(* FNV-1a over the series key: a deterministic bootstrap seed that
   does not depend on hashtable iteration or stdlib hash internals. *)
let seed_of_key exp metric =
  let fnv s h =
    String.fold_left
      (fun h c -> (h lxor Char.code c) * 16777619 land 0x3FFFFFFFFFFFFF)
      h s
  in
  fnv metric (fnv exp 0x1505)

let analyze ~window ~alpha ~min_shift_pct ~min_points (exp, metric) pts =
  let direction =
    match List.rev pts with
    | (last : entry) :: _ -> last.direction
    | [] -> Snapshot.Lower_is_better
  in
  let points =
    pts
    |> List.map (fun (e : entry) ->
           { timestamp = e.timestamp; git_sha = e.git_sha; value = e.value })
    |> List.stable_sort (fun a b ->
           compare (a.timestamp, a.git_sha) (b.timestamp, b.git_sha))
  in
  let n = List.length points in
  let w = min window (n / 2) in
  let insufficient v =
    {
      exp;
      metric;
      direction;
      points;
      baseline_median = v;
      recent_median = v;
      shift_pct = 0.;
      ci_lo = v;
      ci_hi = v;
      p_value = 1.;
      verdict = Insufficient;
    }
  in
  if n < min_points || w < 2 then
    insufficient (match points with [] -> 0. | p :: _ -> p.value)
  else begin
    let values = Array.of_list (List.map (fun p -> p.value) points) in
    let baseline = Array.sub values 0 (n - w) in
    let recent = Array.sub values (n - w) w in
    let baseline_median = Util.Stats.median baseline in
    let recent_median = Util.Stats.median recent in
    let shift_pct =
      if baseline_median = recent_median then 0.
      else if baseline_median = 0. then Float.infinity
      else
        (recent_median -. baseline_median)
        /. Float.abs baseline_median *. 100.
    in
    let { Util.Stats.p; _ } = Util.Stats.mann_whitney_u recent baseline in
    let ci_lo, ci_hi =
      Util.Stats.bootstrap_ci ~seed:(seed_of_key exp metric) baseline
    in
    let significant =
      p < alpha
      && Float.abs shift_pct >= min_shift_pct
      && (recent_median < ci_lo || recent_median > ci_hi)
    in
    let verdict =
      if not significant then Stable
      else begin
        let worse =
          match direction with
          | Snapshot.Lower_is_better -> shift_pct > 0.
          | Snapshot.Higher_is_better -> shift_pct < 0.
        in
        if worse then Regression else Improvement
      end
    in
    {
      exp;
      metric;
      direction;
      points;
      baseline_median;
      recent_median;
      shift_pct;
      ci_lo;
      ci_hi;
      p_value = p;
      verdict;
    }
  end

let trends ?(window = 5) ?(alpha = 0.05) ?(min_shift_pct = 5.)
    ?(min_points = 6) entries =
  let groups : (string * string, entry list) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (e : entry) ->
      let key = (e.exp, e.metric) in
      match Hashtbl.find_opt groups key with
      | Some es -> Hashtbl.replace groups key (e :: es)
      | None ->
          order := key :: !order;
          Hashtbl.add groups key [ e ])
    entries;
  List.sort compare !order
  |> List.map (fun key ->
         analyze ~window ~alpha ~min_shift_pct ~min_points key
           (List.rev (Hashtbl.find groups key)))

let flagged ts =
  List.filter
    (fun t -> match t.verdict with Regression | Improvement -> true | _ -> false)
    ts

let regressions ts = List.filter (fun t -> t.verdict = Regression) ts

let trend_json t =
  Json.Obj
    [
      ("exp", Json.String t.exp);
      ("metric", Json.String t.metric);
      ("direction", Json.String (direction_to_string t.direction));
      ("runs", Json.Int (List.length t.points));
      ("baseline_median", Json.Float t.baseline_median);
      ("recent_median", Json.Float t.recent_median);
      ("shift_pct", Json.Float t.shift_pct);
      ("ci_lo", Json.Float t.ci_lo);
      ("ci_hi", Json.Float t.ci_hi);
      ("p_value", Json.Float t.p_value);
      ("verdict", Json.String (verdict_to_string t.verdict));
    ]

let trends_json ts = Json.List (List.map trend_json ts)

(* ---- trend dashboard ---- *)

(* Byte-deterministic: a pure function of the trends — no clocks, no
   environment, fixed float formatting — so the rendered page is
   golden-testable and identical across machines for the same store. *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* Inline SVG sparkline: all points as a polyline scaled into the box,
   the recent window tinted, last point dotted. *)
let sparkline ?(width = 160) ?(height = 36) ?(window = 5) t =
  let vals = List.map (fun p -> p.value) t.points in
  match vals with
  | [] | [ _ ] -> "<svg class=\"spark\" width=\"160\" height=\"36\"></svg>"
  | _ ->
      let n = List.length vals in
      let lo = List.fold_left Float.min (List.hd vals) vals in
      let hi = List.fold_left Float.max (List.hd vals) vals in
      let pad = 3. in
      let xw = float_of_int (width - 6) and yh = float_of_int (height - 6) in
      let x i = pad +. (float_of_int i /. float_of_int (n - 1) *. xw) in
      let y v =
        if hi = lo then pad +. (yh /. 2.)
        else pad +. ((hi -. v) /. (hi -. lo) *. yh)
      in
      let coord i v = Printf.sprintf "%.2f,%.2f" (x i) (y v) in
      let all =
        String.concat " " (List.mapi coord vals)
      in
      let w = min window (n / 2) in
      let recent =
        if w < 2 then ""
        else begin
          let tail =
            List.filteri (fun i _ -> i >= n - w - 1) vals
            |> List.mapi (fun i v -> coord (n - w - 1 + i) v)
          in
          Printf.sprintf
            "<polyline class=\"recent\" fill=\"none\" points=\"%s\"/>"
            (String.concat " " tail)
        end
      in
      let last = List.nth vals (n - 1) in
      Printf.sprintf
        "<svg class=\"spark\" width=\"%d\" height=\"%d\"><polyline \
         fill=\"none\" points=\"%s\"/>%s<circle cx=\"%.2f\" cy=\"%.2f\" \
         r=\"2\"/></svg>"
        width height all recent
        (x (n - 1))
        (y last)

let dashboard_html ?(window = 5) ts =
  let b = Buffer.create 8192 in
  let n_reg = List.length (regressions ts) in
  let n_imp = List.length (List.filter (fun t -> t.verdict = Improvement) ts) in
  Buffer.add_string b
    {|<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>AMO performance observatory</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #1d2129; }
h1 { font-size: 1.4rem; }
.counts span { margin-right: 1.2em; }
.counts .reg { color: #b42318; font-weight: 600; }
.counts .imp { color: #067647; font-weight: 600; }
table { border-collapse: collapse; margin-top: 1rem; }
th, td { padding: 0.3rem 0.7rem; border-bottom: 1px solid #e4e7ec; text-align: right; }
th { background: #f8f9fb; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
tr.regression td { background: #fef3f2; }
tr.improvement td { background: #ecfdf3; }
tr.insufficient td { color: #98a2b3; }
td.verdict { font-weight: 600; }
tr.regression td.verdict { color: #b42318; }
tr.improvement td.verdict { color: #067647; }
svg.spark polyline { stroke: #667085; stroke-width: 1.2; }
svg.spark polyline.recent { stroke: #175cd3; stroke-width: 1.6; }
svg.spark circle { fill: #175cd3; }
</style>
</head>
<body>
<h1>AMO performance observatory</h1>
|};
  Printf.bprintf b
    "<p class=\"counts\"><span>%d series</span><span class=\"reg\">%d \
     regressions</span><span class=\"imp\">%d improvements</span></p>\n"
    (List.length ts) n_reg n_imp;
  Buffer.add_string b
    "<table>\n<tr><th class=\"name\">experiment</th><th \
     class=\"name\">metric</th><th>runs</th><th>baseline median</th><th>95% \
     CI</th><th>recent median</th><th>shift</th><th>p</th><th \
     class=\"verdict\">verdict</th><th>trend</th></tr>\n";
  List.iter
    (fun t ->
      Printf.bprintf b
        "<tr class=\"%s\"><td class=\"name\">%s</td><td \
         class=\"name\">%s</td><td>%d</td><td>%s</td><td>[%s, \
         %s]</td><td>%s</td><td>%s%%</td><td>%s</td><td \
         class=\"verdict\">%s</td><td>%s</td></tr>\n"
        (verdict_to_string t.verdict)
        (Report.html_escape t.exp) (Report.html_escape t.metric)
        (List.length t.points)
        (fmt_float t.baseline_median)
        (fmt_float t.ci_lo) (fmt_float t.ci_hi)
        (fmt_float t.recent_median)
        (fmt_float t.shift_pct)
        (fmt_float t.p_value)
        (verdict_to_string t.verdict)
        (sparkline ~window t))
    ts;
  Buffer.add_string b "</table>\n</body>\n</html>\n";
  Buffer.contents b
