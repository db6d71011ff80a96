(* Self-contained HTML run report: inline CSS only, no external
   assets, no timestamps or environment strings — every byte is a
   function of the inputs, so fixed-seed runs golden-test cleanly.
   All iteration is over pre-sorted lists ({!Ledger.entries},
   {!Heatmap.cells}, trace order). *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let css =
  {|body{font-family:ui-monospace,Consolas,monospace;margin:1.5em;background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.1em;border-bottom:1px solid #ccc;padding-bottom:.2em;margin-top:1.6em}
table{border-collapse:collapse;margin:.6em 0}
td,th{border:1px solid #ccc;padding:.18em .55em;text-align:left;font-size:.85em}
th{background:#eee}
.ok{color:#0a7a0a;font-weight:bold}.bad{color:#c01818;font-weight:bold}
.fate-performed{background:#e4f7e4}.fate-forfeited{background:#f4f4f4}
.fate-lost_crash{background:#fde8d8}.fate-recovered{background:#e8ecfd}.fate-doubly_performed{background:#fdd8d8}
.bar{display:inline-block;height:.7em;background:#69c}.warb{background:#c66}
details{margin:.15em 0}summary{cursor:pointer}
svg{background:#fff;border:1px solid #ccc}
pre{background:#f0f0f0;padding:.6em;overflow-x:auto;font-size:.8em}
.legend span{margin-right:1.2em}|}

let section buf title f =
  Buffer.add_string buf (Printf.sprintf "<h2>%s</h2>\n" (html_escape title));
  f buf

(* Timeline: one SVG lane per process; Do/provenance/lifecycle marks
   placed at step/max_step of the lane width. *)
let timeline_svg buf ~m trace =
  let entries = Shm.Trace.entries trace in
  let max_step =
    List.fold_left (fun acc { Shm.Trace.step; _ } -> max acc step) 1 entries
  in
  let width = 800 and lane = 20 and left = 46 in
  let height = (m * lane) + 24 in
  let x step = left + (step * (width - left - 10) / max_step) in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n" width height
       width height);
  for p = 1 to m do
    let y = ((p - 1) * lane) + 14 in
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"2\" y=\"%d\" font-size=\"11\">p%d</text><line x1=\"%d\" \
          y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#ddd\"/>\n"
         (y + 4) p left y (width - 10) y)
  done;
  List.iter
    (fun { Shm.Trace.step; event } ->
      let p = Shm.Event.pid event in
      if p >= 1 && p <= m then begin
        let y = ((p - 1) * lane) + 14 in
        let rect color w h =
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                fill=\"%s\"><title>step %d: %s</title></rect>\n"
               (x step)
               (y - (h / 2))
               w h color step
               (html_escape (Shm.Event.to_string event)))
        and circle color r =
          Buffer.add_string buf
            (Printf.sprintf
               "<circle cx=\"%d\" cy=\"%d\" r=\"%d\" fill=\"%s\"><title>step \
                %d: %s</title></circle>\n"
               (x step) y r color step
               (html_escape (Shm.Event.to_string event)))
        in
        match event with
        | Shm.Event.Do _ -> rect "#2a8f2a" 3 10
        | Shm.Event.Crash _ -> rect "#c01818" 5 12
        | Shm.Event.Restart _ -> rect "#1846c0" 5 12
        | Shm.Event.Terminate _ -> circle "#555" 4
        | Shm.Event.Forfeit _ -> circle "#c08018" 3
        | Shm.Event.Recover _ -> circle "#8018c0" 3
        | _ -> ()
      end)
    entries;
  Buffer.add_string buf "</svg>\n";
  Buffer.add_string buf
    {|<p class="legend"><span style="color:#2a8f2a">&#9632; do</span><span style="color:#c01818">&#9632; crash</span><span style="color:#1846c0">&#9632; restart</span><span style="color:#555">&#9679; terminate</span><span style="color:#c08018">&#9679; forfeit</span><span style="color:#8018c0">&#9679; recover</span></p>
|}

let ledger_section buf ledger =
  let c = Ledger.counts ledger in
  Buffer.add_string buf
    (Printf.sprintf
       "<p>performed <b>%d</b> &middot; forfeited <b>%d</b> &middot; lost to \
        crash <b>%d</b> &middot; recovered (burned) <b>%d</b> &middot; \
        violations <b>%s</b> &mdash; sum %d / n=%d, reconciles: %s</p>\n"
       c.Ledger.performed c.Ledger.forfeited c.Ledger.lost c.Ledger.recovered
       (if c.Ledger.violations = 0 then "0"
        else Printf.sprintf "<span class=\"bad\">%d</span>" c.Ledger.violations)
       (c.Ledger.performed + c.Ledger.forfeited + c.Ledger.lost
      + c.Ledger.recovered + c.Ledger.violations)
       (Ledger.n ledger)
       (if Ledger.reconciles ledger then "<span class=\"ok\">yes</span>"
        else "<span class=\"bad\">NO</span>"));
  Buffer.add_string buf "<table><tr><th>job</th><th>fate</th><th>detail</th></tr>\n";
  List.iter
    (fun (e : Ledger.entry) ->
      let fate = Ledger.fate_name e.fate in
      let detail = html_escape (Ledger.explain ledger e.job) in
      let hist =
        match e.history with
        | [] -> "<i>no recorded lifecycle events</i>"
        | h ->
            "<ul>"
            ^ String.concat ""
                (List.map
                   (fun (step, msg) ->
                     Printf.sprintf "<li>step %d: %s</li>" step (html_escape msg))
                   h)
            ^ "</ul>"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<tr class=\"fate-%s\"><td>%d</td><td>%s</td><td><details><summary>%s</summary>%s</details></td></tr>\n"
           fate e.job fate detail hist))
    (Ledger.entries ledger);
  Buffer.add_string buf "</table>\n"

let heatmap_section buf heatmap =
  let cells = Heatmap.cells heatmap in
  let peak =
    List.fold_left (fun acc (c : Heatmap.cell) -> max acc (c.reads + c.writes)) 1 cells
  in
  Buffer.add_string buf
    (Printf.sprintf "<p>%d registers, %d total accesses (peak %d on one register)</p>\n"
       (List.length cells)
       (Heatmap.total_accesses heatmap)
       peak);
  Buffer.add_string buf
    "<table><tr><th>register</th><th>reads</th><th>writes</th><th>accessors</th><th>contention</th><th>load</th></tr>\n";
  List.iter
    (fun (c : Heatmap.cell) ->
      let w = (c.reads + c.writes) * 220 / peak in
      let cls = if c.contention * 2 > c.reads + c.writes then "bar warb" else "bar" in
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td><span class=\"%s\" style=\"width:%dpx\"></span></td></tr>\n"
           (html_escape c.name) c.reads c.writes c.accessors c.contention cls (max w 1)))
    cells;
  Buffer.add_string buf "</table>\n"

let gcstat_section buf g =
  Buffer.add_string buf
    "<table><tr><th>phase</th><th>events</th><th>minor words</th><th>minor \
     gcs</th><th>major gcs</th><th>p50 w/evt</th><th>p99 w/evt</th></tr>\n";
  List.iter
    (fun (r : Gcstat.row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>%s</td><td>%d</td><td>%.0f</td><td>%d</td><td>%d</td>\
            <td>%d</td><td>%d</td></tr>\n"
           (html_escape r.phase) r.events r.words r.minors r.majors r.words_p50
           r.words_p99))
    (Gcstat.by_phase g);
  let words, minors, majors = Gcstat.totals g in
  Buffer.add_string buf
    (Printf.sprintf
       "<tr><td><b>total</b></td><td>%d</td><td>%.0f</td><td>%d</td>\
        <td>%d</td><td></td><td></td></tr>\n</table>\n"
       (Gcstat.events g) words minors majors)

let make ~run_name ~params ~ledger ?heatmap ?(verdicts = []) ?plan_json
    ?(why = []) ?gcstat ~trace () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>%s</title>\n<style>%s</style></head>\n<body>\n"
       (html_escape run_name) css);
  Buffer.add_string buf (Printf.sprintf "<h1>%s</h1>\n" (html_escape run_name));
  Buffer.add_string buf "<table><tr>";
  List.iter
    (fun (k, _) -> Buffer.add_string buf (Printf.sprintf "<th>%s</th>" (html_escape k)))
    params;
  Buffer.add_string buf "</tr><tr>";
  List.iter
    (fun (_, v) -> Buffer.add_string buf (Printf.sprintf "<td>%s</td>" (html_escape v)))
    params;
  Buffer.add_string buf "</tr></table>\n";
  if verdicts <> [] then
    section buf "Oracle verdicts" (fun buf ->
        Buffer.add_string buf
          "<table><tr><th>oracle</th><th>verdict</th><th>detail</th></tr>\n";
        List.iter
          (fun (name, pass, detail) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "<tr><td>%s</td><td class=\"%s\">%s</td><td>%s</td></tr>\n"
                 (html_escape name)
                 (if pass then "ok" else "bad")
                 (if pass then "pass" else "FAIL")
                 (html_escape detail)))
          verdicts;
        Buffer.add_string buf "</table>\n");
  (match plan_json with
  | None -> ()
  | Some plan ->
      section buf "Fault-plan overlay" (fun buf ->
          Buffer.add_string buf
            (Printf.sprintf "<pre>%s</pre>\n"
               (html_escape (Json.to_string ~minify:false plan)))));
  section buf "Timeline" (fun buf -> timeline_svg buf ~m:(Ledger.m ledger) trace);
  section buf "Job ledger" (fun buf -> ledger_section buf ledger);
  (match heatmap with
  | None -> ()
  | Some h -> section buf "Register contention heatmap" (fun buf -> heatmap_section buf h));
  (match gcstat with
  | None -> ()
  | Some g -> section buf "GC attribution" (fun buf -> gcstat_section buf g));
  if why <> [] then
    section buf "Causal chains (why)" (fun buf ->
        List.iter
          (fun (job, lines) ->
            Buffer.add_string buf
              (Printf.sprintf "<h3>job %d</h3><pre>%s</pre>\n" job
                 (html_escape (String.concat "\n" lines))))
          why);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
