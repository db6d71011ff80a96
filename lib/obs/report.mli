(** Self-contained HTML run reports.

    One HTML document per run — inline CSS, no external assets, no
    timestamps, no environment strings — so the output is a pure
    function of the inputs and fixed-seed runs are byte-deterministic
    (golden-testable, CI-artifact friendly).  Sections: run
    parameters, oracle verdicts, the fault-plan overlay (if a plan
    was active), an SVG per-process timeline with do/crash/restart/
    forfeit/recover marks, the per-job ledger drill-down
    ({!Ledger.entries} order), the register-contention heatmap, and
    optional causal "why" chains from {!Span.causal_chain}. *)

val make :
  run_name:string ->
  params:(string * string) list ->
  ledger:Ledger.t ->
  ?heatmap:Heatmap.t ->
  ?verdicts:(string * bool * string) list ->
  ?plan_json:Json.t ->
  ?why:(int * string list) list ->
  ?gcstat:Gcstat.t ->
  trace:Shm.Trace.t ->
  unit ->
  string
(** Render the report.  [params] is shown as a key/value header row
    (order preserved); [verdicts] are [(oracle, passed, detail)]
    rows; [plan_json] is pretty-printed as the fault-plan overlay;
    [why] attaches pre-rendered causal-chain lines per job; [gcstat]
    adds the per-phase GC-attribution table when the run carried a
    {!Gcstat} collector. *)

val html_escape : string -> string
(** Escape ampersands, angle brackets and double quotes for HTML text
    and attribute values. *)
