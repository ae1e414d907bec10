(* Per-layer measurement for the traced pass: wall-clock timers around
   calls into each lib/ layer's public functions, plus the counters,
   histograms, gauges and spans the library already records through
   Opm_obs. Nothing here adds instrumentation inside lib/. *)

module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace
module Json = Opm_obs.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let set_traced on =
  Metrics.set_enabled on;
  Trace.set_enabled on

let reset () =
  Metrics.reset ();
  Trace.reset ()

(* total seconds per span name over everything recorded since [reset] *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  (match Json.member "traceEvents" (Trace.to_chrome_json ()) with
  | Some (Json.List evs) ->
      List.iter
        (fun ev ->
          match
            ( Option.bind (Json.member "name" ev) Json.to_string_opt,
              Option.bind (Json.member "dur" ev) Json.to_float_opt )
          with
          | Some name, Some dur_us ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
              Hashtbl.replace tbl name (prev +. (dur_us *. 1e-6))
          | _ -> ())
        evs
  | _ -> ());
  tbl

let span tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let counter name = float_of_int (Metrics.counter_value (Metrics.counter name))

let hist_sum name = Metrics.histogram_sum (Metrics.histogram name)

let hist_count name = Metrics.histogram_count (Metrics.histogram name)

let gauge name =
  let v = Metrics.gauge_last (Metrics.gauge name) in
  if Float.is_nan v then 0.0 else v

(* The engine records column time as the mean of every 8 columns
   ([Metrics.lap_mean]); scale the observed mean back to all columns. *)
let column_seconds () =
  let n = hist_count "engine.column_seconds" in
  if n = 0 then 0.0
  else hist_sum "engine.column_seconds" /. float_of_int n *. counter "engine.columns"

(* Library-recorded layer metrics of everything run since [reset]. The
   sparse back-solve time is the engine's column time on the sparse
   backend (back-solve plus RHS assembly of each column).
   [opmat_bytes] is the computed size of the dense operational
   matrices (m²·8 per term), counted only when they were built — the
   order-1 fast path never builds them. *)
let from_obs ~sparse ~opmat_bytes =
  let spans = span_totals () in
  let cols = column_seconds () in
  [
    ("basis.opmat_s", span spans "opm.operational_matrices");
    ( "basis.opmat_bytes",
      if Hashtbl.mem spans "opm.operational_matrices" then opmat_bytes else 0.0 );
    ("core.project_s", span spans "opm.project_inputs");
    ("core.columns", counter "engine.columns");
    ("sparse.factor_s", hist_sum "slu.factor_seconds");
    ("sparse.fill_ratio", gauge "slu.fill_ratio");
    ("sparse.backsolve_s", if sparse then cols else 0.0);
    ("sparse.solves", counter "slu.solve");
    ("sparse.symbolic_reuse", counter "slu.symbolic_reuse");
    ("numkit.lu_factor_s", hist_sum "lu.factor_seconds");
    ("numkit.lu_solves", counter "lu.solve");
    ("numkit.rhsconv_s", span spans "rhs_conv");
    ("numkit.rhsconv_blocks", counter "engine.rhsconv.blocks");
    ("parallel.jobs", counter "pool.jobs");
    ("parallel.wait_s", hist_sum "pool.job_wait_seconds");
  ]

(* Median of each metric over repetitions; every vocabulary name is
   reported, 0 for a layer the workload does not exercise. *)
let summarise (reps : (string * float) list list) =
  List.map
    (fun (name, unit, _) ->
      let vs =
        List.filter_map (fun rep -> List.assoc_opt name rep) reps
        |> Array.of_list
      in
      let v = if Array.length vs = 0 then 0.0 else Stats.median vs in
      (name, v, unit))
    Names.per_layer
