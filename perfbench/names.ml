(* The benchmark's metric vocabulary: (name, unit, better), in report
   order. BENCHMARK.json lists exactly these; the harness refuses to
   print a result whose metric set differs. *)

(* every end-to-end metric is reported for every workload: one
   operation is one opm_sim invocation or one served hot BPF request,
   and times are normalised by the calibration kernel (calib.ml). The
   latency tail and operations per second are notes on stderr, not
   gated metrics: on a shared 2-vCPU machine both moved by 25-46 %
   between runs of the same code, more than any bound the benchmark may
   set. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("wall_ms", "ms", "lower");
    ("cpu_s", "s", "lower");
    ("peak_rss_mb", "MB", "lower");
    ("accuracy_db", "dB", "higher");
  ]

(* named by lib/ module; 0 where a workload does not exercise a layer *)
let per_layer =
  [
    ("circuit.parse_s", "s", "lower");
    ("circuit.stamp_s", "s", "lower");
    ("circuit.lines", "count", "lower");
    ("basis.opmat_s", "s", "lower");
    ("basis.opmat_bytes", "B", "lower");
    ("core.compile_s", "s", "lower");
    ("core.project_s", "s", "lower");
    ("core.solve_s", "s", "lower");
    ("core.columns", "count", "lower");
    ("core.factorisations", "count", "lower");
    ("sparse.factor_s", "s", "lower");
    ("sparse.fill_ratio", "ratio", "lower");
    ("sparse.backsolve_s", "s", "lower");
    ("sparse.solves", "count", "lower");
    ("sparse.symbolic_reuse", "count", "higher");
    ("numkit.lu_factor_s", "s", "lower");
    ("numkit.lu_solves", "count", "lower");
    ("numkit.rhsconv_s", "s", "lower");
    ("numkit.rhsconv_blocks", "count", "lower");
    ("analysis.dc_s", "s", "lower");
    ("signal.csv_s", "s", "lower");
    ("signal.csv_bytes", "B", "lower");
    ("serve.parse_s", "s", "lower");
    ("serve.fingerprint_s", "s", "lower");
    ("serve.encode_s", "s", "lower");
    ("serve.encode_bytes", "B", "lower");
    ("serve.cache_hit_ratio", "ratio", "higher");
    ("serve.evictions", "count", "lower");
    ("serve.spectral_solve_s", "s", "lower");
    ("serve.wait_s", "s", "lower");
    ("parallel.jobs", "count", "lower");
    ("parallel.wait_s", "s", "lower");
    ("obs.replay_s", "s", "lower");
    ("obs.trace_overhead", "ratio", "lower");
  ]

let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let alnum c = ok c && c <> '_' && c <> '.' && c <> '-' in
  String.length s > 0 && String.length s <= 64 && alnum s.[0] && String.for_all ok s

let valid_unit s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || String.contains "_/%.-" c
  in
  String.length s > 0 && String.length s <= 16 && String.for_all ok s
