(* The three opm_sim workloads: end-to-end runs of the real binary on
   generated netlist files, and the traced in-process replay of the
   same pipeline. *)

open Opm_circuit
open Opm_core
module Grid = Opm_basis.Grid
module Waveform = Opm_signal.Waveform
module Error = Opm_signal.Error
module Stats = Perfbench.Stats
module Proc = Perfbench.Proc
open Common
module Layers = Perfbench.Layers
module Calib = Perfbench.Calib

type spec = {
  name : string;
  netlist : string;  (** netlist text *)
  args : string list;  (** opm_sim arguments after the netlist path *)
  check : string -> float;
      (** stdout of one run → accuracy in dB; raises {!Common.Wrong}
          when the output is wrong *)
  replay : string -> string * (string * float) list;
      (** netlist path → output and per-layer metrics of one in-process
          run of the same pipeline *)
}

let setup_runs = 9
let min_runs = 20

let verify spec ~what output =
  match spec.check output with
  | acc -> (true, acc)
  | exception Wrong { msg; accuracy } ->
      note "%s: wrong output in %s: %s" spec.name what msg;
      (false, accuracy)

(* ---- end to end -------------------------------------------------- *)

let measure spec ~seconds =
  let path = work (spec.name ^ ".sp") in
  Proc.write_file path spec.netlist;
  (* invocations alternate with fresh passes of the calibration
     kernel: pass k runs just before invocation k, one more after the
     last, and invocation k is normalised by the mean of passes k and
     k + 1 *)
  let cals = ref [] in
  let run k =
    let out = work (Printf.sprintf "%s.%d.out" spec.name k) in
    cals := calibrate () :: !cals;
    let r =
      Proc.run ~prog:opm_sim ~args:(path :: spec.args) ~stdout_file:out
        ~stderr_file:(work (Printf.sprintf "%s.%d.err" spec.name k))
    in
    (r, out)
  in
  ignore (calibrate ());
  (* set-up: untimed warm-up invocations (page cache, first-touch) *)
  let setup = List.init setup_runs run in
  let t_start = Unix.gettimeofday () in
  let rec loop k acc =
    if k >= min_runs && Unix.gettimeofday () -. t_start >= seconds then
      List.rev acc
    else loop (k + 1) (run (setup_runs + k) :: acc)
  in
  let timed = loop 0 [] in
  cals := calibrate () :: !cals;
  let cals = Array.of_list (List.rev !cals) in
  (* correctness, outside timing: every invocation, warm-ups included;
     (passed, accuracy in dB or nan) per invocation *)
  let verdict ((r : Proc.run), out) =
    if r.exit_code <> 0 then begin
      note "%s: opm_sim exited %d" spec.name r.exit_code;
      (false, nan)
    end
    else verify spec ~what:out (Proc.read_file out)
  in
  let t_check = Unix.gettimeofday () in
  let verdicts = List.map verdict (setup @ timed) in
  note "%s: timed loop %.1f s, checks %.1f s" spec.name (t_check -. t_start)
    (Unix.gettimeofday () -. t_check);
  let failed = List.length (List.filter (fun (ok, _) -> not ok) verdicts) in
  let arr f l = Array.of_list (List.map f l) in
  (* [f] of every invocation in [l], normalised; [l] starts at
     invocation [first] *)
  let norm f ~first l =
    Array.of_list
      (List.mapi
         (fun k ((r : Proc.run), _) ->
           let k = first + k in
           Calib.normalise
             ~cal:(0.5 *. (cals.(k) +. cals.(k + 1)))
             (f r))
         l)
  in
  let walls = arr (fun ((r : Proc.run), _) -> r.wall_s) timed in
  let accs =
    Array.of_list
      (List.filter_map
         (fun (_, a) -> if Float.is_nan a then None else Some a)
         verdicts)
  in
  let n = Array.length walls in
  note "%s: %d timed runs, %.3f/s; wall p10 %.1f p50 %.1f, tail p%.0f %.1f ms; calibration p50 %.1f ms"
    spec.name n
    (float_of_int n /. Stats.sum walls)
    (1e3 *. Stats.quantile 0.1 walls) (1e3 *. Stats.median walls)
    (Stats.tail_percentile n) (1e3 *. Stats.tail walls) (1e3 *. Stats.median cals);
  {
    correct = failed = 0;
    attempted = List.length verdicts;
    failed;
    metrics =
      [
        ("setup_s", Stats.median (norm (fun r -> r.wall_s) ~first:0 setup), "s");
        ("wall_ms", 1e3 *. Stats.median (norm (fun r -> r.wall_s) ~first:setup_runs timed), "ms");
        ("cpu_s", Stats.median (norm (fun r -> r.cpu_s) ~first:setup_runs timed), "s");
        ( "peak_rss_mb",
          Stats.median (arr (fun ((r : Proc.run), _) -> r.maxrss_mb) timed),
          "MB" );
        ( "accuracy_db",
          (if Array.length accs = 0 then nan else Stats.median accs),
          "dB" );
      ];
  }

(* ---- traced replay ----------------------------------------------- *)

(* Alternate untraced and traced in-process replays for [seconds]; the
   per-layer numbers come from the traced ones, the overhead from the
   ratio of the two medians. *)
let traced spec ~seconds =
  let path = work (spec.name ^ ".sp") in
  Proc.write_file path spec.netlist;
  let t_start = Unix.gettimeofday () in
  let plain = ref [] and traced = ref [] and outputs = ref [] in
  while List.length !traced < 2 || Unix.gettimeofday () -. t_start < seconds do
    Layers.set_traced false;
    let (out, _), w = Layers.timed (fun () -> spec.replay path) in
    plain := w :: !plain;
    outputs := out :: !outputs;
    Gc.compact ();
    Layers.reset ();
    Layers.set_traced true;
    let (out, rep), w = Layers.timed (fun () -> spec.replay path) in
    Layers.set_traced false;
    traced := (("obs.traced_s", w) :: rep) :: !traced;
    outputs := out :: !outputs;
    Gc.compact ()
  done;
  (* the replayed outputs get the same checks as the binary's *)
  let failed =
    List.length
      (List.filter
         (fun out -> not (fst (verify spec ~what:"the in-process replay" out)))
         !outputs)
  in
  let plain_s = Stats.median (Array.of_list !plain) in
  let traced_s =
    Stats.median (Array.of_list (List.map (List.assoc "obs.traced_s") !traced))
  in
  let reps =
    List.map
      (fun rep ->
        ("obs.replay_s", plain_s) :: ("obs.trace_overhead", traced_s /. plain_s) :: rep)
      !traced
  in
  {
    correct = failed = 0;
    attempted = List.length !outputs;
    failed;
    metrics = Layers.summarise reps;
  }

let line_count text =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text

(* opm_sim's transient path: parse, stamp, compile, solve, CSV. *)
let replay_tran ~probes ~t_end ~steps path =
  let text = Proc.read_file path in
  let net, parse_s = Layers.timed (fun () -> Parser.parse_file path) in
  let outputs = List.map (fun p -> Mna.Node_voltage p) probes in
  let (mt, srcs), stamp_s = Layers.timed (fun () -> Mna.stamp ~outputs net) in
  let grid = Grid.uniform ~t_end ~m:steps in
  let model, compile_s = Layers.timed (fun () -> Compiled_model.compile ~grid mt) in
  let res, solve_s = Layers.timed (fun () -> Compiled_model.solve model srcs) in
  let csv, csv_s = Layers.timed (fun () -> Waveform.to_csv res.Sim_result.outputs) in
  let terms = List.length mt.Multi_term.terms in
  ( csv,
  [
    ("circuit.parse_s", parse_s);
    ("circuit.stamp_s", stamp_s);
    ("circuit.lines", float_of_int (line_count text));
    ("core.compile_s", compile_s);
    ("core.solve_s", solve_s);
    ("core.factorisations", float_of_int (Compiled_model.factorisations model));
    ("signal.csv_s", csv_s);
    ("signal.csv_bytes", float_of_int (String.length csv));
  ]
  @ Layers.from_obs
      ~sparse:(Compiled_model.backend model = `Sparse)
      ~opmat_bytes:(float_of_int (steps * steps * 8 * terms)) )

(* ---- grid-tran: Table II transient ------------------------------- *)

let grid_tran_t_end = 1e-9
let grid_tran_steps = 100

let grid_tran ~seed ~nx ~ny =
  let netlist, probes = Perfbench.Gen.power_grid ~seed ~nx ~ny ~nz:2 () in
  let probe_args = List.concat_map (fun p -> [ "--probe"; p ]) probes in
  (* Table II's own reference: trapezoidal rule at h/20 *)
  let reference =
    lazy
      (let net = Parser.parse_string netlist in
       let sys, srcs =
         Mna.stamp_linear ~outputs:(List.map (fun p -> Mna.Node_voltage p) probes) net
       in
       let h = grid_tran_t_end /. float_of_int grid_tran_steps in
       Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
         ~h:(h /. 20.0) ~t_end:grid_tran_t_end sys srcs)
  in
  {
    name = "grid-tran";
    netlist;
    args =
      [ "-t"; Printf.sprintf "%g" grid_tran_t_end; "--steps"; string_of_int grid_tran_steps ]
      @ probe_args;
    check =
      (fun out ->
        let times, chans =
          parse_csv ~rows:grid_tran_steps ~cols:(List.length probes) out
        in
        let err_db =
          Error.average_relative_error_db ~reference:(Lazy.force reference)
            (Waveform.make times chans)
        in
        if not (err_db <= -20.0) then
          wrong ~accuracy:(-.err_db) "error %.1f dB against trapezoidal h/20" err_db;
        -.err_db);
    replay = replay_tran ~probes ~t_end:grid_tran_t_end ~steps:grid_tran_steps;
  }

(* ---- grid-dc: DC operating point -------------------------------- *)

(* opm_sim --mode dc's pencil: the algebraic part A of the stamp *)
let dc_system net =
  let mt, srcs = Mna.stamp net in
  let n = Multi_term.order mt in
  let sys =
    Descriptor.make ~state_names:mt.Multi_term.state_names
      ~output_names:mt.Multi_term.output_names
      ~e:(Opm_sparse.Csr.zero ~rows:n ~cols:n)
      ~a:mt.Multi_term.a ~b:mt.Multi_term.b ~c:mt.Multi_term.c ()
  in
  (sys, Array.map (fun s -> Opm_signal.Source.eval s 0.0) srcs)

let parse_dc text =
  String.split_on_char '\n' (String.trim text)
  |> List.map (fun l ->
         match String.split_on_char '=' l with
         | [ name; v ] -> (
             match float_of_string_opt (String.trim v) with
             | Some v -> (String.trim name, v)
             | None -> wrong "bad value: %s" l)
         | _ -> wrong "bad line: %s" l)

(* one grid design for every seed, so that every seed factors the same
   pencil (see Gen.power_grid); the seed draws the load currents *)
let grid_dc_design = 1

let grid_dc ~seed ~nx ~ny =
  let netlist, _ =
    Perfbench.Gen.power_grid ~design_seed:grid_dc_design ~seed ~nx ~ny ~nz:2 ()
  in
  (* the same stamped A under a different fill-reducing ordering *)
  let reference =
    lazy
      (let sys, u0 = dc_system (Parser.parse_string netlist) in
       let rhs = Opm_numkit.Vec.scale (-1.0) (Opm_numkit.Mat.mul_vec sys.Descriptor.b u0) in
       let f = Opm_sparse.Slu.factor ~ordering:`Rcm sys.Descriptor.a in
       let y = Opm_numkit.Mat.mul_vec sys.Descriptor.c (Opm_sparse.Slu.solve f rhs) in
       (sys.Descriptor.output_names, y))
  in
  {
    name = "grid-dc";
    netlist;
    args = [ "--mode"; "dc" ];
    check =
      (fun out ->
        let names, y = Lazy.force reference in
        let got = parse_dc out in
        if List.length got <> Array.length names then
          wrong "%d outputs, expected %d" (List.length got) (Array.length names);
        let vals =
          Array.map
            (fun name ->
              match List.assoc_opt name got with
              | Some v when Float.is_finite v -> v
              | _ -> wrong "missing or non-finite %s" name)
            names
        in
        let rel = rel_error ~reference:[| y |] [| vals |] in
        if not (rel <= 1e-7) then
          wrong ~accuracy:(accuracy_db rel) "relative error %.3g against the RCM-ordered solve" rel;
        accuracy_db rel);
    replay =
      (fun path ->
        let text = Proc.read_file path in
        let net, parse_s = Layers.timed (fun () -> Parser.parse_file path) in
        let (sys, u0), stamp_s = Layers.timed (fun () -> dc_system net) in
        let y, dc_s = Layers.timed (fun () -> Opm_analysis.Dc.outputs_at sys ~u0) in
        let out, out_s =
          Layers.timed (fun () ->
              let b = Buffer.create 65536 in
              Array.iteri
                (fun i name -> Printf.bprintf b "%s = %.9g\n" name y.(i))
                sys.Descriptor.output_names;
              Buffer.contents b)
        in
        ( out,
          [
            ("circuit.parse_s", parse_s);
            ("circuit.stamp_s", stamp_s);
            ("circuit.lines", float_of_int (line_count text));
            ("analysis.dc_s", dc_s);
            ("signal.csv_s", out_s);
            ("signal.csv_bytes", float_of_int (String.length out));
          ]
          @ Layers.from_obs ~sparse:true ~opmat_bytes:0.0 ));
  }

(* ---- frac-long: fractional BPF at large m ------------------------ *)

let frac_t_end = 1e-3

let frac_long ~seed ~steps =
  let netlist, probes = Perfbench.Gen.frac_ladder ~seed in
  let probe_args = List.concat_map (fun p -> [ "--probe"; p ]) probes in
  let args = [ "-t"; Printf.sprintf "%g" frac_t_end; "--steps"; string_of_int steps ] @ probe_args in
  let cols = List.length probes in
  (* the naive history scan at the same m (the FFT path's 1e-10
     relative contract), run once through the same binary *)
  let naive =
    lazy
      (let path = work "frac-long.sp" in
       let out = work "frac-long.naive.out" in
       let r =
         Proc.run ~prog:opm_sim ~args:((path :: args) @ [ "--no-fft-rhs" ])
           ~stdout_file:out ~stderr_file:(work "frac-long.naive.err")
       in
       if r.exit_code <> 0 then wrong "--no-fft-rhs reference run exited %d" r.exit_code;
       snd (parse_csv ~rows:steps ~cols (Proc.read_file out)))
  in
  (* independent accuracy reference: Jacobi-Gauss spectral collocation,
     exponentially convergent on the smooth sine drive *)
  let spectral =
    lazy
      (let net = Parser.parse_string netlist in
       let mt, srcs =
         Mna.stamp ~outputs:(List.map (fun p -> Mna.Node_voltage p) probes) net
       in
       (Opm.simulate_multi_term ~basis:`Spectral
          ~grid:(Grid.uniform ~t_end:frac_t_end ~m:64) mt srcs)
         .Sim_result.outputs)
  in
  {
    name = "frac-long";
    netlist;
    args;
    check =
      (fun out ->
        let times, chans = parse_csv ~rows:steps ~cols out in
        let err_db =
          Error.waveform_error_db ~reference:(Lazy.force spectral)
            (Waveform.make times chans)
        in
        let rel = rel_error ~reference:(Lazy.force naive) chans in
        if not (rel <= 1e-10) then
          wrong ~accuracy:(-.err_db) "FFT vs naive history: relative error %.3g" rel;
        -.err_db);
    replay = replay_tran ~probes ~t_end:frac_t_end ~steps;
  }
