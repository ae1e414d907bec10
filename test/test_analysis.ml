(* Tests for AC/DC analysis and their consistency with the time-domain
   solvers. *)

open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_core
open Opm_circuit
open Opm_analysis

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)

let rc_netlist () =
  Parser.parse_string "V1 in 0 dc 0\nR1 in out 1k\nC1 out 0 1u\n"

(* ---------- DC ---------- *)

let test_dc_divider () =
  let net = Parser.parse_string "V1 in 0 dc 1\nR1 in mid 2k\nR2 mid 0 1k\n" in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "mid" ] net in
  close "divider" (1.0 /. 3.0) (Dc.outputs_at sys ~u0:[| 1.0 |]).(0) ~tol:1e-12

let test_dc_gain_matrix () =
  let net = rc_netlist () in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] net in
  let g = Dc.dc_gain sys in
  (* RC low-pass passes DC unchanged *)
  close "unity DC gain" 1.0 (Mat.get g 0 0) ~tol:1e-12

let test_dc_inductor_short () =
  (* at DC the inductor is a short: the divider sees only resistors *)
  let net =
    Parser.parse_string "V1 in 0 dc 1\nR1 in a 1k\nL1 a b 1m\nR2 b 0 1k\n"
  in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "b" ] net in
  close "half" 0.5 (Dc.outputs_at sys ~u0:[| 1.0 |]).(0) ~tol:1e-12

let test_dc_vcvs_amplifier () =
  let net =
    Parser.parse_string "V1 in 0 dc 1\nR1 in 0 1k\nE1 out 0 in 0 5\nR2 out 0 1k\n"
  in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] net in
  close "gain 5" 5.0 (Dc.outputs_at sys ~u0:[| 1.0 |]).(0) ~tol:1e-12

let test_dc_vccs_transresistance () =
  (* v_out = −gm·R·v_in *)
  let net =
    Parser.parse_string "V1 in 0 dc 1\nG1 out 0 in 0 2m\nR1 out 0 1k\n"
  in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] net in
  close "-gmR" (-2.0) (Dc.outputs_at sys ~u0:[| 1.0 |]).(0) ~tol:1e-10

let test_dc_u0_mismatch () =
  let net = rc_netlist () in
  let sys, _ = Mna.stamp_linear net in
  check_bool "raises" true
    (try
       ignore (Dc.operating_point sys ~u0:[| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true)

(* A 3×3×2 power grid with standby loads and no supply pad has no DC
   path to ground: A is singular, yet its last pivot is rounding noise
   (~1e-17) rather than zero. DC must refuse it, not print ~1e9 V. *)
let floating_grid ?(pad_r = 0.05) ~pad () =
  let spec =
    {
      Power_grid.default_spec with
      nx = 3;
      ny = 3;
      nz = 2;
      load_count = 2;
      load =
        Source.Pulse
          { low = 0.2e-3; high = 1e-3; delay = 20e-12; width = 50e-12; period = 100e-12 };
    }
  in
  let net = Power_grid.generate spec in
  if pad then
    Netlist.add net
      (Netlist.r "Rpad" (Power_grid.node_name ~x:1 ~y:1 ~z:1) "0" pad_r);
  net

let raises_ill_conditioned name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected an ill-conditioned error")
  | exception
      Opm_robust.Opm_error.Error (Opm_robust.Opm_error.Ill_conditioned { cond; limit; _ })
    ->
      check_bool
        (Printf.sprintf "%s: cond %.3g >= 1/eps" name cond)
        true
        (cond >= limit && limit = 1.0 /. epsilon_float)

let test_dc_floating_grid () =
  let stamp net =
    let sys, srcs = Mna.stamp_linear net in
    (sys, Array.map (fun s -> Source.eval s 0.0) srcs)
  in
  let sys, u0 = stamp (floating_grid ~pad:false ()) in
  raises_ill_conditioned "operating_point" (fun () -> Dc.operating_point sys ~u0);
  raises_ill_conditioned "dc_gain" (fun () -> Dc.dc_gain sys);
  (* one pad to ground makes it well posed: no false alarm *)
  let sys, u0 = stamp (floating_grid ~pad:true ()) in
  let x = Dc.operating_point sys ~u0 in
  let r =
    Vec.add (Opm_sparse.Csr.mul_vec sys.Descriptor.a x)
      (Mat.mul_vec sys.Descriptor.b u0)
  in
  check_bool "grounded grid: A x = -B u0" true (Vec.norm_inf r < 1e-12)

(* Conductances spanning 1e16 — a 1 mΩ pad, and a sense node hung on
   two 10 TΩ leaks — make cond(A) exceed 1/ε although the circuit is
   grounded and its solution exact; the row-equilibrated estimate the
   refusal reads stays near 1e3. *)
let test_dc_extreme_values_not_refused () =
  let net = floating_grid ~pad_r:1e-3 ~pad:true () in
  let node = Power_grid.node_name ~x:0 ~y:0 ~z:0 in
  Netlist.add net (Netlist.r "Rleak1" node "sense" 1e13);
  Netlist.add net (Netlist.r "Rleak2" "sense" "0" 1e13);
  let sys, srcs = Mna.stamp_linear net in
  let u0 = Array.map (fun s -> Source.eval s 0.0) srcs in
  check_bool "cond(A) itself is past 1/eps" true
    (Opm_sparse.Slu.cond_est (Opm_sparse.Slu.factor sys.Descriptor.a)
     >= 1.0 /. epsilon_float);
  let x = Dc.operating_point sys ~u0 in
  let r =
    Vec.add (Opm_sparse.Csr.mul_vec sys.Descriptor.a x)
      (Mat.mul_vec sys.Descriptor.b u0)
  in
  check_bool "A x = -B u0" true (Vec.norm_inf r < 1e-12);
  let names = Mna.state_names net in
  let v name =
    let rec find i = if names.(i) = "v(" ^ name ^ ")" then x.(i) else find (i + 1) in
    find 0
  in
  check_bool "sense node halves its neighbour" true
    (Float.abs (v "sense" -. (0.5 *. v node)) <= 1e-12 *. Float.abs (v node))

(* the CLI maps the error to exit status 1 and prints no value *)
let test_dc_floating_grid_cli () =
  let sp = Filename.temp_file "floating_grid" ".sp" in
  let out = Filename.temp_file "floating_grid" ".out" in
  Out_channel.with_open_text sp (fun oc ->
      output_string oc (Netlist.to_string (floating_grid ~pad:false ())));
  let code =
    Sys.command
      (Filename.quote_command "../bin/opm_sim.exe"
         [ sp; "--mode"; "dc"; "--probe"; Power_grid.node_name ~x:0 ~y:0 ~z:0 ]
         ~stdout:out ~stderr:Filename.null)
  in
  let printed = In_channel.with_open_text out In_channel.input_all in
  Sys.remove sp;
  Sys.remove out;
  Alcotest.(check int) "exit status" 1 code;
  Alcotest.(check string) "nothing printed" "" printed

(* ---------- AC ---------- *)

let test_ac_rc_pole () =
  let sys, _ =
    Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] (rc_netlist ())
  in
  let w0 = 1.0 /. (1e3 *. 1e-6) in
  let g = Ac.transfer sys w0 in
  close "-3 dB at the pole" (1.0 /. sqrt 2.0)
    (Complex.norm (Cmat.get g 0 0))
    ~tol:1e-9;
  close "phase -45°"
    (-.Float.pi /. 4.0)
    (Complex.arg (Cmat.get g 0 0))
    ~tol:1e-9

let test_ac_rolloff_20db_per_decade () =
  let sys, _ =
    Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] (rc_netlist ())
  in
  let pts = Ac.sweep ~omega_min:1e4 ~omega_max:1e6 ~points:3 sys in
  match pts with
  | [ p1; p2; p3 ] ->
      let g1 = Ac.gain_db p1 ~input:0 ~output:0 in
      let g2 = Ac.gain_db p2 ~input:0 ~output:0 in
      let g3 = Ac.gain_db p3 ~input:0 ~output:0 in
      close "first decade" (-20.0) (g2 -. g1) ~tol:0.2;
      close "second decade" (-20.0) (g3 -. g2) ~tol:0.05
  | _ -> Alcotest.fail "expected 3 points"

let test_ac_fractional_slope () =
  (* a half-order pole rolls off at 10 dB/decade *)
  let sys = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0 in
  let pts = Ac.sweep ~alpha:0.5 ~omega_min:1e4 ~omega_max:1e6 ~points:3 sys in
  match pts with
  | [ p1; p2; _ ] ->
      close "10 dB/decade" (-10.0)
        (Ac.gain_db p2 ~input:0 ~output:0 -. Ac.gain_db p1 ~input:0 ~output:0)
        ~tol:0.3
  | _ -> Alcotest.fail "expected 3 points"

let test_ac_matches_time_domain_steady_state () =
  (* drive the RC with a sine, compare the settled amplitude/phase with
     the AC prediction *)
  let sys, srcs_template =
    Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] (rc_netlist ())
  in
  ignore srcs_template;
  let f_hz = 500.0 in
  let w = 2.0 *. Float.pi *. f_hz in
  let srcs =
    [| Source.Sine { amplitude = 1.0; freq_hz = f_hz; phase = 0.0; offset = 0.0 } |]
  in
  let t_end = 20e-3 in
  let grid = Grid.uniform ~t_end ~m:8000 in
  let r = Opm.simulate_linear ~grid sys srcs in
  let y = Sim_result.output r 0 in
  (* peak amplitude over the last few periods *)
  let late = Array.sub y 7000 1000 in
  let amp = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 late in
  let g = Ac.transfer sys w in
  close "steady-state amplitude = |G(jω)|"
    (Complex.norm (Cmat.get g 0 0))
    amp ~tol:2e-3

let test_bode_csv () =
  let sys, _ =
    Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] (rc_netlist ())
  in
  let pts = Ac.sweep ~omega_min:1.0 ~omega_max:100.0 ~points:5 sys in
  let csv = Ac.bode_csv ~input:0 ~output:0 pts in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 5 rows" 6 (List.length lines);
  check_bool "header" true (List.hd lines = "omega,gain_db,phase_deg")

let test_ac_sweep_validation () =
  let sys = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0 in
  check_bool "points < 2" true
    (try
       ignore (Ac.sweep ~omega_min:1.0 ~omega_max:10.0 ~points:1 sys);
       false
     with Invalid_argument _ -> true);
  check_bool "bad range" true
    (try
       ignore (Ac.sweep ~omega_min:10.0 ~omega_max:1.0 ~points:3 sys);
       false
     with Invalid_argument _ -> true)

(* ---------- Sweep ---------- *)

let test_sweep_run_and_extremes () =
  let pairs = Sweep.run (fun x -> (x -. 2.0) ** 2.0) [| 0.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "all evaluated" 4 (Array.length pairs);
  let v_min, m_min = Sweep.argmin pairs in
  close "argmin value" 2.0 v_min;
  close "min" 0.0 m_min;
  let v_max, _ = Sweep.argmax pairs in
  close "argmax value" 0.0 v_max

let test_sweep_statistics () =
  let s = Sweep.statistics [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  close "mean" 3.0 s.Sweep.mean;
  close "std" (sqrt 2.5) s.Sweep.std ~tol:1e-12;
  close "median" 3.0 s.Sweep.median;
  close "min" 1.0 s.Sweep.min;
  close "max" 5.0 s.Sweep.max;
  check_bool "quantile ordering" true (s.Sweep.q05 <= s.Sweep.median && s.Sweep.median <= s.Sweep.q95)

let test_sweep_monte_carlo_uniform () =
  let s =
    Sweep.monte_carlo ~seed:7 ~samples:4000
      ~sampler:(Sweep.uniform ~lo:0.0 ~hi:1.0)
      Fun.id
  in
  close "mean ≈ 1/2" 0.5 s.Sweep.mean ~tol:0.02;
  close "std ≈ 1/√12" (1.0 /. sqrt 12.0) s.Sweep.std ~tol:0.02

let test_sweep_monte_carlo_reproducible () =
  let once () =
    Sweep.monte_carlo ~seed:11 ~samples:100
      ~sampler:(Sweep.gaussian ~mean:5.0 ~std:1.0)
      Fun.id
  in
  close "deterministic" (once ()).Sweep.mean (once ()).Sweep.mean ~tol:0.0

let test_sweep_circuit_study () =
  (* rise time of an RC ladder vs segment resistance: monotone *)
  let rise r =
    let net =
      Generators.rc_ladder ~r ~c:1e-9 ~sections:3
        ~input:(Source.Step { amplitude = 1.0; delay = 0.0 })
        ()
    in
    let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n3" ] net in
    let t_end = 60.0 *. r *. 1e-9 in
    let result = Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m:800) sys srcs in
    Measure.rise_time result.Sim_result.outputs ~channel:0
  in
  let pairs = Sweep.run rise [| 500.0; 1000.0; 2000.0 |] in
  let times = Array.map snd pairs in
  check_bool "monotone in R" true (times.(0) < times.(1) && times.(1) < times.(2));
  (* rise time scales linearly with R *)
  close "2x R, 2x rise" 2.0 (times.(2) /. times.(1)) ~tol:0.1

(* ---------- Poles ---------- *)

let test_poles_rc () =
  (* single pole at −1/RC; the V source makes E singular (a DAE) *)
  let sys, _ = Mna.stamp_linear (rc_netlist ()) in
  let poles = Poles.of_descriptor ~shift:(-123.0) sys in
  Alcotest.(check int) "one finite pole" 1 (Array.length poles);
  close "−1/RC" (-1000.0) poles.(0).Complex.re ~tol:1e-6;
  check_bool "stable" true (Poles.is_stable ~shift:(-123.0) sys)

let test_poles_lc_tank () =
  let net = Parser.parse_string "I1 top 0 dc 0\nC1 top 0 1n\nL1 top 0 1u\n" in
  let sys, _ = Mna.stamp_linear net in
  let poles = Poles.of_descriptor sys in
  Alcotest.(check int) "two poles" 2 (Array.length poles);
  let w = 1.0 /. sqrt (1e-6 *. 1e-9) in
  Array.iter
    (fun z ->
      close "purely imaginary" 0.0 z.Complex.re ~tol:1.0;
      close "at ±1/√LC" w (Float.abs z.Complex.im) ~tol:(1e-6 *. w))
    poles

let test_poles_sallen_key () =
  let net =
    Parser.parse_string
      "V1 in 0 dc 0\nR1 in a 10k\nR2 a b 10k\nC1 a out 32n\nC2 b 0 2n\nE1 out 0 b 0 1\n"
  in
  let sys, _ = Mna.stamp_linear net in
  let poles = Poles.of_descriptor ~shift:7.0 sys in
  Alcotest.(check int) "conjugate pair" 2 (Array.length poles);
  (* ω0 = 1/(R√(C1C2)) = 12.5 krad/s, Q = 2 *)
  let w0 = 12500.0 and q = 2.0 in
  Array.iter
    (fun z ->
      close "Re = −ω0/2Q" (-.w0 /. (2.0 *. q)) z.Complex.re ~tol:1e-3;
      close "|λ| = ω0" w0 (Complex.norm z) ~tol:1e-3)
    poles

let test_poles_dominant () =
  let net =
    Parser.parse_string
      "I1 a 0 dc 0\nR1 a 0 1k\nC1 a 0 1u\nR2 a b 1k\nC2 b 0 1n\n"
  in
  let sys, _ = Mna.stamp_linear net in
  let dom = Poles.dominant sys in
  (* slowest time constant ~ (R1)(C1): pole near −1/(1k·1u) = −1000 *)
  check_bool "dominant is the slow pole" true
    (dom.Complex.re > -3000.0 && dom.Complex.re < 0.0)

let test_matignon_criterion () =
  (* λ = −1 is stable for every α in (0, 2) *)
  check_bool "negative real" true
    (Poles.fractional_stability_angle ~alpha:0.5 { Complex.re = -1.0; im = 0.0 });
  (* λ = +1 is unstable for every α *)
  check_bool "positive real" false
    (Poles.fractional_stability_angle ~alpha:0.5 { Complex.re = 1.0; im = 0.0 });
  (* λ = ±j (arg π/2): stable iff α < 1 *)
  let j = { Complex.re = 0.0; im = 1.0 } in
  check_bool "jω stable for α=0.9" true
    (Poles.fractional_stability_angle ~alpha:0.9 j);
  check_bool "jω unstable for α=1.1" false
    (Poles.fractional_stability_angle ~alpha:1.1 j)

let test_poles_match_time_domain_decay () =
  (* simulate and compare the dominant decay rate against the pole *)
  let net = Parser.parse_string "I1 a 0 dc 0\nR1 a 0 2k\nC1 a 0 1u\n" in
  let sys, _ = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "a" ] net in
  let pole = (Poles.dominant sys).Complex.re in
  close "pole = −1/RC" (-500.0) pole ~tol:1e-6;
  let r =
    Opm.simulate_linear ~x0:[| 1.0 |]
      ~grid:(Grid.uniform ~t_end:4e-3 ~m:1000)
      sys
      [| Source.Dc 0.0 |]
  in
  let y = Sim_result.output r 0 in
  (* fit the decay between two samples: ln(y1/y2)/(t2−t1) ≈ −pole *)
  let mids = Grid.midpoints r.Sim_result.grid in
  let rate = log (y.(100) /. y.(600)) /. (mids.(600) -. mids.(100)) in
  close "decay rate" (-.pole) rate ~tol:1.0

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "analysis"
    [
      ( "dc",
        [
          t "resistive divider" test_dc_divider;
          t "dc gain matrix" test_dc_gain_matrix;
          t "inductor is a short" test_dc_inductor_short;
          t "vcvs amplifier" test_dc_vcvs_amplifier;
          t "vccs transresistance" test_dc_vccs_transresistance;
          t "floating grid refused" test_dc_floating_grid;
          t "floating grid cli exit 1" test_dc_floating_grid_cli;
          t "extreme values not refused" test_dc_extreme_values_not_refused;
          t "u0 mismatch" test_dc_u0_mismatch;
        ] );
      ( "ac",
        [
          t "RC pole gain/phase" test_ac_rc_pole;
          t "-20 dB/decade" test_ac_rolloff_20db_per_decade;
          t "fractional -10 dB/decade" test_ac_fractional_slope;
          t "matches time-domain steady state"
            test_ac_matches_time_domain_steady_state;
          t "bode csv" test_bode_csv;
          t "sweep validation" test_ac_sweep_validation;
        ] );
      ( "sweep",
        [
          t "run + extremes" test_sweep_run_and_extremes;
          t "statistics" test_sweep_statistics;
          t "monte carlo uniform moments" test_sweep_monte_carlo_uniform;
          t "monte carlo reproducible" test_sweep_monte_carlo_reproducible;
          t "circuit rise-time study" test_sweep_circuit_study;
        ] );
      ( "poles",
        [
          t "RC single pole (DAE)" test_poles_rc;
          t "LC tank ±jω" test_poles_lc_tank;
          t "Sallen-Key conjugate pair" test_poles_sallen_key;
          t "dominant pole" test_poles_dominant;
          t "Matignon fractional criterion" test_matignon_criterion;
          t "pole matches time-domain decay" test_poles_match_time_domain_decay;
        ] );
    ]
