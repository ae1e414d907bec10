(* Tests for the OPM solver core: descriptors, the column-by-column
   engine, the high-level simulate functions and the adaptive driver. *)

open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
open Opm_core

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dense_ops terms = List.map (fun (e, d) -> (e, Engine.Dense d)) terms

let step = Source.Step { amplitude = 1.0; delay = 0.0 }

let max_err_against f result =
  let y = Sim_result.output result 0 in
  let mids = Grid.midpoints result.Sim_result.grid in
  let err = ref 0.0 in
  Array.iteri (fun i t -> err := Float.max !err (Float.abs (y.(i) -. f t))) mids;
  !err

(* ---------- Descriptor ---------- *)

let test_descriptor_dims () =
  let sys = Descriptor.random_stable ~n:7 ~p:2 ~q:3 () in
  check_int "order" 7 (Descriptor.order sys);
  check_int "inputs" 2 (Descriptor.input_count sys);
  check_int "outputs" 3 (Descriptor.output_count sys)

let test_descriptor_validation () =
  check_bool "B row mismatch rejected" true
    (try
       ignore
         (Descriptor.of_dense ~e:(Mat.eye 2) ~a:(Mat.eye 2) ~b:(Mat.zeros 3 1)
            ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true);
  check_bool "bad state name count rejected" true
    (try
       ignore
         (Descriptor.of_dense ~state_names:[| "only-one" |] ~e:(Mat.eye 2)
            ~a:(Mat.eye 2) ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true)

let test_descriptor_observe_states () =
  let sys = Descriptor.random_stable ~n:5 ~p:1 ~q:1 () in
  let all = Descriptor.observe_states sys in
  check_int "outputs = states" 5 (Descriptor.output_count all)

let test_descriptor_random_stable_is_stable () =
  (* diagonally dominant negative: simulate and check decay *)
  let sys = Descriptor.random_stable ~seed:7 ~n:8 ~p:1 ~q:1 () in
  let grid = Grid.uniform ~t_end:20.0 ~m:400 in
  let r = Opm.simulate_linear ~grid sys [| Source.Dc 0.0 |] in
  (* zero input from zero state stays zero; drive with a pulse instead *)
  ignore r;
  let r =
    Opm.simulate_linear ~grid sys
      [|
        Source.Pulse
          { low = 0.0; high = 1.0; delay = 0.0; width = 0.5; period = Float.infinity };
      |]
  in
  let y = Sim_result.output r 0 in
  check_bool "decays after the pulse" true
    (Float.abs y.(399) < 1e-6 *. Float.max 1.0 (Vec.norm_inf y))

(* ---------- Multi_term ---------- *)

let test_multi_term_validation () =
  check_bool "empty terms rejected" true
    (try
       ignore (Multi_term.make ~terms:[] ~a:(Csr.eye 2) ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true);
  check_bool "alpha <= 0 rejected" true
    (try
       ignore
         (Multi_term.make ~terms:[ (Csr.eye 2, -0.5) ] ~a:(Csr.eye 2)
            ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true)

let test_multi_term_of_linear () =
  let sys = Descriptor.scalar ~e:2.0 ~a:(-1.0) ~b:1.0 in
  let mt = Multi_term.of_linear sys in
  check_int "one term" 1 (List.length mt.Multi_term.terms);
  close "alpha" 1.0 (Multi_term.max_alpha mt);
  check_int "input order" 0 mt.Multi_term.input_order

let test_multi_term_second_order () =
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 3) ~m1:(Csr.scale 2.0 (Csr.eye 3))
      ~m0:(Csr.scale 5.0 (Csr.eye 3))
      ~b:(Mat.zeros 3 1) ~c:(Mat.eye 3) ()
  in
  close "max alpha" 2.0 (Multi_term.max_alpha mt);
  (* A = −M₀ *)
  close "a sign" (-5.0) (Csr.get mt.Multi_term.a 1 1)

(* ---------- Engine ---------- *)

let random_system seed n =
  let sys = Descriptor.random_stable ~seed ~n ~p:1 ~q:1 () in
  (Descriptor.e_dense sys, Descriptor.a_dense sys)

let test_engine_column_equals_kron () =
  let e, a = random_system 3 5 in
  let m = 9 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d = Block_pulse.differential_matrix grid in
  let st = Random.State.make [| 4 |] in
  let bu = Mat.init 5 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let x1 = Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu () in
  let x2 = Engine.solve_dense_kron ~terms:[ (e, d) ] ~a ~bu in
  close "identical" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-8

let test_engine_sparse_equals_dense () =
  let e, a = random_system 11 12 in
  let m = 7 in
  let grid = Grid.uniform ~t_end:2.0 ~m in
  let d = Block_pulse.fractional_differential_matrix grid 0.6 in
  let st = Random.State.make [| 5 |] in
  let bu = Mat.init 12 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let xd = Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu () in
  let xs =
    Engine.solve_sparse ~terms:[ (Csr.of_dense e, Engine.Dense d) ] ~a:(Csr.of_dense a) ~bu ()
  in
  close "identical" 0.0 (Mat.max_abs_diff xd xs) ~tol:1e-9

let test_engine_multi_term_kron () =
  (* two terms: E₂ẍ-like + E₁ẋ-like against the Kronecker oracle *)
  let e2, _ = random_system 21 4 in
  let e1, a = random_system 22 4 in
  let m = 6 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d1 = Block_pulse.differential_matrix grid in
  let d2 = Block_pulse.fractional_differential_matrix grid 2.0 in
  let st = Random.State.make [| 6 |] in
  let bu = Mat.init 4 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let terms = [ (e2, d2); (e1, d1) ] in
  let x1 = Engine.solve_dense ~terms:(dense_ops terms) ~a ~bu () in
  let x2 = Engine.solve_dense_kron ~terms ~a ~bu in
  close "identical" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-7

let test_engine_residual () =
  (* the solution actually satisfies E X D = A X + BU *)
  let e, a = random_system 31 6 in
  let m = 8 in
  let grid = Grid.geometric ~t_end:1.0 ~m ~ratio:1.3 in
  let d = Block_pulse.differential_matrix grid in
  let st = Random.State.make [| 7 |] in
  let bu = Mat.init 6 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu () in
  let residual = Mat.sub (Mat.mul (Mat.mul e x) d) (Mat.add (Mat.mul a x) bu) in
  close "residual" 0.0 (Mat.max_abs_diff residual (Mat.zeros 6 m)) ~tol:1e-7

let test_linear_fast_path_equals_generic () =
  (* the §III-A special-pattern recurrence vs the generic triangular
     engine with the explicit D matrix and the full Kronecker system of
     eq. (15), on uniform and adaptive grids *)
  let e, a = random_system 51 7 in
  List.iter
    (fun grid ->
      let m = Grid.size grid in
      let st = Random.State.make [| 8 |] in
      let bu = Mat.init 7 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
      let d = Block_pulse.differential_matrix grid in
      let x_generic = Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu () in
      let x_fast = Engine.solve_linear_dense ~steps:(Grid.steps grid) ~e ~a ~bu () in
      close "fast = generic" 0.0 (Mat.max_abs_diff x_fast x_generic) ~tol:1e-8;
      let x_kron = Engine.solve_dense_kron ~terms:[ (e, d) ] ~a ~bu in
      close "kron = generic" 0.0 (Mat.max_abs_diff x_kron x_generic) ~tol:1e-10;
      let x_sparse =
        Engine.solve_linear_sparse ~steps:(Grid.steps grid)
          ~e:(Csr.of_dense e) ~a:(Csr.of_dense a) ~bu ()
      in
      close "sparse fast = dense fast" 0.0
        (Mat.max_abs_diff x_sparse x_fast) ~tol:1e-9)
    [ Grid.uniform ~t_end:2.0 ~m:12; Grid.adaptive [| 0.2; 0.5; 0.1; 0.7; 0.3 |] ]

(* regression: the order-1 fast path now skips the E·salt coupling
   matvec whenever the running alternating sum is exactly zero (column
   0, and any column where the sum cancels to ±0.0 in every entry).
   The skip must be invisible: a straight-line replica of the historical
   recurrence — same pencil, same factorisation, same operation order,
   coupling matvec applied *unconditionally* — must produce bit-identical
   columns, because E·0 = 0 and adding ±0.0 never changes a float. *)
let test_linear_salt_skip_bit_identity () =
  let n = 6 in
  let e, a = random_system 77 n in
  let grid = Grid.uniform ~t_end:1.5 ~m:40 in
  let steps = Grid.steps grid in
  let m = Array.length steps in
  let st = Random.State.make [| 21 |] in
  let bu = Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let reference =
    let x = Mat.zeros n m in
    let salt = Array.make n 0.0 in
    let lu = ref None in
    for i = 0 to m - 1 do
      let h = steps.(i) in
      let rhs = Array.init n (fun r -> Mat.get bu r i) in
      let sign = if i land 1 = 1 then -1.0 else 1.0 in
      let coupling = Mat.mul_vec e salt in
      Vec.axpy (-4.0 /. h *. sign) coupling rhs;
      let f =
        match !lu with
        | Some f -> f
        | None ->
            let f = Lu.factor (Mat.sub (Mat.scale (2.0 /. h) e) a) in
            lu := Some f;
            f
      in
      let xi = Lu.solve f rhs in
      Mat.set_col x i xi;
      Vec.axpy sign xi salt
    done;
    x
  in
  let fast = Engine.solve_linear_dense ~steps ~e ~a ~bu () in
  for i = 0 to m - 1 do
    for r = 0 to n - 1 do
      if Mat.get fast r i <> Mat.get reference r i then
        Alcotest.failf "column %d row %d: %.17g <> %.17g (not bit-identical)"
          i r (Mat.get fast r i) (Mat.get reference r i)
    done
  done

(* regression: the step-size → factorisation cache was an unbounded
   assoc list keyed on the exact float step, so a fully-adaptive grid
   both scanned the whole list per column (O(m²)) and grew without
   bound. The Hashtbl replacement must stay capacity-bounded while
   keeping the fast path exact on a 512-step adaptive grid. *)
let test_factor_cache_bounded () =
  let cache = Engine.Factor_cache.create () in
  let m = 512 in
  let grid = Grid.geometric ~t_end:1.0 ~m ~ratio:1.005 in
  let steps = Grid.steps grid in
  Array.iter
    (fun h ->
      let f = Engine.Factor_cache.find_or_add cache h (fun h -> 2.0 /. h) in
      close "cached value" (2.0 /. h) f ~tol:0.0)
    steps;
  check_bool "cache stays bounded on an all-distinct-step grid" true
    (Engine.Factor_cache.length cache <= Engine.Factor_cache.default_capacity);
  check_int "every distinct step is a miss" m (Engine.Factor_cache.misses cache);
  (* a uniform grid is one miss and m − 1 hits *)
  let uniform = Engine.Factor_cache.create () in
  Array.iter
    (fun h -> ignore (Engine.Factor_cache.find_or_add uniform h (fun h -> h)))
    (Grid.steps (Grid.uniform ~t_end:1.0 ~m));
  check_int "uniform grid factorises once" 1 (Engine.Factor_cache.misses uniform);
  check_int "uniform grid hits the cache" (m - 1) (Engine.Factor_cache.hits uniform);
  check_bool "tiny capacity accepted" true
    (Engine.Factor_cache.length (Engine.Factor_cache.create ~capacity:1 ()) = 0);
  check_bool "capacity 0 rejected" true
    (try
       ignore (Engine.Factor_cache.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_linear_fast_path_adaptive_512 () =
  (* end-to-end: the cached fast path on a 512-step fully-adaptive grid
     (every lookup misses and evicts) still matches the generic engine *)
  let e, a = random_system 61 3 in
  let m = 512 in
  let grid = Grid.geometric ~t_end:1.0 ~m ~ratio:1.005 in
  let st = Random.State.make [| 9 |] in
  let bu = Mat.init 3 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let d = Block_pulse.differential_matrix grid in
  let x_generic = Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu () in
  let x_fast = Engine.solve_linear_dense ~steps:(Grid.steps grid) ~e ~a ~bu () in
  close "adaptive 512-step fast path = generic" 0.0
    (Mat.max_abs_diff x_fast x_generic) ~tol:1e-6

let test_engine_dimension_check () =
  let e, a = random_system 41 3 in
  let d = Block_pulse.differential_matrix (Grid.uniform ~t_end:1.0 ~m:4) in
  check_bool "bu size mismatch rejected" true
    (try
       ignore (Engine.solve_dense ~terms:[ (e, Engine.Dense d) ] ~a ~bu:(Mat.zeros 3 5) ());
       false
     with Invalid_argument _ -> true)

(* ---------- Opm.simulate_linear vs analytic ---------- *)

let rc = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0

let test_linear_rc_step () =
  let grid = Grid.uniform ~t_end:5.0 ~m:200 in
  let r = Opm.simulate_linear ~grid rc [| step |] in
  check_bool "max err < 1e-4" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) r < 1e-4)

let test_linear_rc_sine () =
  (* forced response of ẋ = −x + sin(ωt): exact from phasor + transient *)
  let w = 2.0 in
  let src = Source.Sine { amplitude = 1.0; freq_hz = w /. (2.0 *. Float.pi); phase = 0.0; offset = 0.0 } in
  let grid = Grid.uniform ~t_end:6.0 ~m:600 in
  let r = Opm.simulate_linear ~grid rc [| src |] in
  let exact t =
    (* x = (sin wt − w cos wt + w e^{−t})/(1+w²) *)
    ((sin (w *. t)) -. (w *. cos (w *. t)) +. (w *. exp (-.t))) /. (1.0 +. (w *. w))
  in
  check_bool "max err < 2e-4" true (max_err_against exact r < 2e-4)

let test_linear_dae () =
  (* DAE: x1' = −x1 + u; 0 = x2 − 2·x1 (E singular) *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| -2.0; 1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0 |]; [| 0.0 |] |] in
  let c = Mat.of_arrays [| [| 0.0; 1.0 |] |] in
  let sys = Descriptor.of_dense ~e ~a ~b ~c () in
  let grid = Grid.uniform ~t_end:5.0 ~m:300 in
  let r = Opm.simulate_linear ~grid sys [| step |] in
  check_bool "algebraic variable tracks 2x₁" true
    (max_err_against (fun t -> 2.0 *. (1.0 -. exp (-.t))) r < 2e-4)

let test_linear_convergence_order () =
  (* halving h must shrink the error superlinearly (≈ O(h²) at midpoints) *)
  let err m =
    let grid = Grid.uniform ~t_end:2.0 ~m in
    max_err_against (fun t -> 1.0 -. exp (-.t))
      (Opm.simulate_linear ~grid rc [| step |])
  in
  let e1 = err 50 and e2 = err 100 and e3 = err 200 in
  check_bool "monotone" true (e1 > e2 && e2 > e3);
  check_bool "at least order 1.5" true (e1 /. e2 > 2.8 && e2 /. e3 > 2.8)

let test_linear_two_inputs () =
  (* superposition: response to (u1, u2) = response u1 + response u2 *)
  let sys =
    Descriptor.of_dense
      ~e:(Mat.eye 2)
      ~a:(Mat.of_arrays [| [| -1.0; 0.2 |]; [| 0.1; -2.0 |] |])
      ~b:(Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |])
      ~c:(Mat.eye 2) ()
  in
  let grid = Grid.uniform ~t_end:3.0 ~m:60 in
  let both = Opm.simulate_linear ~grid sys [| step; Source.Dc 0.5 |] in
  let only1 = Opm.simulate_linear ~grid sys [| step; Source.Dc 0.0 |] in
  let only2 = Opm.simulate_linear ~grid sys [| Source.Dc 0.0; Source.Dc 0.5 |] in
  let sum = Mat.add only1.Sim_result.x only2.Sim_result.x in
  close "superposition" 0.0 (Mat.max_abs_diff both.Sim_result.x sum) ~tol:1e-10

let test_linear_source_count_mismatch () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  check_bool "raises" true
    (try
       ignore (Opm.simulate_linear ~grid rc [| step; step |]);
       false
     with Invalid_argument _ -> true)

(* ---------- fractional ---------- *)

let test_fractional_relaxation_ml () =
  let grid = Grid.uniform ~t_end:2.0 ~m:400 in
  let r = Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |] in
  check_bool "tracks Mittag-Leffler" true
    (max_err_against (Special.ml_step_response ~alpha:0.5 ~lambda:1.0) r < 1e-2)

let test_fractional_alpha1_equals_linear () =
  let grid = Grid.uniform ~t_end:3.0 ~m:64 in
  let rf = Opm.simulate_fractional ~grid ~alpha:1.0 rc [| step |] in
  let rl = Opm.simulate_linear ~grid rc [| step |] in
  close "identical" 0.0 (Mat.max_abs_diff rf.Sim_result.x rl.Sim_result.x) ~tol:1e-10

let test_fractional_alpha_sweep_monotone_start () =
  (* smaller α responds faster at short times for relaxation *)
  let grid = Grid.uniform ~t_end:1.0 ~m:128 in
  let early alpha =
    let r = Opm.simulate_fractional ~grid ~alpha rc [| step |] in
    (Sim_result.output r 0).(6)
  in
  let a03 = early 0.3 and a06 = early 0.6 and a09 = early 0.9 in
  check_bool "fractional memory effect" true (a03 > a06 && a06 > a09)

let test_fractional_adaptive_grid () =
  (* geometric (distinct-step) grid exercises the Parlett path end-to-end *)
  let grid = Grid.geometric ~t_end:2.0 ~m:24 ~ratio:1.2 in
  let r = Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |] in
  check_bool "tracks Mittag-Leffler" true
    (max_err_against (Special.ml_step_response ~alpha:0.5 ~lambda:1.0) r < 5e-2)

let test_fractional_convergence () =
  let err m =
    let grid = Grid.uniform ~t_end:2.0 ~m in
    max_err_against
      (Special.ml_step_response ~alpha:0.5 ~lambda:1.0)
      (Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |])
  in
  let e1 = err 100 and e2 = err 400 in
  check_bool "refines" true (e2 < 0.6 *. e1)

(* ---------- high-order / multi-term ---------- *)

let test_second_order_oscillator () =
  (* ẍ = −x + u, step: x = 1 − cos t *)
  let mt =
    Multi_term.make ~terms:[ (Csr.eye 1, 2.0) ]
      ~a:(Csr.of_dense (Mat.of_arrays [| [| -1.0 |] |]))
      ~b:(Mat.eye 1) ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:6.28 ~m:1000 in
  let r = Opm.simulate_multi_term ~grid mt [| step |] in
  check_bool "1 − cos t" true (max_err_against (fun t -> 1.0 -. cos t) r < 1e-4)

let test_damped_oscillator () =
  (* ẍ + 2ζω ẋ + ω² x = ω² u with ζ = 0.5, ω = 2 *)
  let zeta = 0.5 and w = 2.0 in
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 1)
      ~m1:(Csr.scale (2.0 *. zeta *. w) (Csr.eye 1))
      ~m0:(Csr.scale (w *. w) (Csr.eye 1))
      ~b:(Mat.scale (w *. w) (Mat.eye 1))
      ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:8.0 ~m:2000 in
  let r = Opm.simulate_multi_term ~grid mt [| step |] in
  let wd = w *. sqrt (1.0 -. (zeta *. zeta)) in
  let exact t =
    1.0
    -. (exp (-.zeta *. w *. t)
       *. (cos (wd *. t) +. (zeta *. w /. wd *. sin (wd *. t))))
  in
  check_bool "underdamped step response" true (max_err_against exact r < 5e-4)

let test_mixed_order_terms () =
  (* ẋ + d^{1/2}x = −x + u has no elementary solution; check engine
     consistency against the Kronecker oracle instead *)
  let m = 8 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d1 = Block_pulse.differential_matrix grid in
  let d12 = Block_pulse.fractional_differential_matrix grid 0.5 in
  let e = Mat.eye 1 and a = Mat.of_arrays [| [| -1.0 |] |] in
  let bu = Mat.init 1 m (fun _ _ -> 1.0) in
  let terms = [ (e, d1); (e, d12) ] in
  let x1 = Engine.solve_dense ~terms:(dense_ops terms) ~a ~bu () in
  let x2 = Engine.solve_dense_kron ~terms ~a ~bu in
  close "column = kron" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-9

let test_companion_form () =
  (* damped oscillator: OPM on the 2nd-order form vs trapezoidal on the
     companion first-order form *)
  let zeta = 0.4 and w = 3.0 in
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 1)
      ~m1:(Csr.scale (2.0 *. zeta *. w) (Csr.eye 1))
      ~m0:(Csr.scale (w *. w) (Csr.eye 1))
      ~b:(Mat.scale (w *. w) (Mat.eye 1))
      ~c:(Mat.eye 1) ()
  in
  let first = Multi_term.to_first_order mt in
  check_int "doubled unknowns" 2 (Descriptor.order first);
  let t_end = 6.0 in
  let m = 3000 in
  let opm = Opm.simulate_multi_term ~grid:(Grid.uniform ~t_end ~m) mt [| step |] in
  let trap =
    Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
      ~h:(t_end /. float_of_int m) ~t_end first [| step |]
  in
  check_bool "agrees below −55 dB" true
    (Error.waveform_error_db ~reference:opm.Sim_result.outputs trap < -55.0)

let test_companion_first_order_passthrough () =
  let mt = Multi_term.of_linear rc in
  let back = Multi_term.to_first_order mt in
  check_int "no augmentation" 1 (Descriptor.order back)

let test_companion_rejects_fractional () =
  let mt = Multi_term.of_fractional ~alpha:0.5 rc in
  check_bool "raises" true
    (try
       ignore (Multi_term.to_first_order mt);
       false
     with Invalid_argument _ -> true)

let test_input_derivative_handling () =
  (* ẋ = −x + u̇ with u = ramp(slope 1): u̇ = step, so the response must
     equal the step response *)
  let mt_deriv =
    Multi_term.make ~input_order:1 ~terms:[ (Csr.eye 1, 1.0) ]
      ~a:(Csr.of_dense (Mat.of_arrays [| [| -1.0 |] |]))
      ~b:(Mat.eye 1) ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:4.0 ~m:256 in
  let r = Opm.simulate_multi_term ~grid mt_deriv [| Source.Ramp { slope = 1.0; delay = 0.0 } |] in
  check_bool "du/dt of ramp acts like step" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) r < 2e-2)

(* ---------- initial conditions ---------- *)

let test_x0_discharge () =
  (* ẋ = −x, x(0) = 1: x = e^{−t} *)
  let grid = Grid.uniform ~t_end:5.0 ~m:400 in
  let r = Opm.simulate_linear ~x0:[| 1.0 |] ~grid rc [| Source.Dc 0.0 |] in
  check_bool "tracks e^{−t}" true (max_err_against (fun t -> exp (-.t)) r < 1e-4)

let test_x0_fractional_discharge () =
  (* d^α x = −x, x(0) = 1: x = E_α(−t^α) *)
  let grid = Grid.uniform ~t_end:2.0 ~m:600 in
  let r =
    Opm.simulate_fractional ~x0:[| 1.0 |] ~grid ~alpha:0.5 rc [| Source.Dc 0.0 |]
  in
  let y = Sim_result.output r 0 in
  let mids = Grid.midpoints grid in
  let err = ref 0.0 in
  Array.iteri
    (fun i t ->
      if i > 5 then
        err :=
          Float.max !err
            (Float.abs (y.(i) -. Special.ml_relaxation ~alpha:0.5 ~lambda:1.0 t)))
    mids;
  check_bool "tracks Mittag-Leffler" true (!err < 2e-3)

let test_x0_superposition () =
  (* response(x0, u) = response(x0, 0) + response(0, u) *)
  let sys = Descriptor.random_stable ~seed:21 ~n:5 ~p:1 ~q:1 () in
  let grid = Grid.uniform ~t_end:1.0 ~m:64 in
  let x0 = Array.init 5 (fun i -> 0.3 *. float_of_int (i - 2)) in
  let both = Opm.simulate_linear ~x0 ~grid sys [| step |] in
  let only_x0 = Opm.simulate_linear ~x0 ~grid sys [| Source.Dc 0.0 |] in
  let only_u = Opm.simulate_linear ~grid sys [| step |] in
  let sum = Mat.add only_x0.Sim_result.x only_u.Sim_result.x in
  (* subtract the doubly-counted x0 offset: both solutions include x0 in
     only_x0, and only_u starts at 0 — the sum double counts nothing *)
  close "superposition" 0.0 (Mat.max_abs_diff both.Sim_result.x sum) ~tol:1e-9

let test_x0_size_check () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  check_bool "raises" true
    (try
       ignore (Opm.simulate_linear ~x0:[| 1.0; 2.0 |] ~grid rc [| step |]);
       false
     with Invalid_argument _ -> true)

let test_x0_spectral_discharge () =
  (* ẋ = −x, x(0) = 1 in the spectral basis: the x₀ shift enters only the
     right-hand side, and 16 nodes resolve e^{−t} to near roundoff *)
  let grid = Grid.uniform ~t_end:4.0 ~m:16 in
  let r =
    Opm.simulate_linear ~basis:`Spectral ~x0:[| 1.0 |] ~grid rc
      [| Source.Dc 0.0 |]
  in
  check_bool "spectral discharge" true
    (max_err_against (fun t -> exp (-.t)) r < 1e-6)

(* ---------- backends and result packaging ---------- *)

let test_backend_agreement () =
  let sys = Descriptor.random_stable ~seed:11 ~n:20 ~p:2 ~q:2 () in
  let grid = Grid.uniform ~t_end:2.0 ~m:32 in
  let srcs = [| step; Source.Dc 0.25 |] in
  let rd = Opm.simulate_linear ~backend:`Dense ~grid sys srcs in
  let rs = Opm.simulate_linear ~backend:`Sparse ~grid sys srcs in
  close "dense = sparse" 0.0 (Mat.max_abs_diff rd.Sim_result.x rs.Sim_result.x)
    ~tol:1e-10

let test_result_waveform_shape () =
  let grid = Grid.uniform ~t_end:1.0 ~m:16 in
  let r = Opm.simulate_linear ~grid rc [| step |] in
  check_int "samples" 16 (Waveform.sample_count r.Sim_result.outputs);
  check_int "channels" 1 (Waveform.channel_count r.Sim_result.outputs);
  check_int "state channels" 1 (Waveform.channel_count r.Sim_result.states);
  close "times are midpoints" (Grid.midpoints grid).(3)
    r.Sim_result.outputs.Waveform.times.(3)

let test_input_coefficients () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  let u = Opm.input_coefficients ~grid [| Source.Ramp { slope = 1.0; delay = 0.0 } |] in
  (* coefficients are interval averages of t: (i+1/2)h *)
  close "u0" 0.125 (Mat.get u 0 0) ~tol:1e-12;
  close "u3" 0.875 (Mat.get u 0 3) ~tol:1e-12

(* ---------- adaptive ---------- *)

let test_adaptive_accuracy () =
  let result, _stats = Adaptive.solve ~tol:1e-5 ~t_end:5.0 rc [| step |] in
  check_bool "within tolerance band" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) result < 1e-4)

let test_adaptive_grows_steps () =
  let result, stats = Adaptive.solve ~tol:1e-4 ~h_init:1e-3 ~t_end:10.0 rc [| step |] in
  let s = Grid.steps result.Sim_result.grid in
  let h_max = Array.fold_left Float.max 0.0 s in
  let h_min = Array.fold_left Float.min Float.infinity s in
  check_bool "step range spans >4x" true (h_max /. h_min >= 4.0);
  check_bool "few factorizations" true (stats.Adaptive.factorizations < 20)

let test_adaptive_covers_span () =
  let result, _ = Adaptive.solve ~tol:1e-4 ~t_end:3.0 rc [| step |] in
  close "steps sum to t_end" 3.0 (Grid.t_end result.Sim_result.grid) ~tol:1e-9

let test_adaptive_matches_uniform () =
  let sys = Descriptor.random_stable ~seed:3 ~n:6 ~p:1 ~q:1 () in
  let result, _ = Adaptive.solve ~tol:1e-7 ~t_end:2.0 sys [| step |] in
  let uniform = Opm.simulate_linear ~grid:(Grid.uniform ~t_end:2.0 ~m:4096) sys [| step |] in
  let err =
    Error.waveform_error_db ~reference:uniform.Sim_result.outputs
      result.Sim_result.outputs
  in
  check_bool "close to dense uniform answer" true (err < -60.0)

(* ---------- Toeplitz operands ---------- *)

let mat_bits_equal a b =
  let ra, ca = Mat.dims a and rb, cb = Mat.dims b in
  ra = rb && ca = cb
  &&
  let ok = ref true in
  for i = 0 to ra - 1 do
    for j = 0 to ca - 1 do
      if
        Int64.bits_of_float (Mat.get a i j)
        <> Int64.bits_of_float (Mat.get b i j)
      then ok := false
    done
  done;
  !ok

let rel_diff x y = Mat.max_abs_diff x y /. Float.max (Mat.norm_inf y) 1e-300

let solve_ops ~backend ?fft_history ~a ~bu terms =
  match backend with
  | `Dense -> Engine.solve_dense ?fft_history ~terms ~a ~bu ()
  | `Sparse ->
      Engine.solve_sparse ?fft_history
        ~terms:(List.map (fun (e, d) -> (Csr.of_dense e, d)) terms)
        ~a:(Csr.of_dense a) ~bu ()

(* FFT history blocks run by [f] (the obs counter the engine keeps),
   with the global FFT switch on whatever the environment says *)
let rhsconv_blocks f =
  let module M = Opm_obs.Metrics in
  let was = M.enabled () and fft_was = Engine.fft_rhs_enabled () in
  M.set_enabled true;
  M.reset ();
  Engine.set_fft_rhs_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_fft_rhs_enabled fft_was;
      M.reset ();
      M.set_enabled was)
    (fun () ->
      let r = f () in
      (r, M.counter_value (M.counter "engine.rhsconv.blocks")))

(* Each term as a Toeplitz row and as the dense builder's matrix, on
   both backends. Where the naive scan runs the two forms read the same
   numbers, so they agree bit for bit; with [~fft_history:true] past
   the crossover the Toeplitz form runs the FFT convolver and agrees to
   the ≤ 1e-10 contract. *)
let check_toeplitz_vs_dense ~m ~alphas ~expect_fft =
  let n = 6 in
  let _, a = random_system (40 + m) n in
  let grid = Grid.uniform ~t_end:1e-3 ~m in
  let st = Random.State.make [| m |] in
  let bu = Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let es =
    List.mapi (fun k _ -> fst (random_system (50 + k) n)) alphas
  in
  let dense =
    List.map2
      (fun e alpha ->
        (e, Engine.Dense (Block_pulse.fractional_differential_matrix grid alpha)))
      es alphas
  in
  let toep =
    List.map2
      (fun e alpha ->
        (e, Engine.Toeplitz (Block_pulse.fractional_differential_row grid alpha)))
      es alphas
  in
  List.iter
    (fun backend ->
      let label =
        Printf.sprintf "m = %d, α = [%s], %s" m
          (String.concat "; " (List.map string_of_float alphas))
          (match backend with `Dense -> "dense" | `Sparse -> "sparse")
      in
      let xd = solve_ops ~backend ~a ~bu dense in
      check_bool (label ^ ": naive Toeplitz = dense, bit for bit") true
        (mat_bits_equal (solve_ops ~backend ~a ~bu toep) xd);
      let xf, blocks =
        rhsconv_blocks (fun () ->
            solve_ops ~backend ~fft_history:true ~a ~bu toep)
      in
      if expect_fft then begin
        check_bool (label ^ ": FFT path engaged") true (blocks > 0);
        check_bool (label ^ ": FFT within 1e-10 of dense") true
          (rel_diff xf xd <= 1e-10)
      end
      else begin
        check_int (label ^ ": below the crossover, no FFT") 0 blocks;
        check_bool (label ^ ": still bit for bit") true (mat_bits_equal xf xd)
      end)
    [ `Dense; `Sparse ]

let test_toeplitz_naive_bit_identity () =
  check_toeplitz_vs_dense ~m:100 ~alphas:[ 0.5 ] ~expect_fft:false

let test_toeplitz_fft_path () =
  check_toeplitz_vs_dense ~m:300 ~alphas:[ 0.5 ] ~expect_fft:true

let test_toeplitz_multi_term () =
  check_toeplitz_vs_dense ~m:100 ~alphas:[ 0.5; 1.0 ] ~expect_fft:false;
  check_toeplitz_vs_dense ~m:300 ~alphas:[ 0.5; 1.0 ] ~expect_fft:true

(* A compiled uniform-grid model hands the engine Toeplitz rows: its
   query must equal the direct engine call on the same operands bit for
   bit — through the FFT path for α ≤ 1, and on the naive scan (so equal
   to the dense matrix) for α = 3/2, whose growing ρ weights are kept
   off the FFT path. *)
let test_compiled_uses_toeplitz_operands () =
  let n = 5 and m = 300 in
  let e, a = random_system 71 n in
  let grid = Grid.uniform ~t_end:1e-3 ~m in
  let st = Random.State.make [| 72 |] in
  let u = Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  List.iter
    (fun (alpha, fft) ->
      let sys =
        Multi_term.make ~terms:[ (Csr.of_dense e, alpha) ] ~a:(Csr.of_dense a)
          ~b:(Mat.eye n) ~c:(Mat.eye n) ()
      in
      let bu = Mat.mul (Mat.eye n) u in
      List.iter
        (fun backend ->
          let label =
            Printf.sprintf "α = %g, %s" alpha
              (match backend with `Dense -> "dense" | `Sparse -> "sparse")
          in
          let compiled =
            Compiled_model.solve_coeffs
              (Compiled_model.compile
                 ~backend:(backend :> Compiled_model.backend)
                 ~grid sys)
              u
          in
          let row = Block_pulse.fractional_differential_row grid alpha in
          let direct =
            solve_ops ~backend ~fft_history:fft ~a ~bu
              [ (e, Engine.Toeplitz row) ]
          in
          check_bool (label ^ ": compiled = engine on Toeplitz rows") true
            (mat_bits_equal compiled direct);
          if not fft then
            check_bool (label ^ ": naive scan, = dense matrix") true
              (mat_bits_equal compiled
                 (solve_ops ~backend ~a ~bu
                    [
                      ( e,
                        Engine.Dense
                          (Block_pulse.fractional_differential_matrix grid
                             alpha) );
                    ])))
        [ `Dense; `Sparse ])
    [ (0.5, true); (1.5, false) ]

(* an R–CPE ladder through the netlist front end: Mna.stamp emits an
   empty α = 1 term ahead of the CPE term *)
let cpe_ladder sections =
  let b = Buffer.create 256 in
  Buffer.add_string b "V1 in 0 sin(0 1 2000 0)\n";
  for k = 1 to sections do
    let from = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
    Printf.bprintf b "R%d %s n%d %g\nP%d n%d 0 q=%g alpha=0.5\n" k from k
      (1000.0 +. float_of_int k)
      k k
      (1e-6 *. (1.0 +. (0.1 *. float_of_int k)))
  done;
  Opm_circuit.Mna.stamp (Opm_circuit.Parser.parse_string (Buffer.contents b))

let opmat_bytes () =
  Opm_obs.Metrics.gauge_last (Opm_obs.Metrics.gauge "compiled.opmat_bytes")

(* Compile drops the stamped empty α = 1 term: one O(m) row is built,
   and the answer is the two-term engine solve's, bit for bit. One-shot
   stays compile-then-solve. *)
let test_empty_term_dropped () =
  let mt, srcs = cpe_ladder 4 in
  check_int "stamp emits the empty α = 1 term" 2
    (List.length mt.Multi_term.terms);
  List.iter
    (fun m ->
      let grid = Grid.uniform ~t_end:1e-3 ~m in
      let was = Opm_obs.Metrics.enabled () in
      Opm_obs.Metrics.set_enabled true;
      let model = Compiled_model.compile ~grid mt in
      let bytes = opmat_bytes () in
      Opm_obs.Metrics.set_enabled was;
      close (Printf.sprintf "m = %d: one row of operator storage" m)
        (float_of_int (8 * m)) bytes;
      let r = Compiled_model.solve model srcs in
      check_bool "one-shot = compiled" true
        (mat_bits_equal (Opm.simulate_multi_term ~grid mt srcs).Sim_result.x
           r.Sim_result.x);
      if m < Engine.fft_rhs_min_m then
        let bu = Compiled_model.bu_matrix ~grid mt srcs in
        let terms =
          List.map
            (fun { Multi_term.coeff; alpha } ->
              ( Csr.to_dense coeff,
                Engine.Dense (Block_pulse.fractional_differential_matrix grid alpha)
              ))
            mt.Multi_term.terms
        in
        check_bool "= two-term engine solve" true
          (mat_bits_equal r.Sim_result.x
             (Engine.solve_dense ~terms ~a:(Csr.to_dense mt.Multi_term.a) ~bu ())))
    [ 100; 300 ]

(* A dense D^α at m = 65 536 is 34 GB per term; the Toeplitz row is
   512 KB. Compiling a stamped R–CPE ladder there (the served path
   accepts steps up to 200 000) must stay within a few MB of heap:
   the row, the FFT convolver's column store and kernel spectra, and
   the factored pencil. Checked first at m = 4 096, where a dense
   regression would fail the bound without exhausting memory. *)
let test_compile_memory_bound () =
  let mt, _ = cpe_ladder 2 in
  let was = Opm_obs.Metrics.enabled () in
  Opm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Opm_obs.Metrics.set_enabled was)
    (fun () ->
      List.iter
        (fun m ->
          let grid = Grid.uniform ~t_end:1e-3 ~m in
          Gc.full_major ();
          let live0 = (Gc.stat ()).Gc.live_words in
          let alloc0 = Gc.allocated_bytes () in
          let model = Compiled_model.compile ~grid mt in
          let allocated = Gc.allocated_bytes () -. alloc0 in
          Gc.full_major ();
          let retained = 8 * ((Gc.stat ()).Gc.live_words - live0) in
          ignore (Sys.opaque_identity model);
          let mb = 1024.0 *. 1024.0 in
          close (Printf.sprintf "m = %d: opmat bytes" m)
            (float_of_int (8 * m)) (opmat_bytes ());
          if allocated > 32.0 *. mb then
            Alcotest.failf "m = %d: compile allocated %.1f MB" m
              (allocated /. mb);
          if float_of_int retained > 16.0 *. mb then
            Alcotest.failf "m = %d: compiled model retains %.1f MB" m
              (float_of_int retained /. mb))
        [ 4096; 65536 ])

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "descriptor",
        [
          t "dims" test_descriptor_dims;
          t "validation" test_descriptor_validation;
          t "observe states" test_descriptor_observe_states;
          t "random stable decays" test_descriptor_random_stable_is_stable;
        ] );
      ( "multi-term",
        [
          t "validation" test_multi_term_validation;
          t "of_linear" test_multi_term_of_linear;
          t "second order" test_multi_term_second_order;
        ] );
      ( "engine",
        [
          t "column = kron (paper eq. 15)" test_engine_column_equals_kron;
          t "sparse = dense" test_engine_sparse_equals_dense;
          t "multi-term vs kron" test_engine_multi_term_kron;
          t "residual of matrix equation" test_engine_residual;
          t "linear fast path" test_linear_fast_path_equals_generic;
          t "salt skip bit-identical" test_linear_salt_skip_bit_identity;
          t "factor cache bounded" test_factor_cache_bounded;
          t "fast path on 512-step adaptive grid" test_linear_fast_path_adaptive_512;
          t "dimension check" test_engine_dimension_check;
        ] );
      ( "toeplitz-operand",
        [
          t "naive path m = 100, bit for bit" test_toeplitz_naive_bit_identity;
          t "FFT path m = 300" test_toeplitz_fft_path;
          t "multi-term α = ½ + α = 1" test_toeplitz_multi_term;
          t "compiled uses Toeplitz rows, α = 3/2 stays naive"
            test_compiled_uses_toeplitz_operands;
          t "empty stamped term dropped" test_empty_term_dropped;
          Alcotest.test_case "compile memory bound at m = 65 536" `Slow
            test_compile_memory_bound;
        ] );
      ( "linear",
        [
          t "RC step vs analytic" test_linear_rc_step;
          t "RC sine vs analytic" test_linear_rc_sine;
          t "DAE algebraic constraint" test_linear_dae;
          t "convergence order" test_linear_convergence_order;
          t "superposition" test_linear_two_inputs;
          t "source count mismatch" test_linear_source_count_mismatch;
        ] );
      ( "fractional",
        [
          t "relaxation vs Mittag-Leffler" test_fractional_relaxation_ml;
          t "α = 1 equals linear" test_fractional_alpha1_equals_linear;
          t "memory effect across α" test_fractional_alpha_sweep_monotone_start;
          t "adaptive grid (Parlett path)" test_fractional_adaptive_grid;
          t "mesh refinement" test_fractional_convergence;
        ] );
      ( "high-order",
        [
          t "harmonic oscillator" test_second_order_oscillator;
          t "damped oscillator" test_damped_oscillator;
          t "mixed integer + fractional" test_mixed_order_terms;
          t "companion form vs OPM" test_companion_form;
          t "companion passthrough" test_companion_first_order_passthrough;
          t "companion rejects fractional" test_companion_rejects_fractional;
          t "input derivative" test_input_derivative_handling;
        ] );
      ( "x0-and-integral-form",
        [
          t "linear discharge" test_x0_discharge;
          t "fractional discharge" test_x0_fractional_discharge;
          t "superposition with x0" test_x0_superposition;
          t "x0 size check" test_x0_size_check;
          t "spectral with x0" test_x0_spectral_discharge;
        ] );
      ( "api",
        [
          t "backend agreement" test_backend_agreement;
          t "result shape" test_result_waveform_shape;
          t "input coefficients" test_input_coefficients;
        ] );
      ( "adaptive",
        [
          t "accuracy" test_adaptive_accuracy;
          t "grows steps" test_adaptive_grows_steps;
          t "covers span" test_adaptive_covers_span;
          t "matches uniform reference" test_adaptive_matches_uniform;
        ] );
    ]
