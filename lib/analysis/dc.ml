open Opm_numkit
open Opm_sparse
open Opm_core

(* A singular A rarely meets the factorisation's absolute zero-pivot
   test: on a floating power grid the last pivot is rounding noise
   (~1e-17), and the "operating point" is that noise amplified. The test
   reads the condition of R·A, R = diag(1/max|row|), the row-equilibrated
   matrix the factors hold, not that of A: a grounded grid with a 1 mΩ
   pad and a node on 10 TΩ leaks has cond(A) ≈ 9e15 yet cond(R·A) ≈ 1e4
   and an exact solution, while floating grids read 7e16–4e17. So
   anything at or above 1/ε has no unique DC solution. *)
let factor_nonsingular a =
  let f = Slu.factor a in
  let n, _ = Csr.dims a in
  let r = Array.make n 0.0 in
  Csr.iter (fun i _ v -> r.(i) <- Float.max r.(i) (Float.abs v)) a;
  Array.iteri (fun i m -> r.(i) <- (if m > 0.0 then 1.0 /. m else 1.0)) r;
  let colsum = Array.make n 0.0 in
  Csr.iter (fun i j v -> colsum.(j) <- colsum.(j) +. (r.(i) *. Float.abs v)) a;
  (* (R·A)⁻¹ y = A⁻¹ (R⁻¹ y) and (R·A)⁻ᵀ y = R⁻¹ (A⁻ᵀ y) *)
  let unscale y = Array.mapi (fun i v -> v /. r.(i)) y in
  let inv =
    Lu.inv_norm1_est ~n
      ~solve:(fun y -> Slu.solve f (unscale y))
      ~solve_t:(fun y -> unscale (Slu.solve_transpose f y))
  in
  let cond = Array.fold_left Float.max 0.0 colsum *. inv in
  let limit = 1.0 /. epsilon_float in
  if not (cond < limit) then
    Opm_robust.Opm_error.(raise_ (Ill_conditioned { cond; limit; column = None }));
  f

let operating_point (sys : Descriptor.t) ~u0 =
  let p = Descriptor.input_count sys in
  if Array.length u0 <> p then invalid_arg "Dc.operating_point: u0 size";
  let rhs = Vec.scale (-1.0) (Mat.mul_vec sys.Descriptor.b u0) in
  Slu.solve (factor_nonsingular sys.Descriptor.a) rhs

let outputs_at sys ~u0 =
  Mat.mul_vec sys.Descriptor.c (operating_point sys ~u0)

let dc_gain (sys : Descriptor.t) =
  let p = Descriptor.input_count sys in
  let q = Descriptor.output_count sys in
  let f = factor_nonsingular sys.Descriptor.a in
  let g = Mat.zeros q p in
  for j = 0 to p - 1 do
    let bj = Array.init (Descriptor.order sys) (fun r -> Mat.get sys.Descriptor.b r j) in
    let xj = Vec.scale (-1.0) (Slu.solve f bj) in
    Mat.set_col g j (Mat.mul_vec sys.Descriptor.c xj)
  done;
  g
