open Opm_numkit
open Opm_sparse
open Opm_basis
module Trace = Opm_obs.Trace

type backend = [ `Auto | `Dense | `Sparse ]

(* the input-projection / backend-policy / Toeplitz helpers live in
   Compiled_model (which sits below Opm so the one-shot paths can be
   compile-then-solve); re-exported here for existing callers *)
let input_coefficients = Compiled_model.input_coefficients

let pick_backend = Compiled_model.pick_backend

let bu_matrix ~grid sys sources = Compiled_model.bu_matrix ~grid sys sources

(* One-shot simulation is literally compile-then-solve: every
   plant-dependent artefact (operational matrices, Toeplitz rows, FFT
   plan, pinned pencil factor) is built by [compile] exactly as the
   historical one-shot path built it, so cold behaviour is
   bit-identical while sweep callers can hold on to the compiled model
   and pay the setup once. *)
let simulate_multi_term ?(backend = `Auto) ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (sys : Multi_term.t) sources =
  Trace.with_span "opm.simulate" @@ fun () ->
  let t =
    Compiled_model.compile ~backend ?basis ?health ?window ?memory_len ~grid
      sys
  in
  Compiled_model.solve ?health ?budget ?checkpoint ?checkpoint_every
    ?resume_from ?x0 t sources

let simulate_fractional ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid ~alpha sys
    sources =
  simulate_multi_term ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (Multi_term.of_fractional ~alpha sys)
    sources

let simulate_linear ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid sys sources =
  simulate_multi_term ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (Multi_term.of_linear sys) sources

let simulate_linear_kron ~grid (sys : Descriptor.t) sources =
  let mt = Multi_term.of_linear sys in
  let bu = bu_matrix ~grid mt sources in
  let d = Block_pulse.differential_matrix grid in
  let x =
    Engine.solve_dense_kron
      ~terms:[ (Descriptor.e_dense sys, d) ]
      ~a:(Descriptor.a_dense sys) ~bu
  in
  Sim_result.make ~grid ~x ~c:sys.Descriptor.c
    ~state_names:sys.Descriptor.state_names
    ~output_names:sys.Descriptor.output_names ()

let simulate_linear_integral ?(backend = `Auto) ?health ?budget ?x0 ?window
    ~grid (sys : Descriptor.t) sources =
  Trace.with_span "opm.simulate_integral" @@ fun () ->
  let mt = Multi_term.of_linear sys in
  let bu = bu_matrix ~grid mt sources in
  let m = Grid.size grid in
  let n = Descriptor.order sys in
  let h_mat = Block_pulse.integral_matrix grid in
  let bu_int = Mat.mul bu h_mat in
  let x0 = Option.value x0 ~default:(Vec.zeros n) in
  if Array.length x0 <> n then
    invalid_arg "Opm: x0 length mismatch with system order";
  let backend = pick_backend backend n in
  (* uniform-grid H is Toeplitz (first row [h/2; h; h; …]): the engine
     takes that row, and with it the FFT history fast path *)
  let h_op w dense =
    match grid with
    | Grid.Uniform _ -> Engine.Toeplitz (Array.init w (Mat.get h_mat 0))
    | Grid.Adaptive _ -> Engine.Dense (Lazy.force dense)
  in
  let global () =
    let one = Array.make m 1.0 in
    match backend with
    | `Dense ->
        Engine.solve_integral_dense ?health ?budget
          ~h_mat:(h_op m (lazy h_mat))
          ~one ~e:(Descriptor.e_dense sys) ~a:(Descriptor.a_dense sys)
          ~bu_int ~x0 ()
    | `Sparse ->
        Engine.solve_integral_sparse ?health ?budget
          ~h_mat:(h_op m (lazy h_mat))
          ~one ~e:sys.Descriptor.e ~a:sys.Descriptor.a ~bu_int ~x0 ()
  in
  (* Windowed streaming of the integral form. On a uniform grid the
     history weights are constant — H_{ji} = h for every j < i — so the
     pre-window coupling of every column in a window starting at [s] is
     the same vector A·(h·Σ_{j<s} x_j): an O(n) running sum carried
     across windows *exactly* (no truncation question arises, unlike
     the fractional differential tails). Each window is then a fresh
     integral solve over its own wlen×wlen H block with the coupling
     folded into bu, sharing one pinned pencil factorisation through
     the caches. *)
  let windowed w =
    if not (Grid.is_uniform ~tol:1e-12 grid) then
      invalid_arg "Opm: windowed integral solve requires a uniform grid";
    let h = Grid.t_end grid /. float_of_int m in
    let fc_d = Engine.Factor_cache.create () in
    let fc_s = Engine.Factor_cache.create () in
    let e_d = lazy (Descriptor.e_dense sys) in
    let a_d = lazy (Descriptor.a_dense sys) in
    let builder = Sim_result.Builder.create ~n in
    let nwin = (m + w - 1) / w in
    (* running sum h·Σ_{j<s} x_j, the carried integral state *)
    let s_pre = Array.make n 0.0 in
    for win = 0 to nwin - 1 do
      (match budget with
      | Some b -> Opm_robust.Budget.check_deadline_now b ~site:"window.boundary"
      | None -> ());
      let s = win * w in
      let wlen = min w (m - s) in
      Trace.with_span "window" @@ fun () ->
      let a_spre =
        match backend with
        | `Dense -> Mat.mul_vec (Lazy.force a_d) s_pre
        | `Sparse -> Csr.mul_vec sys.Descriptor.a s_pre
      in
      let bu_win =
        Mat.init n wlen (fun r l -> Mat.get bu_int r (s + l) +. a_spre.(r))
      in
      let h_win =
        h_op wlen
          (lazy
            (Mat.init wlen wlen (fun i j ->
                 if j < i then 0.0 else if j = i then h /. 2.0 else h)))
      in
      let one = Array.make wlen 1.0 in
      let x_win =
        match backend with
        | `Dense ->
            Engine.solve_integral_dense ?health ~fcache:fc_d
              ~pin_factors:true ~history_len:m ?budget ~h_mat:h_win
              ~one ~e:(Lazy.force e_d) ~a:(Lazy.force a_d) ~bu_int:bu_win ~x0
              ()
        | `Sparse ->
            Engine.solve_integral_sparse ?health ~fcache:fc_s
              ~pin_factors:true ~history_len:m ?budget ~h_mat:h_win
              ~one ~e:sys.Descriptor.e ~a:sys.Descriptor.a ~bu_int:bu_win ~x0
              ()
      in
      for l = 0 to wlen - 1 do
        for r = 0 to n - 1 do
          s_pre.(r) <- s_pre.(r) +. (h *. Mat.get x_win r l)
        done
      done;
      Sim_result.Builder.append builder x_win
    done;
    Sim_result.Builder.to_mat builder
  in
  let x =
    match window with
    | Some w when w < 1 -> invalid_arg "Opm: window width must be >= 1"
    | Some w when w < m -> windowed w
    | _ -> global ()
  in
  Sim_result.make ?health ~grid ~x ~c:sys.Descriptor.c
    ~state_names:sys.Descriptor.state_names
    ~output_names:sys.Descriptor.output_names ()
