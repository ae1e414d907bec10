open Opm_numkit
open Opm_sparse
open Opm_basis
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

type backend = [ `Auto | `Dense | `Sparse ]
type basis = [ `Bpf | `Spectral ]

let m_queries = Metrics.counter "compiled.queries"
let m_factor_reuse = Metrics.counter "compiled.factor_reuse"
let g_opmat_bytes = Metrics.gauge "compiled.opmat_bytes"

let input_coefficients ~grid sources =
  let m = Grid.size grid in
  let p = Array.length sources in
  let u = Mat.zeros p m in
  Array.iteri
    (fun r src ->
      let coeffs = Block_pulse.project_source grid src in
      for i = 0 to m - 1 do
        Mat.set u r i coeffs.(i)
      done)
    sources;
  u

(* input derivative d^r u/dt^r acts on coefficients as U · D^r; [deriv]
   lets a compiled model substitute its cached differentiation matrix *)
let apply_input_order ?deriv ~grid (sys : Multi_term.t) u =
  if sys.Multi_term.input_order = 0 then u
  else
    let d =
      match deriv with
      | Some d -> d ()
      | None -> Block_pulse.differential_matrix grid
    in
    let rec apply u k = if k = 0 then u else apply (Mat.mul u d) (k - 1) in
    apply u sys.Multi_term.input_order

let bu_matrix ?deriv ~grid (sys : Multi_term.t) sources =
  Trace.with_span "opm.project_inputs" @@ fun () ->
  let p = Multi_term.input_count sys in
  if Array.length sources <> p then
    invalid_arg
      (Printf.sprintf "Opm: system has %d inputs but %d sources given" p
         (Array.length sources));
  let u = input_coefficients ~grid sources in
  Mat.mul sys.Multi_term.b (apply_input_order ?deriv ~grid sys u)

(* On exactly-uniform grids every operational matrix is upper-triangular
   Toeplitz, so its first row drives the engine's FFT history fast path.
   Near-uniform adaptive grids are deliberately excluded: the acceptance
   contract keeps every [Grid.Adaptive] solve bit-identical to the naive
   engine.

   Orders above 1 are excluded, for accuracy rather than structure:
   |ρ_α(l)| grows like l^{α−1} with alternating sign for α > 1, and the
   naive j-ascending scan sums those terms in an order whose partial
   sums cancel pairwise and stay small. Blockwise FFT reassociation
   forfeits that cancellation, and the marginally-stable high-order
   recurrence then integrates the roundoff (≈5e-4 absolute drift on the
   α = 2 oscillator at m = 1000). Non-growing kernels (α ≤ 1) keep the
   conv/naive agreement within the ≤ 1e-10 contract. *)
let fft_safe_terms terms =
  List.for_all (fun { Multi_term.alpha; _ } -> alpha <= 1.0) terms

let shift_by_x0 x x0 =
  let n, m = Mat.dims x in
  Mat.init n m (fun r i -> Mat.get x r i +. x0.(r))

(* ------------------------------------------------------------------ *)

(* Everything plant-dependent, computed once at [compile]: the
   operational matrices (Toeplitz first rows on uniform grids), the FFT
   convolver plan state, and the factored (pinned) pencil. Queries
   touch only the input-dependent RHS. *)
type plan =
  | Spectral of Spectral_solver.t
  | Windowed of { w : int }
  | Linear of { steps : float array; e_s : Csr.t; e_d : Mat.t Lazy.t }
  | General of {
      terms_s : (Csr.t * Engine.opmat) list;
      terms_d : (Mat.t * Engine.opmat) list Lazy.t;
      key_salt : float list;
      conv : Fft.Blocked_conv.t option;
    }

type t = {
  sys : Multi_term.t;
  grid : Grid.t;
  backend : [ `Dense | `Sparse ];
  memory_len : int option;
  uniform : bool;
      (* pinning is gated on uniformity: an adaptive grid would pin one
         entry per distinct step, and the pinned set is unbounded *)
  plan : plan;
  fc_d : (float list, Engine.dense_block) Engine.Factor_cache.t;
  fc_s : (float list, Engine.sparse_block) Engine.Factor_cache.t;
  slu_sym : Slu.symbolic option ref;
      (* one symbolic analysis per model: every sparse pencil this model
         ever factors (prefactor at compile, cache misses at query)
         shares one sparsity structure, so later factorisations replay
         the recorded elimination numerically *)
  series_cache : (float * int, float array) Hashtbl.t;
  a_dense : Mat.t Lazy.t;
  u_deriv : Mat.t Lazy.t;
  mutable queries : int;
}

let grid t = t.grid

let system t = t.sys

let queries t = t.queries

let backend t = t.backend

(* Per-model factor statistics, read from this model's own caches. The
   [compiled.factor_reuse] metrics counter aggregates over every model
   in the process — useless to a server that hosts many plants and
   must report (and test) reuse per plant — whereas the
   [Engine.Factor_cache] hit/miss counters live on the cache records
   themselves, so summing the model's two caches is exactly the
   per-plant view. *)
let factor_reuse t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factor_reuse sp
  | Windowed _ | Linear _ | General _ ->
      Engine.Factor_cache.hits t.fc_d + Engine.Factor_cache.hits t.fc_s

let factorisations t =
  match t.plan with
  | Spectral sp -> Spectral_solver.factorisations sp
  | Windowed _ | Linear _ | General _ ->
      Engine.Factor_cache.misses t.fc_d + Engine.Factor_cache.misses t.fc_s

let basis t =
  match t.plan with
  | Spectral _ -> `Spectral
  | Windowed _ | Linear _ | General _ -> `Bpf

let compile ?(backend = `Auto) ?(basis = `Bpf) ?health ?window ?memory_len
    ~grid (sys : Multi_term.t) =
  Trace.with_span "compiled.compile" @@ fun () ->
  let n = Multi_term.order sys in
  let m = Grid.size grid in
  (match window with
  | Some w when w < 1 -> invalid_arg "Opm: window width must be >= 1"
  | _ -> ());
  match basis with
  | `Spectral ->
      (* the collocation operator has no windowed/streaming form: the
         fractional differentiation matrix is globally dense, and m is
         tiny by design, so there is no history to truncate either *)
      if window <> None then
        invalid_arg "Opm: ?window streaming requires the block-pulse basis";
      if memory_len <> None then
        invalid_arg "Opm: ?memory_len requires the block-pulse basis";
      {
        sys;
        grid;
        backend = Engine.pick_backend backend n;
        memory_len = None;
        uniform = true;
        plan = Spectral (Spectral_solver.compile ?health ~grid sys);
        fc_d = Engine.Factor_cache.create ();
        fc_s = Engine.Factor_cache.create ();
        slu_sym = ref None;
        series_cache = Hashtbl.create 1;
        a_dense = lazy (Csr.to_dense sys.Multi_term.a);
        u_deriv = lazy (Block_pulse.differential_matrix grid);
        queries = 0;
      }
  | `Bpf ->
  (* Mna.stamp always emits the α = 1 term, even for a netlist of CPEs
     only; an empty E_k adds nothing to any pencil or history, so it is
     dropped before it costs an operational matrix, a ρ series and an
     FFT kernel. A system with no non-empty term keeps its plan. *)
  let live = List.filter (fun t -> Csr.nnz t.Multi_term.coeff > 0) in
  let sys =
    match live sys.Multi_term.terms with
    | [] -> sys
    | terms -> { sys with Multi_term.terms }
  in
  let backend = Engine.pick_backend backend n in
  let uniform =
    match grid with Grid.Uniform _ -> true | Grid.Adaptive _ -> false
  in
  let h = Grid.t_end grid /. float_of_int m in
  let fc_d = Engine.Factor_cache.create () in
  let fc_s = Engine.Factor_cache.create () in
  let slu_sym = ref None in
  let series_cache : (float * int, float array) Hashtbl.t =
    Hashtbl.create 8
  in
  let series alpha len =
    match Hashtbl.find_opt series_cache (alpha, len) with
    | Some s -> s
    | None ->
        let s = Series.one_minus_over_one_plus_pow alpha len in
        Hashtbl.add series_cache (alpha, len) s;
        s
  in
  let a_dense = lazy (Csr.to_dense sys.Multi_term.a) in
  let u_deriv = lazy (Block_pulse.differential_matrix grid) in
  let windowed =
    match window with Some w when w < m -> Some w | _ -> None
  in
  let plan =
    match (windowed, sys.Multi_term.terms, sys.Multi_term.input_order) with
    | Some w, _, _ ->
        (* prefactor the very pencil the Window driver will look up —
           same caches, same keys, same builders. Adaptive grids are
           rejected by Window at query time, so nothing to warm. *)
        if uniform then
          (match (sys.Multi_term.terms, sys.Multi_term.input_order) with
          | [ { Multi_term.coeff = e; alpha = 1.0 } ], 0 -> (
              match backend with
              | `Sparse ->
                  Engine.prefactor_linear_sparse ?health ~slu_symbolic:slu_sym
                    fc_s ~h ~e ~a:sys.Multi_term.a
              | `Dense ->
                  Engine.prefactor_linear_dense fc_d ~h ~e:(Csr.to_dense e)
                    ~a:(Lazy.force a_dense))
          | terms, _ -> (
              let key_salt =
                List.map (fun { Multi_term.alpha; _ } -> alpha) terms @ [ h ]
              in
              let diag =
                List.map
                  (fun { Multi_term.alpha; _ } ->
                    let rho = series alpha m in
                    (2.0 /. h) ** alpha *. rho.(0))
                  terms
              in
              (* warm the β series of the ρ_n ⊛ ρ_β split so queries
                 skip the O(m²) Cauchy products too *)
              List.iter
                (fun { Multi_term.alpha; _ } ->
                  let _, beta = Window.split_alpha alpha in
                  if beta <> 0.0 then ignore (series beta m : float array))
                terms;
              match backend with
              | `Sparse ->
                  Engine.prefactor_sparse ?health ~slu_symbolic:slu_sym fc_s
                    ~key_salt ~diag
                    ~es:(List.map (fun { Multi_term.coeff; _ } -> coeff) terms)
                    ~a:sys.Multi_term.a
              | `Dense ->
                  Engine.prefactor_dense fc_d ~key_salt ~diag
                    ~es:
                      (List.map
                         (fun { Multi_term.coeff; _ } -> Csr.to_dense coeff)
                         terms)
                    ~a:(Lazy.force a_dense)));
        Metrics.set_gauge g_opmat_bytes 0.0;
        Windowed { w }
    | None, [ { Multi_term.coeff = e; alpha = 1.0 } ], 0 ->
        let steps = Grid.steps grid in
        let e_d = lazy (Csr.to_dense e) in
        if uniform && Array.length steps > 0 then
          (match backend with
          | `Sparse ->
              Engine.prefactor_linear_sparse ?health ~slu_symbolic:slu_sym
                fc_s ~h:steps.(0) ~e ~a:sys.Multi_term.a
          | `Dense ->
              Engine.prefactor_linear_dense fc_d ~h:steps.(0)
                ~e:(Lazy.force e_d) ~a:(Lazy.force a_dense));
        Metrics.set_gauge g_opmat_bytes 0.0;
        Linear { steps; e_s = e; e_d }
    | None, terms, _ ->
        (* a uniform grid keeps each D^α as its Toeplitz first row, O(m)
           instead of the dense O(m²) an adaptive grid needs *)
        let dmats =
          Trace.with_span "opm.operational_matrices" @@ fun () ->
          List.map
            (fun { Multi_term.coeff; alpha } ->
              ( coeff,
                if uniform then
                  Engine.Toeplitz
                    (Block_pulse.fractional_differential_row grid alpha)
                else
                  Engine.Dense
                    (Block_pulse.fractional_differential_matrix grid alpha) ))
            terms
        in
        let bytes = function
          | Engine.Toeplitz r -> 8 * Array.length r
          | Engine.Dense d -> 8 * fst (Mat.dims d) * snd (Mat.dims d)
        in
        Metrics.set_gauge g_opmat_bytes
          (float_of_int (List.fold_left (fun s (_, d) -> s + bytes d) 0 dmats));
        let key_salt =
          if uniform then
            List.map (fun { Multi_term.alpha; _ } -> alpha) terms @ [ h ]
          else []
        in
        let terms_d =
          lazy (List.map (fun (e, d) -> (Csr.to_dense e, d)) dmats)
        in
        if uniform then
          (let diag = List.map (fun (_, d) -> Engine.opmat_get d 0 0) dmats in
           match backend with
           | `Sparse ->
               Engine.prefactor_sparse ?health ~slu_symbolic:slu_sym fc_s
                 ~key_salt ~diag ~es:(List.map fst dmats) ~a:sys.Multi_term.a
           | `Dense ->
               Engine.prefactor_dense fc_d ~key_salt ~diag
                 ~es:(List.map fst (Lazy.force terms_d))
                 ~a:(Lazy.force a_dense));
        (* built here exactly when the engine's FFT rule would engage
           it, so [conv <> None] is the query's [fft_history] *)
        let conv =
          if fft_safe_terms terms then Engine.toeplitz_convolver ~n dmats
          else None
        in
        General { terms_s = dmats; terms_d; key_salt; conv }
  in
  {
    sys;
    grid;
    backend;
    memory_len;
    uniform;
    plan;
    fc_d;
    fc_s;
    slu_sym;
    series_cache;
    a_dense;
    u_deriv;
    queries = 0;
  }

let compile_linear ?backend ?basis ?health ?window ?memory_len ~grid sys =
  compile ?backend ?basis ?health ?window ?memory_len ~grid
    (Multi_term.of_linear sys)

let compile_fractional ?backend ?basis ?health ?window ?memory_len ~grid
    ~alpha sys =
  compile ?backend ?basis ?health ?window ?memory_len ~grid
    (Multi_term.of_fractional ~alpha sys)

let solve_bu ?health ?budget ?checkpoint ?checkpoint_every ?resume_from t bu =
  Trace.with_span "compiled_solve" @@ fun () ->
  (match t.plan with
  | Windowed _ -> ()
  | Spectral _ ->
      invalid_arg
        "Compiled_model: spectral-basis models sample sources at the \
         collocation nodes — use solve, not BPF coefficients"
  | Linear _ | General _ ->
      if checkpoint <> None || resume_from <> None then
        invalid_arg
          "Compiled_model.solve: checkpointing requires a windowed model \
           (compile with ?window)");
  t.queries <- t.queries + 1;
  Metrics.incr m_queries;
  let hits0 =
    Engine.Factor_cache.hits t.fc_d + Engine.Factor_cache.hits t.fc_s
  in
  let x =
    match t.plan with
    | Spectral _ -> assert false (* rejected above *)
    | Windowed { w } ->
        let x, _stats =
          Window.solve
            ~backend:(t.backend :> backend)
            ?health ?memory_len:t.memory_len ~fc_d:t.fc_d ~fc_s:t.fc_s
            ~series_cache:t.series_cache ?budget ?checkpoint
            ?checkpoint_every ?resume_from ~window:w ~grid:t.grid t.sys ~bu
        in
        x
    | Linear { steps; e_s; e_d } -> (
        match t.backend with
        | `Sparse ->
            Engine.solve_linear_sparse ?health ~fcache:t.fc_s
              ~pin_factors:t.uniform ?budget ~slu_symbolic:t.slu_sym ~steps
              ~e:e_s ~a:t.sys.Multi_term.a ~bu ()
        | `Dense ->
            Engine.solve_linear_dense ?health ~fcache:t.fc_d
              ~pin_factors:t.uniform ?budget ~steps ~e:(Lazy.force e_d)
              ~a:(Lazy.force t.a_dense) ~bu ())
    | General { terms_s; terms_d; key_salt; conv } -> (
        let fft_history = Option.is_some conv in
        match t.backend with
        | `Sparse ->
            Engine.solve_sparse ?health ~fcache:t.fc_s ~key_salt
              ~pin_factors:t.uniform ~fft_history ?conv_reuse:conv ?budget
              ~slu_symbolic:t.slu_sym ~terms:terms_s ~a:t.sys.Multi_term.a
              ~bu ()
        | `Dense ->
            Engine.solve_dense ?health ~fcache:t.fc_d ~key_salt
              ~pin_factors:t.uniform ~fft_history ?conv_reuse:conv ?budget
              ~terms:(Lazy.force terms_d) ~a:(Lazy.force t.a_dense) ~bu ())
  in
  let hits1 =
    Engine.Factor_cache.hits t.fc_d + Engine.Factor_cache.hits t.fc_s
  in
  Metrics.incr ~by:(hits1 - hits0) m_factor_reuse;
  x

let solve_coeffs ?health ?budget t u =
  let p = Multi_term.input_count t.sys in
  let m = Grid.size t.grid in
  let ur, uc = Mat.dims u in
  if ur <> p || uc <> m then
    invalid_arg
      (Printf.sprintf
         "Compiled_model.solve_coeffs: u is %d×%d but system/grid need %d×%d"
         ur uc p m);
  let u =
    apply_input_order ~deriv:(fun () -> Lazy.force t.u_deriv) ~grid:t.grid
      t.sys u
  in
  solve_bu ?health ?budget t (Mat.mul t.sys.Multi_term.b u)

let solve ?health ?budget ?checkpoint ?checkpoint_every ?resume_from ?x0 t
    sources =
  match t.plan with
  | Spectral sp ->
      if checkpoint <> None || resume_from <> None then
        invalid_arg
          "Compiled_model.solve: checkpointing requires a windowed model \
           (compile with ?window)";
      ignore checkpoint_every;
      t.queries <- t.queries + 1;
      Metrics.incr m_queries;
      let result = Spectral_solver.solve ?health ?budget ?x0 sp sources in
      Metrics.incr m_factor_reuse;
      result
  | Windowed _ | Linear _ | General _ ->
  let bu =
    bu_matrix ~deriv:(fun () -> Lazy.force t.u_deriv) ~grid:t.grid t.sys
      sources
  in
  (* nonzero initial state by substitution z = x − x₀ (the Caputo
     derivative of a constant vanishes for every α > 0, so the
     differential terms are untouched): E d^α z = A z + (B u + A x₀) *)
  let bu, finish =
    match x0 with
    | None -> (bu, Fun.id)
    | Some x0 ->
        if Array.length x0 <> Multi_term.order t.sys then
          invalid_arg "Opm: x0 length mismatch with system order";
        let ax0 = Csr.mul_vec t.sys.Multi_term.a x0 in
        let n, m = Mat.dims bu in
        let bu' = Mat.init n m (fun r i -> Mat.get bu r i +. ax0.(r)) in
        (bu', fun x -> shift_by_x0 x x0)
  in
  let x =
    solve_bu ?health ?budget ?checkpoint ?checkpoint_every ?resume_from t bu
  in
  Sim_result.make ?health ~grid:t.grid ~x:(finish x) ~c:t.sys.Multi_term.c
    ~state_names:t.sys.Multi_term.state_names
    ~output_names:t.sys.Multi_term.output_names ()
