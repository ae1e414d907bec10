open Opm_numkit
open Opm_sparse
open Opm_robust
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* observability instruments (no-ops unless metrics/tracing are enabled):
   per-column wall time, column count, and one counter per rung of the
   fallback cascade — the machine-readable shadow of the Health events *)
let m_columns = Metrics.counter "engine.columns"
let m_refine_attempted = Metrics.counter "engine.refine.attempted"
let m_refine_kept = Metrics.counter "engine.refine.kept"
let m_strict_refactor = Metrics.counter "engine.strict_refactor"
let m_dense_fallback = Metrics.counter "engine.dense_fallback"
(* mean per-column wall time, sampled once per 8-column batch: a clock
   read per column would by itself eat the < 2% overhead budget *)
let h_column_seconds = Metrics.histogram "engine.column_seconds"
let m_rhsconv_blocks = Metrics.counter "engine.rhsconv.blocks"
let m_rhsconv_naive = Metrics.counter "engine.rhsconv.naive_cols"

(* ------------------------------------------------------------------ *)
(* FFT history-convolution switch. The Toeplitz fast path reassociates
   the history summation, so its output matches the naive scan to
   roundoff rather than bit-identically; OPM_NO_FFT_RHS (or
   [set_fft_rhs_enabled false], or the CLI's --no-fft-rhs) forces every
   solve back onto the naive path. *)

let fft_rhs_flag = ref None

let fft_rhs_enabled () =
  match !fft_rhs_flag with
  | Some b -> b
  | None ->
      let b =
        match Sys.getenv_opt "OPM_NO_FFT_RHS" with
        | None | Some "" | Some "0" -> true
        | Some _ -> false
      in
      fft_rhs_flag := Some b;
      b

let set_fft_rhs_enabled b = fft_rhs_flag := Some b

(* the one dense/sparse backend policy, shared by every driver above *)
let pick_backend backend n =
  match backend with
  | `Dense -> `Dense
  | `Sparse -> `Sparse
  | `Auto -> if n > 64 then `Sparse else `Dense

(* An operational matrix as the engine reads it: dense, or upper-
   triangular Toeplitz stored as its first row (uniform grids). Only
   entries on or above the diagonal (j <= i) are ever read. *)
type opmat = Dense of Mat.t | Toeplitz of Vec.t

let opmat_dims = function
  | Dense d -> Mat.dims d
  | Toeplitz r -> (Array.length r, Array.length r)

let opmat_get op j i =
  match op with Dense d -> Mat.get d j i | Toeplitz r -> r.(i - j)

let check_terms_dims ~n ~m terms a_rows a_cols =
  if a_rows <> n || a_cols <> n then
    invalid_arg "Engine: A dimension mismatch with BU";
  List.iter
    (fun ((er, ec), (dr, dc)) ->
      if er <> n || ec <> n then invalid_arg "Engine: E_k dimension mismatch";
      if dr <> m || dc <> m then invalid_arg "Engine: D_k dimension mismatch")
    terms

(* ------------------------------------------------------------------ *)
(* Fault-injection sites and budget check-points. Each [Fault.fire] is
   one atomic load when no plan is armed, and each budget hook is one
   [Option] match when no budget is threaded — together they are the
   "disabled path" gated < 2% by [bench resilience]. The kind → effect
   mapping is mechanical so every cell of the site × kind matrix ends
   in either a structured Opm_error or a recovery the cascade already
   knows how to verify (see DESIGN.md §15 for the full table). *)

let fault_injected site =
  Opm_error.raise_
    (Opm_error.Fault_injected
       {
         site = Fault.site_to_string site;
         kind =
           (match Fault.armed () with
           | Some p -> Fault.kind_to_string p.kind
           | None -> "unknown");
       })

(* Factor site, dense backend: Singular is terminal (dense LU already
   pivots strictly); Nan_poison factors an all-NaN pencil, which the
   factoriser rejects as structurally singular — both structured. *)
let fault_factor_dense ~column dmat =
  match Fault.fire Fault.Factor with
  | None -> dmat
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      dmat
  | Some Fault.Singular ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = 0; pivot = 0.0; name = None })
  | Some Fault.Nan_poison -> Mat.scale Float.nan dmat
  | Some Fault.Enospc -> fault_injected Fault.Factor

(* Column-solve site: Nan_poison overwrites one solution entry (the
   guard cascade must notice and either re-factor or raise Non_finite —
   never let the NaN reach the result matrix). *)
let fault_column ~column x =
  match Fault.fire Fault.Column_solve with
  | None -> x
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      x
  | Some Fault.Nan_poison ->
      let x = Array.copy x in
      if Array.length x > 0 then x.(0) <- Float.nan;
      x
  | Some Fault.Singular ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = 0; pivot = 0.0; name = None })
  | Some Fault.Enospc -> fault_injected Fault.Column_solve

(* FFT-block site lives here rather than in numkit so the convolver
   stays dependency-free; fired once per history-assembled column. *)
let fault_fft_block () =
  match Fault.fire Fault.Fft_block with
  | None -> false
  | Some Fault.Latency ->
      Fault.latency_sleep ();
      false
  | Some Fault.Nan_poison -> true
  | Some (Fault.Singular | Fault.Enospc) -> fault_injected Fault.Fft_block

let budget_column budget =
  match budget with
  | None -> ()
  | Some b -> Budget.check_deadline b ~site:"engine.column"

let budget_factor ?(bytes = 0) budget =
  match budget with
  | None -> ()
  | Some b -> Budget.charge_factor ~bytes b ~site:"engine.factor"

let diag_key terms i = List.map (fun (_, d) -> opmat_get d i i) terms

let same_key a b = List.for_all2 (fun (x : float) y -> x = y) a b

(* Bounded key → factorisation cache. An assoc list keyed on the exact
   float step is pathological on fully-adaptive grids: every column
   misses, so each lookup scans the whole list (O(m²) total) and the
   list grows without bound. A hashtable gives O(1) lookups and a
   capacity cap bounds the memory; on overflow the cache is reset —
   adaptive grids that miss every time pay exactly one factorisation
   per column either way, while uniform and few-distinct-step grids
   stay fully cached.

   The key is polymorphic. A cache confined to one solve call may key
   on whatever distinguishes the diagonal blocks there (the float step,
   the diagonal coefficients). A cache *shared across solves* — the
   windowed streaming driver, or any process mixing differentiation
   orders on one grid — must key on the full (α₁…α_K, h) identity of
   the pencil, not just the diagonal coefficients: (2/h)^α collides for
   different (α, h) pairs (at h = 2 it is 1.0 for every α), so a
   diagonal-only key would silently reuse the wrong factorisation.
   {!solve_dense}/{!solve_sparse} take that salt via [?key_salt]. *)
module Factor_cache = struct
  type ('k, 'f) t = {
    capacity : int;
    table : ('k, 'f) Hashtbl.t;
    pinned : ('k, 'f) Hashtbl.t;
        (* pinned entries live outside the capacity bound and survive
           the overflow reset: a sweep interleaving many (α, h) keys can
           blow the bounded table away mid-run, and without pinning that
           evicts the one factor every window (or every compiled query)
           is about to ask for again *)
    mutable hits : int;
    mutable misses : int;
  }

  let default_capacity = 64

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Engine.Factor_cache.create: capacity < 1";
    {
      capacity;
      table = Hashtbl.create capacity;
      pinned = Hashtbl.create 4;
      hits = 0;
      misses = 0;
    }

  let length c = Hashtbl.length c.table + Hashtbl.length c.pinned

  let pinned_count c = Hashtbl.length c.pinned

  let hits c = c.hits

  let misses c = c.misses

  let find_or_add ?(pin = false) c h factor =
    match Hashtbl.find_opt c.pinned h with
    | Some f ->
        c.hits <- c.hits + 1;
        f
    | None -> (
        match Hashtbl.find_opt c.table h with
        | Some f ->
            c.hits <- c.hits + 1;
            if pin then begin
              Hashtbl.remove c.table h;
              Hashtbl.add c.pinned h f
            end;
            f
        | None ->
            c.misses <- c.misses + 1;
            let f = factor h in
            if pin then Hashtbl.add c.pinned h f
            else begin
              if Hashtbl.length c.table >= c.capacity then
                Hashtbl.reset c.table;
              Hashtbl.add c.table h f
            end;
            f)
end

(* Diagonal-block lookup shared by {!solve_dense}/{!solve_sparse}: a
   caller-supplied cross-call cache (salted, see {!Factor_cache}) when
   given, else the per-call single-entry cache — consecutive columns of
   one solve share the diagonal coefficients on uniform grids, so one
   entry already captures the within-call reuse. *)
let block_lookup ?(pin = false) ~fcache ~key_salt ~build () =
  match fcache with
  | Some fc ->
      (* per-call single-entry memo in front of the shared cache: on a
         uniform grid every column shares one key, so a whole engine
         call costs exactly one shared-cache access — which makes the
         cross-call hit/miss statistics count engine calls, not
         columns, and keeps per-column polymorphic hashing off the hot
         loop *)
      let memo = ref None in
      fun ~column key ->
        (match !memo with
        | Some (k, b) when same_key k key -> b
        | _ ->
            let b =
              Factor_cache.find_or_add ~pin fc (key_salt @ key) (fun _ ->
                  build ~column key)
            in
            memo := Some (key, b);
            b)
  | None ->
      let cache = ref None in
      fun ~column key ->
        (match !cache with
        | Some (k, b) when same_key k key -> b
        | _ ->
            let b = build ~column key in
            cache := Some (key, b);
            b)

(* Accumulate rhs_i = bu_i − Σ_k E_k (Σ_{j<i} d^{(k)}_{ji} x_j), with
   [apply_e] abstracting dense/sparse E_k·v. When [conv] is given
   the history sums come from the blocked FFT convolver (the solved
   columns must have been pushed into it); otherwise the D_k columns are
   scanned naively — that branch is bit-identical to the historical
   engine. The fft-block fault site poisons the whole history of term
   [live], the first term with a non-empty E_k: an empty E_k, or a
   single entry in a state column E_k never reads, would multiply the
   NaN away on the sparse backend. *)
let column_rhs ?conv ?(live = 0) ~n ~bu ~terms ~apply_e ~cols i =
  let rhs = Array.init n (fun r -> Mat.get bu r i) in
  (match conv with
  | Some cv ->
      if i > 0 then begin
        let poison = fault_fft_block () in
        List.iteri
          (fun k _ ->
            let hist = Fft.Blocked_conv.history cv ~term:k i in
            (* [history] returns a fresh vector, so poisoning it never
               touches the convolver's internal state *)
            if poison && k = live then Array.fill hist 0 n Float.nan;
            let ev = apply_e k hist in
            Vec.axpy (-1.0) ev rhs)
          terms
      end
  | None ->
      List.iteri
        (fun k (_, dmat) ->
          let acc = Array.make n 0.0 in
          let any = ref false in
          for j = 0 to i - 1 do
            let w = opmat_get dmat j i in
            if w <> 0.0 then begin
              any := true;
              Vec.axpy w cols.(j) acc
            end
          done;
          if !any then begin
            let ev = apply_e k acc in
            Vec.axpy (-1.0) ev rhs
          end)
        terms);
  rhs

(* Below this horizon length the naive scan wins (or ties within
   noise): the convolver's first dyadic levels are many tiny FFTs whose
   setup cost the short naive tail never amortises. Measured on the
   Table I kernel the crossover sits between m = 128 and m = 256, so
   short horizons keep the scan — which also keeps them bit-identical
   to the historical engine. *)
let fft_rhs_min_m = 256

(* The FFT-path rule: the caller vouches for it ([fft_history]), every
   operand is Toeplitz — its first row, entry [l] the lag-l weight
   d^{(k)}_{j,j+l}, is the convolver kernel — and the horizon is long
   enough. A single-column horizon has no history, so the convolver is
   skipped there.

   The crossover gate compares against [history_len] — the {e effective
   global} history length — rather than the local column count [m]: a
   windowed caller hands the engine wlen-row Toeplitz blocks, and gating
   on wlen alone would keep a 4096-column horizon solved with
   [--window 64] on the naive scan forever, even though the workload as
   a whole is deep enough to amortise the FFT setup many times over.
   One-shot callers leave [history_len] at its default [m].

   [conv_reuse], when its shape matches, is reset and reused instead of
   allocating a fresh convolver — a compiled model carries the
   twiddle/plan state across queries this way. *)
let make_conv ?conv_reuse ?history_len ~fft_history ~terms ~n ~m () =
  let rows =
    List.filter_map (function _, Toeplitz r -> Some r | _, Dense _ -> None) terms
  in
  let nterms = List.length terms in
  let history_len = max m (Option.value history_len ~default:m) in
  if
    fft_history && nterms > 0 && List.length rows = nterms && m > 1
    && history_len >= fft_rhs_min_m && fft_rhs_enabled ()
  then
    match conv_reuse with
    | Some cv
      when Fft.Blocked_conv.rows cv = n
           && Fft.Blocked_conv.horizon cv = m
           && Fft.Blocked_conv.nterms cv = nterms ->
        Fft.Blocked_conv.reset cv;
        Some cv
    | Some _ | None ->
        Some
          (Fft.Blocked_conv.create ~kernels:(Array.of_list rows) ~rows:n ~m ())
  else None

let toeplitz_convolver ~n terms =
  match terms with
  | (_, Toeplitz r) :: _ ->
      make_conv ~fft_history:true ~terms ~n ~m:(Array.length r) ()
  | _ -> None

(* per-solve convolver bookkeeping for the obs layer *)
let record_conv_metrics ~conv ~m =
  match conv with
  | Some cv -> Metrics.incr ~by:(Fft.Blocked_conv.blocks cv) m_rhsconv_blocks
  | None -> Metrics.incr ~by:m m_rhsconv_naive

(* ------------------------------------------------------------------ *)
(* Fallback cascade                                                    *)

let record_event health e = Option.iter (fun h -> Health.record_event h e) health

(* ‖M x − rhs‖∞ given M·x; NaN entries count as an infinite residual *)
let residual_of ax rhs =
  let r = ref 0.0 in
  for i = 0 to Array.length rhs - 1 do
    let d = ax.(i) -. rhs.(i) in
    if Float.is_nan d then r := Float.infinity
    else begin
      let d = Float.abs d in
      if d > !r then r := d
    end
  done;
  !r

(* One step of iterative refinement on the diagonal block: the refined
   column is kept only when it is finite and strictly reduces the
   residual, so this is a bit-identical no-op whenever the trigger fires
   spuriously. Returns the column and its residual. *)
let refine_column ?health ~column ~solve ~apply x rhs =
  Metrics.incr m_refine_attempted;
  Trace.with_span "refine" @@ fun () ->
  let n = Array.length rhs in
  let ax = apply x in
  let res0 = residual_of ax rhs in
  let r = Array.init n (fun i -> rhs.(i) -. ax.(i)) in
  match Guard.protect (fun () -> solve r) with
  | Error _ ->
      record_event health
        (Health.Refined
           { column; residual_before = res0; residual_after = res0; kept = false });
      (x, res0)
  | Ok dx ->
      let x' = Array.init n (fun i -> x.(i) +. dx.(i)) in
      let res1 = residual_of (apply x') rhs in
      let kept = Guard.is_finite x' && res1 < res0 in
      record_event health
        (Health.Refined
           { column; residual_before = res0; residual_after = res1; kept });
      if kept then begin
        Metrics.incr m_refine_kept;
        (x', res1)
      end
      else (x, res0)

let raise_non_finite ~stage ~column x =
  let nans, infs = Guard.count_non_finite x in
  Opm_error.raise_
    (Opm_error.Non_finite { stage; column = Some column; nans; infs })

(* Post-solve guard shared by both backends: escalate non-finite columns
   through [escalate] (strict pivoting / dense fallback, backend
   specific), then attempt refinement when the factor's condition
   estimate crosses [cond_limit], then book-keep into [health]. On a
   finite, well-conditioned column this returns [x] untouched. *)
let guard_column ?health ~cond_limit ~column ~solve ~apply ~cond ~escalate x
    rhs =
  let x = if Guard.is_finite x then x else escalate x in
  let c = cond () in
  Option.iter (fun h -> Health.record_cond h c) health;
  let x, res =
    if c > cond_limit then
      let x, res = refine_column ?health ~column ~solve ~apply x rhs in
      (x, Some res)
    else (x, None)
  in
  (match health with
  | None -> ()
  | Some h ->
      Health.record_vec h x;
      let res =
        match res with Some r -> r | None -> residual_of (apply x) rhs
      in
      Health.record_residual h res);
  x

(* --- dense blocks --------------------------------------------------- *)

type dense_block = { dmat : Mat.t; dlu : Lu.t }

let dense_block ~column dmat =
  let dmat = fault_factor_dense ~column dmat in
  match Lu.factor dmat with
  | lu -> { dmat; dlu = lu }
  | exception Lu.Singular k ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = k; pivot = 0.0; name = None })

let solve_col_dense ?health ~cond_limit ~column blk rhs =
  let solve = Lu.solve blk.dlu in
  let apply = Mat.mul_vec blk.dmat in
  let x = fault_column ~column (solve rhs) in
  (* dense LU already pivots strictly, so there is no stronger
     factorisation to escalate to: a non-finite column is terminal *)
  let escalate x = raise_non_finite ~stage:"solve-dense" ~column x in
  guard_column ?health ~cond_limit ~column ~solve ~apply
    ~cond:(fun () -> Lu.cond_est blk.dlu)
    ~escalate x rhs

(* --- sparse blocks -------------------------------------------------- *)

type sparse_factor = Sfac of Slu.t | Dfac of Lu.t

type sparse_block = {
  smat : Csr.t;
  mutable strict_tried : bool;
  mutable sfac : sparse_factor;
}

let sparse_solve blk rhs =
  match blk.sfac with Sfac f -> Slu.solve f rhs | Dfac f -> Lu.solve f rhs

let sparse_cond blk =
  match blk.sfac with Sfac f -> Slu.cond_est f | Dfac f -> Lu.cond_est f

(* escalation rung 3: abandon the sparse factorisation entirely *)
let dense_fallback_factor ?health ~column smat =
  Metrics.incr m_dense_fallback;
  record_event health (Health.Dense_fallback { column });
  match Lu.factor (Csr.to_dense smat) with
  | lu -> Dfac lu
  | exception Lu.Singular k ->
      Opm_error.raise_
        (Opm_error.Singular_pencil { column; step = k; pivot = 0.0; name = None })

(* escalation rung 2: trade fill for stability with strict pivoting *)
let strict_factor ?health ~column smat =
  Metrics.incr m_strict_refactor;
  record_event health (Health.Strict_refactor { column });
  match Slu.factor ~pivot_tol:1.0 smat with
  | f -> Sfac f
  | exception Slu.Singular _ -> dense_fallback_factor ?health ~column smat

let sparse_block ?health ?sym ~column smat =
  (* Factor site, sparse backend: Singular simulates a failed default
     factorisation, driving the strict-pivoting rung — a recovery, not
     an error; Nan_poison poisons the pencil, which rides the cascade
     down to a structured Singular_pencil at the dense rung. *)
  let smat, forced_strict =
    match Fault.fire Fault.Factor with
    | None -> (smat, false)
    | Some Fault.Latency ->
        Fault.latency_sleep ();
        (smat, false)
    | Some Fault.Singular -> (smat, true)
    | Some Fault.Nan_poison -> (Csr.scale Float.nan smat, false)
    | Some Fault.Enospc -> fault_injected Fault.Factor
  in
  (* [sym] carries the symbolic analysis of a previously factored pencil
     with the same sparsity structure: the ⌈m⌉ distinct pencils of one
     OPM solve pay ordering/reach/fill-pattern discovery exactly once,
     with {!Slu.factor_hinted} falling back to a fresh analysis on any
     mismatch or pivot degradation.  The strict rung below stays
     hint-free: strict pivoting re-derives its own pivot sequence. *)
  let default_factor () =
    match sym with
    | Some hint -> Slu.factor_hinted ~hint smat
    | None -> Slu.factor smat
  in
  if forced_strict then
    { smat; strict_tried = true; sfac = strict_factor ?health ~column smat }
  else
    match default_factor () with
    | f -> { smat; strict_tried = false; sfac = Sfac f }
    | exception Slu.Singular _ ->
        { smat; strict_tried = true; sfac = strict_factor ?health ~column smat }

let solve_col_sparse ?health ~cond_limit ~column blk rhs =
  let x = fault_column ~column (sparse_solve blk rhs) in
  (* the escalations mutate [blk], so later columns sharing the cached
     block reuse the strongest factorisation reached so far *)
  let escalate x =
    let x = ref x in
    if (not blk.strict_tried) && not (Guard.is_finite !x) then begin
      blk.strict_tried <- true;
      blk.sfac <- strict_factor ?health ~column blk.smat;
      x := sparse_solve blk rhs
    end;
    (match blk.sfac with
    | Sfac _ when not (Guard.is_finite !x) ->
        blk.sfac <- dense_fallback_factor ?health ~column blk.smat;
        x := sparse_solve blk rhs
    | Sfac _ | Dfac _ -> ());
    if not (Guard.is_finite !x) then
      raise_non_finite ~stage:"solve-sparse" ~column !x;
    !x
  in
  guard_column ?health ~cond_limit ~column
    ~solve:(fun r -> sparse_solve blk r)
    ~apply:(Csr.mul_vec blk.smat)
    ~cond:(fun () -> sparse_cond blk)
    ~escalate x rhs

(* ------------------------------------------------------------------ *)

(* The diagonal-block pencils, shared verbatim between the solvers and
   the {!prefactor_dense}/{!prefactor_sparse} compile-ahead entry
   points so a prefactored block is bit-identical to the one the solve
   loop would have built. [key] is the per-column diagonal coefficient
   list (one per term). *)
let dense_pencil ~es ~a key =
  List.fold_left2
    (fun acc e dii -> Mat.add acc (Mat.scale dii e))
    (Mat.scale (-1.0) a) es key

let sparse_pencil ~es ~a key =
  List.fold_left2
    (fun acc e dii -> Csr.add ~alpha:1.0 ~beta:dii acc e)
    (Csr.scale (-1.0) a) es key

let linear_pencil_dense ~h ~e ~a = Mat.sub (Mat.scale (2.0 /. h) e) a

let linear_pencil_sparse ~h ~e ~a = Csr.add ~alpha:(2.0 /. h) ~beta:(-1.0) e a

let solve_dense ?health ?(cond_limit = Health.default_cond_limit) ?fcache
    ?(key_salt = []) ?(pin_factors = false) ?(fft_history = false) ?history_len
    ?conv_reuse ?budget ~terms ~a ~bu () =
  Trace.with_span "engine.solve_dense" @@ fun () ->
  let n, m = Mat.dims bu in
  check_terms_dims ~n ~m
    (List.map (fun (e, d) -> (Mat.dims e, opmat_dims d)) terms)
    (fst (Mat.dims a)) (snd (Mat.dims a));
  let term_mats = Array.of_list (List.map fst terms) in
  let apply_e k v = Mat.mul_vec term_mats.(k) v in
  let conv =
    make_conv ?conv_reuse ?history_len ~fft_history ~terms ~n ~m ()
  in
  let live = List.find_index (fun (e, _) -> Mat.norm_inf e > 0.0) terms in
  let cols = Array.make m [||] in
  let es = List.map fst terms in
  let build ~column key =
    budget_factor ~bytes:(n * n * 8) budget;
    Trace.with_span "factor" (fun () ->
        dense_block ~column (dense_pencil ~es ~a key))
  in
  let lookup = block_lookup ~pin:pin_factors ~fcache ~key_salt ~build () in
  Metrics.incr ~by:m m_columns;
  let t_lap = ref (Metrics.lap_start ()) in
  for i = 0 to m - 1 do
    budget_column budget;
    let rhs = column_rhs ?conv ?live ~n ~bu ~terms ~apply_e ~cols i in
    let blk = lookup ~column:i (diag_key terms i) in
    cols.(i) <- solve_col_dense ?health ~cond_limit ~column:i blk rhs;
    Option.iter (fun cv -> Fft.Blocked_conv.push cv cols.(i)) conv;
    if i land 7 = 7 then
      t_lap := Metrics.lap_mean h_column_seconds 8 !t_lap
  done;
  record_conv_metrics ~conv ~m;
  let x = Mat.zeros n m in
  Array.iteri (fun i col -> Mat.set_col x i col) cols;
  x

let solve_sparse ?health ?(cond_limit = Health.default_cond_limit) ?fcache
    ?(key_salt = []) ?(pin_factors = false) ?(fft_history = false) ?history_len
    ?conv_reuse ?budget ?slu_symbolic ~terms ~a ~bu () =
  Trace.with_span "engine.solve_sparse" @@ fun () ->
  let n, m = Mat.dims bu in
  check_terms_dims ~n ~m
    (List.map (fun (e, d) -> (Csr.dims e, opmat_dims d)) terms)
    (fst (Csr.dims a)) (snd (Csr.dims a));
  let term_mats = Array.of_list (List.map fst terms) in
  let apply_e k v = Csr.mul_vec term_mats.(k) v in
  let conv =
    make_conv ?conv_reuse ?history_len ~fft_history ~terms ~n ~m ()
  in
  let live = List.find_index (fun (e, _) -> Csr.nnz e > 0) terms in
  let cols = Array.make m [||] in
  let es = List.map fst terms in
  (* all pencils Σ_k d_kii·E_k − A of one call share one union sparsity
     pattern, so a per-call hint makes every build after the first a
     numeric-only refactorisation *)
  let sym =
    match slu_symbolic with Some r -> r | None -> ref None
  in
  let build ~column key =
    let pencil = sparse_pencil ~es ~a key in
    budget_factor ~bytes:(Csr.nnz pencil * 16) budget;
    Trace.with_span "factor" (fun () ->
        sparse_block ?health ~sym ~column pencil)
  in
  let lookup = block_lookup ~pin:pin_factors ~fcache ~key_salt ~build () in
  Metrics.incr ~by:m m_columns;
  let t_lap = ref (Metrics.lap_start ()) in
  for i = 0 to m - 1 do
    budget_column budget;
    let rhs = column_rhs ?conv ?live ~n ~bu ~terms ~apply_e ~cols i in
    let blk = lookup ~column:i (diag_key terms i) in
    cols.(i) <- solve_col_sparse ?health ~cond_limit ~column:i blk rhs;
    Option.iter (fun cv -> Fft.Blocked_conv.push cv cols.(i)) conv;
    if i land 7 = 7 then
      t_lap := Metrics.lap_mean h_column_seconds 8 !t_lap
  done;
  record_conv_metrics ~conv ~m;
  let x = Mat.zeros n m in
  Array.iteri (fun i col -> Mat.set_col x i col) cols;
  x

(* order-1 fast path shared between backends: [solve_col h ~column rhs]
   returns the guarded solution of (2/h·E − A) x = rhs *)
let solve_linear ?budget ~steps ~apply_e ~solve_col ~bu () =
  let n, m = Mat.dims bu in
  if Array.length steps <> m then
    invalid_arg "Engine.solve_linear: step count mismatch";
  let x = Mat.zeros n m in
  let salt = Array.make n 0.0 in
  Metrics.incr ~by:m m_columns;
  let t_lap = ref (Metrics.lap_start ()) in
  for i = 0 to m - 1 do
    budget_column budget;
    let h = steps.(i) in
    let rhs = Array.init n (fun r -> Mat.get bu r i) in
    let sign = if i land 1 = 1 then -1.0 else 1.0 in
    (* salt is exactly zero on column 0 (and after any exact reset): the
       coupling term contributes ±0.0 per entry, which adding to rhs is a
       no-op, so the E·salt matvec can be skipped *)
    if not (Array.for_all (fun v -> v = 0.0) salt) then begin
      let coupling = apply_e salt in
      Vec.axpy (-4.0 /. h *. sign) coupling rhs
    end;
    let xi = solve_col h ~column:i rhs in
    Mat.set_col x i xi;
    Vec.axpy sign xi salt;
    if i land 7 = 7 then
      t_lap := Metrics.lap_mean h_column_seconds 8 !t_lap
  done;
  x

let linear_cache_key ?(key_salt = []) h =
  (* the order-1 fast paths solve (2/h·E − A): α is pinned to 1, but the
     key carries it anyway so a cache shared with other pencils (the
     windowed driver, multi-order processes on one grid) can never
     collide on a coincidental (α, h) pair — e.g. at h = 2 the diagonal
     coefficient (2/h)^α is 1 for every α *)
  key_salt @ [ 1.0; h ]

(* per-call single-entry memo in front of the (possibly shared) step
   cache, mirroring {!block_lookup}: a uniform grid costs one cache
   access per call, so cross-call hit statistics count calls *)
let linear_lookup ~pin ~cache ~factor =
  let memo = ref None in
  fun ~column h ->
    match !memo with
    | Some ((k : float), b) when k = h -> b
    | _ ->
        let b =
          Factor_cache.find_or_add ~pin cache (linear_cache_key h) (fun _ ->
              factor ~column h)
        in
        memo := Some (h, b);
        b

let solve_linear_dense ?health ?(cond_limit = Health.default_cond_limit)
    ?fcache ?(pin_factors = false) ?budget ~steps ~e ~a ~bu () =
  Trace.with_span "engine.solve_linear_dense" @@ fun () ->
  let cache =
    match fcache with Some c -> c | None -> Factor_cache.create ()
  in
  let n = fst (Mat.dims e) in
  let factor ~column h =
    budget_factor ~bytes:(n * n * 8) budget;
    Trace.with_span "factor" (fun () ->
        dense_block ~column (linear_pencil_dense ~h ~e ~a))
  in
  let lookup = linear_lookup ~pin:pin_factors ~cache ~factor in
  let solve_col h ~column rhs =
    solve_col_dense ?health ~cond_limit ~column (lookup ~column h) rhs
  in
  solve_linear ?budget ~steps ~apply_e:(Mat.mul_vec e) ~solve_col ~bu ()

let solve_linear_sparse ?health ?(cond_limit = Health.default_cond_limit)
    ?fcache ?(pin_factors = false) ?budget ?slu_symbolic ~steps ~e ~a ~bu () =
  Trace.with_span "engine.solve_linear_sparse" @@ fun () ->
  let cache =
    match fcache with Some c -> c | None -> Factor_cache.create ()
  in
  let sym =
    match slu_symbolic with Some r -> r | None -> ref None
  in
  let factor ~column h =
    let pencil = linear_pencil_sparse ~h ~e ~a in
    budget_factor ~bytes:(Csr.nnz pencil * 16) budget;
    Trace.with_span "factor" (fun () ->
        sparse_block ?health ~sym ~column pencil)
  in
  let lookup = linear_lookup ~pin:pin_factors ~cache ~factor in
  let solve_col h ~column rhs =
    solve_col_sparse ?health ~cond_limit ~column (lookup ~column h) rhs
  in
  solve_linear ?budget ~steps ~apply_e:(Csr.mul_vec e) ~solve_col ~bu ()

(* ------------------------------------------------------------------ *)
(* Compile-ahead factorisation. These insert (and pin) the diagonal
   block a subsequent solve will look up, using the same pencil
   builders and the same cache keys — so a query after [prefactor_*]
   performs zero factorisations and returns bit-identical columns. *)

let prefactor_dense fc ~key_salt ~diag ~es ~a =
  ignore
    (Factor_cache.find_or_add ~pin:true fc (key_salt @ diag) (fun _ ->
         Trace.with_span "factor" (fun () ->
             dense_block ~column:0 (dense_pencil ~es ~a diag)))
      : dense_block)

let prefactor_sparse ?health ?slu_symbolic fc ~key_salt ~diag ~es ~a =
  ignore
    (Factor_cache.find_or_add ~pin:true fc (key_salt @ diag) (fun _ ->
         Trace.with_span "factor" (fun () ->
             sparse_block ?health ?sym:slu_symbolic ~column:0
               (sparse_pencil ~es ~a diag)))
      : sparse_block)

let prefactor_linear_dense fc ~h ~e ~a =
  ignore
    (Factor_cache.find_or_add ~pin:true fc (linear_cache_key h) (fun _ ->
         Trace.with_span "factor" (fun () ->
             dense_block ~column:0 (linear_pencil_dense ~h ~e ~a)))
      : dense_block)

let prefactor_linear_sparse ?health ?slu_symbolic fc ~h ~e ~a =
  ignore
    (Factor_cache.find_or_add ~pin:true fc (linear_cache_key h) (fun _ ->
         Trace.with_span "factor" (fun () ->
             sparse_block ?health ?sym:slu_symbolic ~column:0
               (linear_pencil_sparse ~h ~e ~a)))
      : sparse_block)

let solve_dense_kron ~terms ~a ~bu =
  let n, m = Mat.dims bu in
  check_terms_dims ~n ~m
    (List.map (fun (e, d) -> (Mat.dims e, Mat.dims d)) terms)
    (fst (Mat.dims a)) (snd (Mat.dims a));
  (* (Σ_k D_kᵀ ⊗ E_k − I_m ⊗ A) vec(X) = vec(BU), column-major vec *)
  let big =
    List.fold_left
      (fun acc (e, d) -> Mat.add acc (Mat.kron (Mat.transpose d) e))
      (Mat.kron (Mat.eye m) (Mat.scale (-1.0) a))
      terms
  in
  let rhs = Array.init (n * m) (fun k -> Mat.get bu (k mod n) (k / n)) in
  let sol = Lu.solve_dense big rhs in
  Mat.init n m (fun r c -> sol.((c * n) + r))
