open Opm_numkit
open Opm_sparse
open Opm_robust

(** The OPM linear-matrix-equation kernel.

    Solves the coefficient equation

    [Σ_k E_k · X · D_k = A · X + BU]

    for the [n×m] matrix [X], where every [D_k] is the (upper-triangular)
    operational matrix of the [k]-th differential term. This is the
    paper's eq. (14)/(27) generalised to several terms; because each
    [D_k] is upper triangular, [Dᵀ ⊗ E − I ⊗ A] is block lower
    triangular and [X] is solved column by column (§III-A, §IV):

    [(Σ_k d^{(k)}_{ii} E_k − A) x_i = bu_i − Σ_k E_k Σ_{j<i} d^{(k)}_{ji} x_j]

    When the [d^{(k)}_{ii}] are constant across columns (uniform time
    step) the left-hand matrix is factorised once and reused — that is
    why Table II shows OPM's runtime on par with one-factorisation
    transient schemes.

    This differential form ([D = H⁻¹]) is the only formulation the
    engine solves; callers carry a nonzero initial state through the
    [z = x − x₀] shift.

    {2 Guardrails}

    Every column solve runs behind a fallback cascade. A non-finite
    column escalates — for the sparse backend: re-factor with strict
    partial pivoting ([pivot_tol = 1.0]), then fall back to a dense LU
    of the same block — and a factor whose Hager 1-norm condition
    estimate exceeds [cond_limit] (default
    {!Health.default_cond_limit}) gets one step of iterative
    refinement, kept only when it strictly reduces the residual. On
    well-conditioned inputs every guard is a bit-identical no-op. When
    the cascade is exhausted the solvers raise the structured
    {!Opm_error.Error} ([Singular_pencil] from the factorisations,
    [Non_finite] from the solves) instead of a bare backend exception.
    Pass [?health] to additionally collect per-column NaN/Inf counts,
    the maximum residual [‖(Σ_k d_ii E_k − A) x_i − rhs_i‖∞] (equal,
    column-wise, to [‖Σ_k E_k X D_k − A X − BU‖∞]), the worst condition
    estimate, and the fallback events taken — collection never changes
    the result.

    {2 Fast history convolution}

    The per-column history term [Σ_{j<i} d^{(k)}_{ji} x_j] is the
    [O(n·m²)] hot path. On uniform grids every [D_k] is upper-triangular
    {e Toeplitz} ([d_{j,j+l}] depends only on the lag [l]) and is passed
    as {!Toeplitz} (its first row); the history is then a causal
    convolution of that row with the solved-column sequence, which
    {!Opm_numkit.Fft.Blocked_conv} computes in [O(n·m·log² m)] instead
    of the naive scan's [O(n·m²)].

    {b FFT-path rule.} {!solve_dense}/{!solve_sparse} take the FFT path
    exactly when the caller passes [~fft_history:true], {e every}
    operand is [Toeplitz], {!fft_rhs_enabled} holds, [m > 1] and
    [max m history_len >= ]{!fft_rhs_min_m}; otherwise the naive scan
    runs, reading the same entries from either form — so a [Toeplitz]
    operand and its densified [Dense] twin give bit-identical results
    there. The FFT reassociates the summation: results agree with the
    naive path to ≤ 1e-10 relative, not bit-identically, which is why
    callers vouch with [~fft_history] only for non-growing kernels
    (fractional orders [α ≤ 1]); for [α > 1] the alternating, growing
    ρ weights stay accurate only in the naive scan's summation order.
    {!fft_rhs_enabled} gates the fast path globally ([OPM_NO_FFT_RHS],
    the CLI's [--no-fft-rhs]). *)

val fft_rhs_enabled : unit -> bool
(** Whether the FFT Toeplitz history path may be used. Defaults to
    [true] unless the environment variable [OPM_NO_FFT_RHS] is set to a
    non-empty value other than ["0"]. *)

val set_fft_rhs_enabled : bool -> unit
(** Override the switch for the rest of the process (takes precedence
    over the environment). *)

val pick_backend : [ `Auto | `Dense | `Sparse ] -> int -> [ `Dense | `Sparse ]
(** Resolve a backend request against the state count [n]: [`Auto]
    selects [`Sparse] when [n > 64], else [`Dense]; explicit choices
    pass through. Every driver ({!Compiled_model}, {!Window}) resolves
    through this one policy. *)

(** An operational matrix [D_k] as the column engine reads it. Both
    forms must be upper triangular; only entries [d_{j,i}] with
    [j <= i] are read. *)
type opmat =
  | Dense of Mat.t  (** [m×m]: adaptive grids, other bases *)
  | Toeplitz of Vec.t
      (** first row of an upper-triangular Toeplitz [m×m] matrix,
          [d_{j,i} = row.(i − j)] — O(m) storage (uniform-grid BPF
          [D^α], see {!Opm_basis.Block_pulse.fractional_differential_row}) *)

val opmat_get : opmat -> int -> int -> float
(** [opmat_get d j i] is [d_{j,i}], for [j <= i]. *)

type dense_block
(** A factorised diagonal block of the dense backend (pencil matrix +
    its LU). *)

type sparse_block
(** A factorised diagonal block of the sparse backend; mutable so the
    fallback cascade can upgrade the factorisation in place. *)

(** Bounded factorisation cache keyed by an arbitrary hashable key
    ([float] step for the order-1 fast paths, salted
    [float list] diagonal-coefficient keys for cross-call sharing). A
    hashtable keyed on the exact key gives O(1) lookups (the former
    assoc list scanned linearly — O(m²) over a fully-adaptive grid —
    and grew without bound); when [capacity] distinct keys are exceeded
    the cache resets, bounding memory while keeping uniform and
    few-distinct-step grids fully cached.

    {b Key discipline.} A cache shared across solve calls must be keyed
    on the full [(α₁…α_K, h)] identity of the pencil, not just the
    diagonal coefficients: [(2/h)^α] coincides for different [(α, h)]
    pairs (at [h = 2] it is [1.0] for {e every} α), so a diagonal-only
    key silently reuses the wrong factorisation when a process mixes
    differentiation orders on one grid. {!solve_dense}/{!solve_sparse}
    prepend the caller's [?key_salt] (the term orders and the step, see
    {!Opm_core.Window}) to every lookup; the order-1 fast paths key on
    [[1.0; h]] — α pinned by construction, but carried in the key so a
    shared cache stays collision-free. *)
module Factor_cache : sig
  type ('k, 'f) t

  val default_capacity : int
  (** 64. *)

  val create : ?capacity:int -> unit -> ('k, 'f) t
  (** Raises [Invalid_argument] if [capacity < 1]. *)

  val find_or_add : ?pin:bool -> ('k, 'f) t -> 'k -> ('k -> 'f) -> 'f
  (** [find_or_add c k factor] returns the cached factorisation for key
      [k], calling [factor k] (and evicting on overflow) on a miss.

      [~pin:true] marks the entry {e pinned}: pinned entries live
      outside the capacity bound and survive the overflow reset, so a
      sweep interleaving more than [capacity] other [(α, h)] keys can
      never evict the hot pencil factor mid-run. Pinning is an upgrade
      — a key already cached unpinned is migrated. Pinned entries are
      expected to be few (the hot pencils of live windows / compiled
      models); they are released only with the cache itself. *)

  val length : ('k, 'f) t -> int
  (** Currently cached entries, pinned included; the unpinned portion
      is always [<= capacity]. *)

  val pinned_count : ('k, 'f) t -> int

  val hits : ('k, 'f) t -> int
  (** Cache accesses served from the table (pinned or not). The solvers
      consult the shared cache once per call — consecutive columns are
      served by a per-call memo — so on uniform grids [hits]/[misses]
      count {e engine calls}, not columns. *)

  val misses : ('k, 'f) t -> int
end

val fft_rhs_min_m : int
(** Minimum effective history length (256) below which the naive scan
    is kept — under the measured crossover the convolver's setup never
    amortises, and short horizons stay bit-identical to the historical
    engine. *)

val solve_dense :
  ?health:Health.t ->
  ?cond_limit:float ->
  ?fcache:(float list, dense_block) Factor_cache.t ->
  ?key_salt:float list ->
  ?pin_factors:bool ->
  ?fft_history:bool ->
  ?history_len:int ->
  ?conv_reuse:Fft.Blocked_conv.t ->
  ?budget:Budget.t ->
  terms:(Mat.t * opmat) list ->
  a:Mat.t ->
  bu:Mat.t ->
  unit ->
  Mat.t
(** [terms] are [(E_k, D_k)] pairs. Raises [Invalid_argument] on
    dimension mismatches, {!Opm_error.Error} if a diagonal block is
    singular or a column stays non-finite.

    [?budget] (here and on every [solve_*] below) arms cooperative
    resource enforcement: the wall-clock deadline is checked before
    every column, and each factorisation is charged (with an estimated
    footprint — [n²·8] bytes dense, [nnz·16] sparse) before it runs;
    on breach a structured [Opm_error.Deadline_exceeded] /
    [Budget_exhausted] is raised. Without a budget the hook is one
    [Option] match per column. The engine also carries three
    fault-injection sites ([factor], [column-solve], [fft-block], see
    {i Opm_robust.Fault}); when no plan is armed each site is a single
    atomic load.

    [?fcache] substitutes a caller-owned cross-call cache for the
    per-call one, so repeated solves against the same pencil (the
    windowed streaming driver, compiled models) factorise once; lookups
    are keyed [key_salt @ diagonal coefficients] — pass the term orders
    and step in [key_salt] whenever the cache outlives one call (see
    {!Factor_cache}). [?pin_factors] pins the blocks this call inserts
    or touches in [?fcache], shielding them from capacity eviction.

    [?fft_history] (default [false]) allows the FFT history path under
    the rule above; below {!fft_rhs_min_m} the naive scan is kept,
    bit-identically. The gate compares [max m history_len]: a windowed
    caller solving a long horizon in short blocks passes the
    {e global} horizon as [?history_len] so the per-window column count
    does not mask a workload deep enough to amortise the FFT.
    [?conv_reuse] recycles a previously created convolver of matching
    shape (its kernel spectra — the plan state — are kept, its data
    reset); on shape mismatch a fresh one is allocated.

    The [fft-block] fault site poisons the history of the first term
    whose [E_k] is non-empty, so the injected NaN always reaches a live
    term. *)

val solve_sparse :
  ?health:Health.t ->
  ?cond_limit:float ->
  ?fcache:(float list, sparse_block) Factor_cache.t ->
  ?key_salt:float list ->
  ?pin_factors:bool ->
  ?fft_history:bool ->
  ?history_len:int ->
  ?conv_reuse:Fft.Blocked_conv.t ->
  ?budget:Budget.t ->
  ?slu_symbolic:Slu.symbolic option ref ->
  terms:(Csr.t * opmat) list ->
  a:Csr.t ->
  bu:Mat.t ->
  unit ->
  Mat.t
(** Same algorithm with sparse [E_k], [A] and the sparse LU backend
    (plus the strict-pivoting and sparse→dense escalation rungs).

    The [⌈m⌉] distinct pencils of one call share one sparsity pattern,
    so the symbolic analysis (ordering, elimination reaches, fill
    pattern) is computed once and replayed numerically for the rest
    ({!Slu.factor_hinted}); [?slu_symbolic] substitutes a caller-owned
    hint ref so the reuse extends across calls sharing [?fcache] — e.g.
    a windowed driver or a compiled model re-solving the same
    structure. The strict-pivoting escalation rung never uses the
    hint. *)

val toeplitz_convolver :
  n:int -> ('e * opmat) list -> Fft.Blocked_conv.t option
(** The convolver {!solve_dense}/{!solve_sparse} build under
    [~fft_history:true] for these operands and an [n]-row state, or
    [None] when the FFT-path rule keeps the naive scan. A caller that
    solves the same operands repeatedly builds it once and passes it as
    [?conv_reuse]. *)

val solve_dense_kron : terms:(Mat.t * Mat.t) list -> a:Mat.t -> bu:Mat.t -> Mat.t
(** Reference implementation that forms the full
    [Σ_k (D_kᵀ ⊗ E_k) − I_m ⊗ A] Kronecker system (the paper's eq. (15))
    and solves it densely — [O((nm)³)]; exists to validate
    {!solve_dense} and to ablate the complexity claim. *)

val solve_linear_dense :
  ?health:Health.t ->
  ?cond_limit:float ->
  ?fcache:(float list, dense_block) Factor_cache.t ->
  ?pin_factors:bool ->
  ?budget:Budget.t ->
  steps:float array ->
  e:Mat.t ->
  a:Mat.t ->
  bu:Mat.t ->
  unit ->
  Mat.t
(** Order-1 fast path (paper §III-A: for linear systems [D]'s special
    pattern — column [i] is [(2/h_i)] on the diagonal and
    [4(−1)^{i−j}/h_i] above — reduces the per-column history to one
    running alternating sum):

    [(2/h_i·E − A) x_i = bu_i − (4/h_i)·E·(−1)^i·Σ_{j<i} (−1)^j x_j]

    [O(n^β·#distinct steps + n·m)] instead of the generic engine's
    [O(n·m²)]. Never materialises [D]. [?fcache] shares the step →
    factorisation cache across calls (keyed [[1.0; h]], α and step);
    the windowed driver passes one cache for all windows so the pencil
    is factorised exactly once per horizon. *)

val solve_linear_sparse :
  ?health:Health.t ->
  ?cond_limit:float ->
  ?fcache:(float list, sparse_block) Factor_cache.t ->
  ?pin_factors:bool ->
  ?budget:Budget.t ->
  ?slu_symbolic:Slu.symbolic option ref ->
  steps:float array ->
  e:Csr.t ->
  a:Csr.t ->
  bu:Mat.t ->
  unit ->
  Mat.t
(** Sparse-backend version of {!solve_linear_dense}. All step pencils
    [2/h·E − A] share one pattern; [?slu_symbolic] as in
    {!solve_sparse}. *)

(** {1 Compile-ahead factorisation}

    [prefactor_*] insert — and pin — the diagonal block a subsequent
    solve against the same cache will look up, using the same pencil
    builders and the same cache keys, so the query performs zero
    factorisations and returns bit-identical columns. [~diag] is the
    per-term diagonal-coefficient list of column 0 ([(2/h)^α·ρ_α(0)]
    per term on a uniform grid); [~es] the matching [E_k] list; the
    linear variants key on the step [h]. *)

val prefactor_dense :
  (float list, dense_block) Factor_cache.t ->
  key_salt:float list -> diag:float list -> es:Mat.t list -> a:Mat.t -> unit

val prefactor_sparse :
  ?health:Health.t ->
  ?slu_symbolic:Slu.symbolic option ref ->
  (float list, sparse_block) Factor_cache.t ->
  key_salt:float list -> diag:float list -> es:Csr.t list -> a:Csr.t -> unit

val prefactor_linear_dense :
  (float list, dense_block) Factor_cache.t ->
  h:float -> e:Mat.t -> a:Mat.t -> unit

val prefactor_linear_sparse :
  ?health:Health.t ->
  ?slu_symbolic:Slu.symbolic option ref ->
  (float list, sparse_block) Factor_cache.t ->
  h:float -> e:Csr.t -> a:Csr.t -> unit
