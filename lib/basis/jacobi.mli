open Opm_numkit

(** Jacobi-Gauss spectral collocation basis (Zeng & Li, "Fractional
    differentiation matrices with applications").

    Block pulses converge like [O(h²)]; a polynomial collocation basis
    converges spectrally on smooth data, so a few dozen collocation
    points replace thousands of block pulses. This module provides the
    basis-level machinery the spectral solver builds on:

    - Jacobi-Gauss nodes and weights by Golub–Welsch on the three-term
      recurrence (a self-contained symmetric-tridiagonal QL — the
      general eigensolver in {!Opm_numkit.Eig} returns eigenvalues
      only, and Golub–Welsch needs the first eigenvector components);
    - barycentric interpolation and resampling onto arbitrary output
      grids (uniform BPF midpoints included);
    - the classical first-derivative collocation matrix; and
    - the dense fractional differentiation matrix [D^α], built stably
      through the identity

      [RL D^α P̂_k(x) = Γ(k+1)/Γ(k−α+1) · x^{−α} · P_k^{(α,−α)}(2x−1)]

      for the shifted Legendre polynomials [P̂_k], with the Jacobi
      polynomial evaluated by its own three-term recurrence. (Expanding
      into monomials instead cancels catastrophically beyond degree
      ≈ 25 — the 4^k coefficient growth of [P̂_k].)

    Collocation layout: the interpolation node set is
    [{0} ∪ {x_1 < … < x_m}] with [x_i] the [m] Gauss nodes of [(0,
    t_end)]; collocation rows are taken at the Gauss nodes only, so the
    fractional kernel's [x^{−α}] is never evaluated at the origin, and
    the extra node at 0 carries the initial condition: a solution
    interpolant anchored at [z(0) = 0] turns the Riemann–Liouville
    matrix into the Caputo operator under the paper's
    zero-initial-derivative convention. *)

type colloc = {
  t_end : float;
  m : int;  (** number of Gauss collocation points *)
  nodes : float array;  (** the [m] Gauss nodes, ascending, in [(0, t_end)] *)
  all : float array;  (** [{0} ∪ nodes] — the [m + 1] interpolation nodes *)
  bw : float array;  (** barycentric weights of [all] *)
  qw : float array;  (** Gauss quadrature weights on [[0, t_end]] *)
}

val gauss : ?a:float -> ?b:float -> m:int -> unit -> float array * float array
(** [m] Jacobi-Gauss nodes (ascending) and weights for the weight
    [(1−z)^a (1+z)^b] on [[−1, 1]] (default [a = b = 0]: Gauss–
    Legendre), by Golub–Welsch. Raises [Invalid_argument] for [m < 1]
    or [a], [b] ≤ −1, [Failure] if the QL iteration fails to
    converge. *)

val jacobi_eval : a:float -> b:float -> deg:int -> float -> float
(** [P_deg^{(a,b)}(z)] by the three-term recurrence — stable for the
    [a + b = 0] parameter line the fractional matrix uses (degree 1 is
    computed directly; the generic recurrence coefficient degenerates
    there). *)

val collocation : t_end:float -> m:int -> colloc
(** The [{0} ∪ Gauss] collocation layout on [[0, t_end]]. *)

val barycentric_weights : float array -> float array
(** Barycentric weights of a distinct-node set, products scaled by the
    capacity [(max − min)/4] so they neither overflow nor underflow at
    the sizes spectral collocation uses. *)

val resample_matrix : colloc -> float array -> Mat.t
(** [R] of shape [(len times) × (m+1)]: [R_{kj} = ℓ_j(t_k)], the
    cardinal functions of [colloc.all] evaluated at the output times —
    nodal values map to output samples as [R · v]. *)

val diff_matrix : colloc -> Mat.t
(** Classical first-derivative collocation matrix on [colloc.all],
    shape [(m+1) × (m+1)]: entry [(i, j) = ℓ_j'(t_i)] by the
    barycentric formula with the negated-sum diagonal. *)

val caputo_colloc : colloc -> alpha:float -> Mat.t
(** The [m × m] anchored fractional collocation matrix: entry
    [(i, j) = (D^α ℓ_{j+1})(x_{i+1})] — rows at the Gauss nodes,
    columns over the Gauss-node cardinals (the cardinal of the node at
    0 is dropped, which is exactly the action on an interpolant
    anchored at [z(0) = 0]). For non-integer [α] this is the
    Riemann–Liouville derivative of the anchored interpolant, i.e. the
    Caputo operator of the solver's zero-initial-state convention (all
    initial derivatives 0). Integer [α = q] dispatches to [q] exact
    powers of {!diff_matrix} restricted to the same rows/columns, so
    [caputo_colloc ~alpha:1.0] is bit-identical to {!diff_colloc}.
    Raises [Invalid_argument] for [α ≤ 0]. *)

val diff_colloc : colloc -> Mat.t
(** The classical ([α = 1]) anchored collocation matrix — the
    [m × m] row/column restriction of {!diff_matrix}; the reference
    the [α = 1] reduction of {!caputo_colloc} is bit-checked
    against. *)
