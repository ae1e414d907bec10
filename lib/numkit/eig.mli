(** Dense nonsymmetric eigenvalues.

    Classic two-stage reduction: similarity transformation to upper
    Hessenberg form (stabilised elementary eliminations) followed by the
    Francis implicit double-shift QR iteration, so complex-conjugate
    pairs come out without complex arithmetic. This powers the pole
    analysis of stamped circuits ({!Opm_analysis.Poles}) and the
    stability checks in the tests.

    Eigen{i vectors} are not computed — OPM never needs them (that is
    rather the point of the paper: fractional powers of the operational
    matrix are taken through series/Parlett, not eigendecomposition,
    when eigenvectors are deficient). *)

exception No_convergence of int
(** QR failed to deflate an eigenvalue within the iteration budget (60
    sweeps, an exceptional shift every 10); the payload is the stuck
    index. Practically unreachable for the
    balanced circuit matrices this library produces. *)

val hessenberg : Mat.t -> Mat.t
(** Similarity-equivalent upper Hessenberg form (entries below the first
    subdiagonal are exactly zero). Raises [Invalid_argument] on
    non-square input. *)

val eigenvalues : Mat.t -> Complex.t array
(** All [n] eigenvalues, unordered; conjugate pairs appear adjacently. *)

val spectral_abscissa : Mat.t -> float
(** [max Re λ] — negative iff the matrix is Hurwitz-stable. *)
