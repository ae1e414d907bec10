open Opm_numkit
open Opm_core

(** DC operating point.

    The steady state of [E d^α x = A x + B u] under constant input
    [u₀] has [d^α x = 0], hence [x_dc = −A^{−1} B u₀]. For circuit
    MNA systems this is the classical DC solve (capacitors open,
    inductors shorted, which is exactly what dropping the [E] term
    does). *)

val operating_point : Descriptor.t -> u0:Vec.t -> Vec.t
(** Raises [Invalid_argument] on input-size mismatch. When the system
    has no unique DC solution (e.g. a floating node or a pure
    integrator) it raises {!Opm_sparse.Slu.Singular} if a pivot is
    exactly zero, and [Opm_robust.Opm_error.Error (Ill_conditioned _)]
    if [A] is singular to working precision — the 1-norm condition
    estimate of the row-equilibrated [R·A], [R = diag(1/max|row|)],
    reaches [1/ε]. Never a wrong answer. *)

val outputs_at : Descriptor.t -> u0:Vec.t -> Vec.t
(** [C · operating_point]. *)

val dc_gain : Descriptor.t -> Mat.t
(** [−C A^{−1} B] — the zero-frequency transfer matrix, column per
    input. Raises as {!operating_point} on a singular [A]. *)
