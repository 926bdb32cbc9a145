"""The private gradient function of Definition 5.

For least-squares, the gradient of the aggregate loss is *linear in the data
moments* (paper eq. (2)):

    ``∇L(θ; Γ_t) = 2(X_tᵀX_t θ − X_tᵀy_t) = 2(Σ x_i x_iᵀ θ − Σ x_i y_i)``.

Algorithms 2 and 3 therefore maintain the two moment streams privately with
the Tree Mechanism and expose the **function**

    ``g_t(θ) = 2(Q_t θ − q_t)``

where ``Q_t ≈ Σ x_i x_iᵀ`` and ``q_t ≈ Σ x_i y_i`` are the noisy prefix
sums.  The function's two defining properties (Definition 5):

(i)  *privacy* — ``(Q_t, q_t)`` are released by a DP mechanism, and ``g_t``
     is a deterministic map of them, so evaluating ``g_t`` at arbitrarily
     many points is free post-processing;
(ii) *utility* — uniformly over ``θ ∈ C``,
     ``‖g_t(θ) − ∇L(θ; Γ_t)‖ ≤ 2(‖Q_t − Σxxᵀ‖_F·‖C‖ + ‖q_t − Σxy‖)``,
     which Lemma 4.1 bounds by ``O(κ‖C‖(√d + √log(1/β)))`` via
     Proposition C.1.

This module packages the released moments and those bounds into a callable
object that :class:`~repro.erm.noisy_pgd.NoisyProjectedGradient` consumes.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_matrix, check_non_negative, check_vector

__all__ = ["PrivateGradientFunction"]


class PrivateGradientFunction:
    """The released gradient function ``g(θ) = 2(Qθ − q)``.

    Parameters
    ----------
    noisy_gram:
        The noisy second-moment matrix ``Q`` (shape ``(d, d)``); callers
        should symmetrize before passing if exact symmetry matters.
    noisy_cross:
        The noisy cross-moment vector ``q`` (shape ``(d,)``), or a
        ``(k, d)`` stack of them: ``k`` outcomes sharing the one Gram
        (PRIMO), evaluated together at a ``(k, d)`` stack of points.
    error_bound:
        A high-probability bound ``α`` on ``sup_{θ∈C} ‖g(θ) − ∇L(θ)‖``
        (Definition 5(ii)); consumed by the PGD step-size rule.

    Notes
    -----
    The object is deliberately *immutable data + pure call*: its privacy
    property is inherited entirely from how ``Q`` and ``q`` were produced,
    and nothing here touches raw data.
    """

    def __init__(
        self,
        noisy_gram: np.ndarray,
        noisy_cross: np.ndarray,
        error_bound: float,
    ) -> None:
        self.noisy_gram = check_matrix("noisy_gram", noisy_gram)
        dim = self.noisy_gram.shape[0]
        if self.noisy_gram.shape != (dim, dim):
            raise ValueError(f"noisy_gram must be square, got {self.noisy_gram.shape}")
        if np.ndim(noisy_cross) == 2:
            self.noisy_cross = check_matrix(
                "noisy_cross", noisy_cross, shape=(np.shape(noisy_cross)[0], dim)
            )
        else:
            self.noisy_cross = check_vector("noisy_cross", noisy_cross, dim=dim)
        self.error_bound = check_non_negative("error_bound", error_bound)
        self.dim = dim

    @classmethod
    def _from_checked(
        cls, noisy_gram: np.ndarray, noisy_cross: np.ndarray, error_bound: float
    ) -> "PrivateGradientFunction":
        """Build from moments that are already known to be valid.

        For the estimators' refreshes: the moments are either their own
        tree releases (finite inputs plus Gaussian noise) or were checked
        once by ``refresh_from_released``, so re-running the ``d²``
        finiteness pass on the symmetrized copy would only repeat that.
        """
        function = cls.__new__(cls)
        function.noisy_gram = noisy_gram
        function.noisy_cross = noisy_cross
        function.error_bound = error_bound
        function.dim = noisy_gram.shape[0]
        return function

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate ``g(θ) = 2(Qθ − q)`` (free post-processing).

        A ``(k, d)`` ``θ`` is evaluated row by row against a ``(k, d)``
        cross: the stacked matmul makes one ``gemv`` call per row with the
        strides of ``Q @ θ[i]``, so row ``i`` is bit-identical to the
        single-outcome evaluation.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            product = np.matmul(self.noisy_gram, theta[:, :, None])[:, :, 0]
            return 2.0 * (product - self.noisy_cross)
        return 2.0 * (self.noisy_gram @ theta - self.noisy_cross)

    @staticmethod
    def moment_error_bound(
        gram_error: float, cross_error: float, constraint_diameter: float
    ) -> float:
        """Lemma 4.1's reduction: gradient error from moment errors.

        ``‖g(θ) − ∇L(θ)‖ ≤ 2(‖ΔQ‖_F ‖θ‖ + ‖Δq‖) ≤ 2(ΔQ·‖C‖ + Δq)``.
        """
        gram_error = check_non_negative("gram_error", gram_error)
        cross_error = check_non_negative("cross_error", cross_error)
        constraint_diameter = check_non_negative("constraint_diameter", constraint_diameter)
        return 2.0 * (gram_error * constraint_diameter + cross_error)
