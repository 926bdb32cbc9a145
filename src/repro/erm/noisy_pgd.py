"""Noisy projected gradient descent (the paper's Appendix B).

Algorithms 2 and 3 never see exact gradients: they query a *private gradient
function* ``g_t`` (Definition 5) that is an ``(α, β)``-approximation of the
true gradient.  Appendix B shows plain projected gradient descent still
converges when driven by such a gradient oracle:

    ``NOISYPROJGRAD``:  ``θ_{k+1} = P_C(θ_k − η · g(θ_k))``, output the
    iterate average ``θ̄ = (1/r) Σ θ_k``.

With the constant step size ``η = ‖C‖ / (√r (α + L))`` Proposition B.1
gives, with probability ``1 − rβ``,

    ``f(θ̄) − f(θ*) ≤ (α + L)‖C‖/√r + α‖C‖``,

and Corollary B.2 shows ``r = (1 + L/α)²`` iterations suffice for excess
error ``2α‖C‖`` — the iteration count Algorithms 2 and 3 plug in
(their ``r = Θ((1 + T‖C‖/α′)²)``).

A key privacy point the paper stresses: evaluating ``g`` at as many points
as we like costs **nothing** extra — the function itself was released
privately, and evaluations are post-processing.  That is why the iteration
count is a pure accuracy/time knob here, never a privacy knob.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .._validation import check_int, check_matrix, check_non_negative, check_positive
from ..exceptions import ValidationError
from ..geometry.base import ConvexSet

__all__ = ["NoisyProjectedGradient", "noisy_pgd_iterations"]


def noisy_pgd_iterations(
    lipschitz: float,
    gradient_error: float,
    cap: int | None = 2000,
) -> int:
    """Corollary B.2's iteration count ``r = (1 + L/α)²``.

    Parameters
    ----------
    lipschitz:
        Lipschitz constant ``L`` of the objective being minimized (for the
        aggregate least-squares loss at time ``t`` this grows like ``t``).
    gradient_error:
        The gradient oracle's error bound ``α``.
    cap:
        Optional ceiling.  The paper's value grows like ``(T‖C‖/α)²`` which
        is prohibitive to run at every timestep of a long stream; the
        default cap keeps per-step work bounded while preserving the
        measured bound shapes (the convergence term ``(α+L)‖C‖/√r`` merely
        needs to be dominated by the noise floor ``α‖C‖``).  Pass ``None``
        for the full paper-fidelity count.
    """
    lipschitz = check_non_negative("lipschitz", lipschitz)
    gradient_error = check_positive("gradient_error", gradient_error)
    exact = int(math.ceil((1.0 + lipschitz / gradient_error) ** 2))
    if cap is None:
        return max(exact, 1)
    return max(min(exact, int(cap)), 1)


def _check_gradient(gradient, shape: tuple[int, ...]) -> None:
    """The first oracle output: finite, and exactly the iterate's shape
    (a ``(d,)`` gradient must not broadcast over a ``(k, d)`` stack)."""
    if np.shape(gradient) != shape:
        raise ValidationError(
            f"gradient must have the iterate's shape {shape}, got {np.shape(gradient)}"
        )
    if not np.all(np.isfinite(gradient)):
        raise ValidationError("gradient must contain only finite entries")


class NoisyProjectedGradient:
    """The ``NOISYPROJGRAD`` procedure of Appendix B (eq. 12).

    Parameters
    ----------
    constraint:
        The convex constraint set ``C``.
    lipschitz:
        Lipschitz constant ``L`` of the objective (enters the step size).
    gradient_error:
        The oracle error bound ``α`` (enters the step size).
    iterations:
        The iteration count ``r``; use :func:`noisy_pgd_iterations` for the
        Corollary B.2 value.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geometry import L2Ball
    >>> ball = L2Ball(dim=2, radius=1.0)
    >>> target = np.array([2.0, 0.0])
    >>> oracle = lambda theta: 2.0 * (theta - target)  # noqa: E731
    >>> pgd = NoisyProjectedGradient(ball, lipschitz=6.0,
    ...                              gradient_error=0.01, iterations=400)
    >>> theta_bar = pgd.run(oracle)
    >>> bool(np.linalg.norm(theta_bar - np.array([1.0, 0.0])) < 0.1)
    True
    """

    def __init__(
        self,
        constraint: ConvexSet,
        lipschitz: float,
        gradient_error: float,
        iterations: int,
    ) -> None:
        self.constraint = constraint
        self.lipschitz = check_non_negative("lipschitz", lipschitz)
        self.gradient_error = check_positive("gradient_error", gradient_error)
        self.iterations = check_int("iterations", iterations, minimum=1)
        diameter = constraint.diameter()
        # Appendix B step size: ‖C‖ / (√r (α + L)).
        self.step_size = diameter / (
            math.sqrt(self.iterations) * (self.gradient_error + self.lipschitz)
        )

    def run(
        self,
        gradient_oracle: Callable[[np.ndarray], np.ndarray],
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run ``r`` projected steps against the oracle; return ``θ̄``.

        Parameters
        ----------
        gradient_oracle:
            The private gradient function ``g`` — any callable mapping a
            feasible ``θ`` to an approximate gradient of the same shape.
            Post-processing of a private release, so evaluations are
            privacy-free.
        start:
            Optional feasible starting point ``θ_1`` (defaults to
            ``P_C(0)``; the Appendix-B analysis permits any ``θ_1 ∈ C``).
            A ``(k, d)`` stack runs ``k`` independent problems in one
            loop: every row takes the same steps it would take alone, bit
            for bit, because the step and the running sum are elementwise
            and the rows are projected with
            :meth:`~repro.geometry.base.ConvexSet._project_rows`.  The
            oracle then maps the stack to a ``(k, d)`` stack of gradients.

        Raises
        ------
        ValidationError
            If ``start`` is not a finite ``d``-vector or ``(k, d)`` stack,
            the first oracle output is not finite or not exactly the
            iterate's shape, or the iterate average is not finite.  The
            loop itself projects without checks: a non-finite gradient at
            any step makes that iterate, and so the average, non-finite
            (the :meth:`~repro.geometry.base.ConvexSet._project` contract).
        """
        constraint = self.constraint
        if start is None:
            start = np.zeros(constraint.dim)
        if np.ndim(start) == 2:
            # Checked once here, like ``project`` does for one point.
            rows = check_matrix("start", start, shape=(len(start), constraint.dim))
            theta = constraint._project_rows(rows)
            project = constraint._project_rows
        else:
            theta = constraint.project(start)
            project = constraint._project
        step_size = self.step_size
        iterate_sum = np.zeros_like(theta)
        for k in range(self.iterations):
            gradient = gradient_oracle(theta)
            if k == 0:
                _check_gradient(gradient, theta.shape)
            theta = project(theta - step_size * gradient)
            iterate_sum += theta
        average = iterate_sum / self.iterations
        if not np.all(np.isfinite(average)):
            raise ValidationError("iterate average must contain only finite entries")
        return average

    def risk_bound(self) -> float:
        """Proposition B.1's guarantee ``(α+L)‖C‖/√r + α‖C‖``."""
        diameter = self.constraint.diameter()
        convergence = (self.gradient_error + self.lipschitz) * diameter / math.sqrt(self.iterations)
        noise_floor = self.gradient_error * diameter
        return convergence + noise_floor
