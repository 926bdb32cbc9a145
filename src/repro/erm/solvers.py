"""Exact (non-private) constrained solvers.

These serve three roles in the library:

1. compute the true minimizer ``θ̂_t ∈ argmin_{θ∈C} J(θ; Γ_t)`` that every
   excess-risk measurement in Definition 1 is relative to;
2. implement the non-private exact inner solves of
   :class:`~repro.erm.output_perturbation.OutputPerturbation`;
3. provide the non-private baseline estimator.

For squared loss the objective is a convex quadratic over a set we can
project onto, so accelerated projected gradient (FISTA, Beck-Teboulle 2009)
with the exact smoothness constant converges at ``O(1/k²)`` and is both
faster and more reliable than a generic scipy call.  A plain projected
(sub)gradient method handles arbitrary convex losses.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .._validation import check_int, check_vector
from ..geometry.base import ConvexSet
from .objective import QuadraticRisk

__all__ = ["fista_quadratic", "projected_gradient", "exact_least_squares"]


def fista_quadratic(
    risk: QuadraticRisk,
    constraint: ConvexSet,
    iterations: int = 300,
    start: np.ndarray | None = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Minimize a :class:`QuadraticRisk` over ``constraint`` with FISTA.

    Parameters
    ----------
    risk:
        The quadratic objective (its exact smoothness constant sets the
        step size).
    constraint:
        The convex constraint set ``C``.
    iterations:
        Maximum iteration count; with the ``O(1/k²)`` rate, 300 iterations
        give ``~1e-5 · L · ‖C‖²`` objective accuracy in the worst case and
        far better on the conditioned problems produced by random streams.
    start:
        Optional warm start (must be feasible); defaults to ``P_C(0)``.
    tol:
        Early-exit threshold on the squared step length.

    Returns
    -------
    numpy.ndarray
        A feasible (approximate) minimizer.

    Raises
    ------
    ValidationError
        If ``start`` or the first gradient is not a finite ``d``-vector,
        or the result is not finite.
    """
    iterations = check_int("iterations", iterations, minimum=1)
    if risk.n_points == 0:
        return constraint.project(np.zeros(risk.dim))
    smoothness = risk.gradient_lipschitz()
    if smoothness <= 0:
        return constraint.project(np.zeros(risk.dim))
    step = 1.0 / smoothness
    theta = _checked_start(constraint, start)
    project = constraint._project
    momentum = theta.copy()
    t_prev = 1.0
    for k in range(iterations):
        gradient = risk.gradient(momentum)
        if k == 0:
            check_vector("gradient", gradient, dim=constraint.dim)
        new_theta = project(momentum - step * gradient)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = new_theta + ((t_prev - 1.0) / t_next) * (new_theta - theta)
        if float(np.linalg.norm(new_theta - theta) ** 2) < tol:
            theta = new_theta
            break
        theta, t_prev = new_theta, t_next
    return check_vector("solution", theta)


def projected_gradient(
    gradient: Callable[[np.ndarray], np.ndarray],
    constraint: ConvexSet,
    iterations: int,
    step_size: float,
    start: np.ndarray | None = None,
    average: bool = True,
) -> np.ndarray:
    """Generic projected (sub)gradient descent with constant step size.

    Parameters
    ----------
    gradient:
        Maps ``θ`` to a (sub)gradient of the objective.
    constraint:
        The convex constraint set.
    iterations:
        Number of steps ``r``.
    step_size:
        The constant step ``η``; the classical convergence analysis uses
        ``η = ‖C‖/(L√r)`` for an ``L``-Lipschitz objective.
    start:
        Optional feasible starting point (defaults to ``P_C(0)``).
    average:
        If True (default) return the iterate average (the estimator the
        Appendix-B analysis bounds); otherwise return the last iterate.

    Raises
    ------
    ValidationError
        If ``start`` or the first gradient is not a finite ``d``-vector,
        or the result is not finite.
    """
    iterations = check_int("iterations", iterations, minimum=1)
    theta = _checked_start(constraint, start)
    project = constraint._project
    running_sum = np.zeros_like(theta)
    for k in range(iterations):
        direction = gradient(theta)
        if k == 0:
            check_vector("gradient", direction, dim=constraint.dim)
        theta = project(theta - step_size * direction)
        running_sum += theta
    return check_vector("solution", running_sum / iterations if average else theta)


def _checked_start(constraint: ConvexSet, start: np.ndarray | None) -> np.ndarray:
    """The first iterate of a projected loop: ``P_C(0)`` or a checked ``start``.

    The loops validate at their boundaries only — this start point, the
    first gradient and the returned point — and project every iterate
    with the unchecked :meth:`~repro.geometry.base.ConvexSet._project`.
    A non-finite gradient at any step leaves every later iterate
    non-finite (that method's contract), so the final check still sees it.
    """
    if start is None:
        return constraint.project(np.zeros(constraint.dim))
    return check_vector("start", start, dim=constraint.dim)


def exact_least_squares(
    xs: np.ndarray,
    ys: np.ndarray,
    constraint: ConvexSet,
    iterations: int = 300,
) -> np.ndarray:
    """``argmin_{θ∈C} Σ (y_i − ⟨x_i, θ⟩)²`` — the paper's eq. (9).

    Builds the moment statistics once and runs :func:`fista_quadratic`.
    """
    risk = QuadraticRisk.from_data(np.asarray(xs, float), np.asarray(ys, float))
    return fista_quadratic(risk, constraint, iterations=iterations)
